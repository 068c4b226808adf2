"""Test package marker: enables relative imports from the shared conftest."""
