"""Table IV defaults and TsConfig validation."""

import inspect

import pytest

from repro.apps.embedding import BATCH_SIZE, LEARNING_RATE, train_sparse_embedding
from repro.core import DEFAULT_CONFIG, TsConfig


class TestTable4Defaults:
    """Assert the paper's default parameters (Table IV) are encoded."""

    def test_tile_width_is_16_x_n_over_p(self):
        assert DEFAULT_CONFIG.tile_width_factor == 16

    def test_tile_height_defaults_to_n_over_p(self):
        assert DEFAULT_CONFIG.tile_height is None
        assert DEFAULT_CONFIG.effective_tile_height(100) == 100

    def test_embedding_defaults(self):
        assert BATCH_SIZE == 256
        assert LEARNING_RATE == pytest.approx(0.02)
        lr = inspect.signature(train_sparse_embedding).parameters["learning_rate"]
        assert lr.default == LEARNING_RATE

    def test_hybrid_mode_is_default(self):
        assert DEFAULT_CONFIG.mode_policy == "hybrid"


class TestValidation:
    def test_bad_width(self):
        with pytest.raises(ValueError):
            TsConfig(tile_width_factor=0)

    def test_bad_height(self):
        with pytest.raises(ValueError):
            TsConfig(tile_height=0)

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            TsConfig(mode_policy="adaptive")

    def test_explicit_height_clamped(self):
        cfg = TsConfig(tile_height=64)
        assert cfg.effective_tile_height(32) == 32
        assert cfg.effective_tile_height(100) == 64
        assert cfg.effective_tile_height(0) == 1


class TestFields:
    def test_plan_reuse_is_not_a_knob(self):
        """Every resident session prepares its plan: there is no field to
        switch that off."""
        with pytest.raises(TypeError):
            TsConfig(reuse_plan=False)
