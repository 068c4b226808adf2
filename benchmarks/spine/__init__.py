"""The measurement spine: the repo's wall-clock benchmark (see README.md).

A package only so that ``run.py``, ``compare.py`` and ``test_spine.py``
can import their siblings as ``spine.<module>`` — a bare ``import trace``
from a script directory on ``sys.path`` would shadow the standard
library's ``trace`` module for every other importer in the process.
"""
