"""The mode-policy ablation's claims (§III-D: the symbolic step picks a
local or a remote mode per tile), at ``benchmarks/_configs.MODE_POLICY``'s
``claims_scale``; ``bench_ablation_mode_policy.py`` prints the same table
at its ``bench_scale``.

Each policy's bytes are its multiply's plus its mode table
(``_configs.moved_bytes``), as Fig 6 counts them.  Every claim is on
products and communicated bytes, so the tests are deterministic.
"""

import pytest

from _configs import MODE_POLICY, moved_bytes
from repro.core import TsConfig
from repro.data import load, tall_skinny
from repro.mpi import SCALED_PERLMUTTER

from ..conftest import assert_same_arrays

DATASETS = MODE_POLICY["datasets"]


@pytest.fixture(scope="module")
def runs():
    out = {}
    for alias in DATASETS:
        A = load(alias, scale=MODE_POLICY["claims_scale"], seed=0)
        B = tall_skinny(A.nrows, MODE_POLICY["d"], MODE_POLICY["sparsity"], seed=1)
        out[alias] = {
            policy: moved_bytes(
                A, B, MODE_POLICY["p"], TsConfig(mode_policy=policy), SCALED_PERLMUTTER
            )
            for policy in MODE_POLICY["policies"]
        }
    return out


@pytest.mark.parametrize("alias", DATASETS)
def test_every_policy_computes_the_same_product(runs, alias):
    """A tile's mode decides where it is multiplied, not what: hybrid,
    local-only and remote-only give a bit-identical ``C``."""
    hybrid = runs[alias]["hybrid"][0].C
    for policy in ("local", "remote"):
        forced = runs[alias][policy][0].C
        assert_same_arrays(forced, hybrid)
        assert forced.data.tobytes() == hybrid.data.tobytes()


@pytest.mark.parametrize("alias", DATASETS)
def test_hybrid_moves_no_more_than_the_better_forced_policy(runs, alias):
    """§III-D: choosing per tile the mode that ships less data, hybrid
    moves no more bytes than the better of the forced policies."""
    moved = {policy: nbytes for policy, (_, nbytes) in runs[alias].items()}
    assert moved["hybrid"] <= min(moved["local"], moved["remote"])
