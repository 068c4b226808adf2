"""Integration: every distributed algorithm against every workload shape.

These tests exercise the full stack — generators → distribution → the
distributed multiply → gather — across algorithms, semirings, process
counts and the awkward shapes (square B, d=1, hub rows, empty blocks)
that unit tests cover only piecewise.  Property-based variants drive the
same pipeline from hypothesis-generated matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ALGORITHMS
from repro.core import TsConfig, ts_spgemm
from repro.data import erdos_renyi, rmat, tall_skinny
from repro.sparse import BOOL_AND_OR, MIN_PLUS, PLUS_TIMES, CsrMatrix, spgemm
from ..conftest import csr_from_dense, random_dense

ALGOS = sorted(ALGORITHMS)


class TestWorkloadShapes:
    @pytest.mark.parametrize("name", ALGOS)
    def test_rmat_with_hubs(self, name):
        A = rmat(96, 8, seed=1)
        B = tall_skinny(96, 12, 0.7, seed=2)
        expected, _ = spgemm(A, B)
        assert ALGORITHMS[name](A, B, 4).C.equal(expected), name

    @pytest.mark.parametrize("name", ALGOS)
    def test_square_b(self, name):
        """Conclusion §VI: TS-SpGEMM handles B that resembles A in shape."""
        A = erdos_renyi(48, 5, seed=3)
        B = erdos_renyi(48, 5, seed=4)
        expected, _ = spgemm(A, B)
        assert ALGORITHMS[name](A, B, 4).C.equal(expected), name

    @pytest.mark.parametrize("name", ALGOS)
    def test_d_equals_one(self, name):
        """d=1 is SpMSpV — the single-source BFS building block (§IV-A)."""
        A = erdos_renyi(40, 4, seed=5)
        B = tall_skinny(40, 1, 0.8, seed=6)
        expected, _ = spgemm(A, B)
        assert ALGORITHMS[name](A, B, 4).C.equal(expected), name

    @pytest.mark.parametrize("name", ALGOS)
    def test_bool_semiring_everywhere(self, name):
        A = erdos_renyi(40, 4, seed=7).astype(np.bool_)
        B = tall_skinny(40, 6, 0.6, seed=8).astype(np.bool_)
        expected, _ = spgemm(A, B, BOOL_AND_OR)
        result = ALGORITHMS[name](A, B, 4, semiring=BOOL_AND_OR)
        assert result.C.equal(expected), name

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_awkward_rank_counts(self, p):
        """Non-power-of-two p: uneven blocks, degenerate grids."""
        A = erdos_renyi(37, 4, seed=9)
        B = tall_skinny(37, 5, 0.5, seed=10)
        expected, _ = spgemm(A, B)
        for name in ALGOS:
            assert ALGORITHMS[name](A, B, p).C.equal(expected), (name, p)

    def test_empty_rank_blocks(self):
        """p > n: some ranks own zero rows yet participate in collectives."""
        A = erdos_renyi(6, 2, seed=11)
        B = tall_skinny(6, 3, 0.3, seed=12)
        expected, _ = spgemm(A, B)
        for name in ALGOS:
            assert ALGORITHMS[name](A, B, 8).C.equal(expected), name


class TestConfigurationMatrix:
    @pytest.mark.parametrize("width", [1, 3, 16])
    @pytest.mark.parametrize("height", [1, 7, None])
    def test_tiling_grid(self, width, height):
        A = rmat(64, 6, seed=13)
        B = tall_skinny(64, 8, 0.6, seed=14)
        expected, _ = spgemm(A, B)
        cfg = TsConfig(tile_width_factor=width, tile_height=height)
        assert ts_spgemm(A, B, 4, config=cfg).C.equal(expected)

    def test_min_plus_chain(self):
        """Two chained tropical multiplies = 2-hop shortest paths."""
        A = csr_from_dense(
            np.where(erdos_renyi(30, 4, seed=15).to_dense() > 0, 1.0, 0.0)
        )
        B = tall_skinny(30, 4, 0.5, seed=16)
        hop1 = ts_spgemm(A, B, 3, semiring=MIN_PLUS).C
        hop2 = ts_spgemm(A, hop1, 3, semiring=MIN_PLUS).C
        expected1, _ = spgemm(A, B, MIN_PLUS)
        expected2, _ = spgemm(A, expected1, MIN_PLUS)
        assert hop2.equal(expected2)


class TestPropertyBased:
    @given(
        n=st.integers(6, 24),
        d=st.integers(1, 6),
        p=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_tiled_matches_serial_random(self, n, d, p, seed):
        rng = np.random.default_rng(seed)
        A = csr_from_dense(random_dense(rng, n, n, 0.25))
        B = csr_from_dense(random_dense(rng, n, d, 0.4))
        expected, _ = spgemm(A, B)
        assert ts_spgemm(A, B, p).C.equal(expected)

    @given(
        n=st.integers(6, 20),
        p=st.integers(2, 4),
        seed=st.integers(0, 1000),
        policy=st.sampled_from(["hybrid", "local", "remote"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_mode_policy_never_changes_product(self, n, p, seed, policy):
        rng = np.random.default_rng(seed)
        A = csr_from_dense(random_dense(rng, n, n, 0.3))
        B = csr_from_dense(random_dense(rng, n, 4, 0.5))
        expected, _ = spgemm(A, B)
        cfg = TsConfig(mode_policy=policy)
        assert ts_spgemm(A, B, p, config=cfg).C.equal(expected)

    @given(
        n=st.integers(8, 20),
        p=st.integers(2, 4),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=15, deadline=None)
    def test_hybrid_bytes_bounded_by_forced_policies(self, n, p, seed):
        """The byte-exact mode decision makes hybrid ≤ min(local, remote)
        up to per-payload framing: each shipped payload carries one extra
        row-pointer word (8 B), and a forced policy can pack what hybrid
        splits into two payloads into one.  Slack: 16 B per subtile pair.
        """
        rng = np.random.default_rng(seed)
        A = csr_from_dense(random_dense(rng, n, n, 0.3))
        B = csr_from_dense(random_dense(rng, n, 4, 0.5))
        byte_counts = {
            policy: ts_spgemm(
                A, B, p, config=TsConfig(mode_policy=policy)
            ).comm_bytes()
            for policy in ("hybrid", "local", "remote")
        }
        framing_slack = 16 * p * p
        assert byte_counts["hybrid"] <= byte_counts["local"] + framing_slack
        assert byte_counts["hybrid"] <= byte_counts["remote"] + framing_slack
