"""Tests for IC influence maximization via MSBFS."""

import numpy as np
import pytest

from repro.apps import influence_maximization, sample_keep_mask, sample_rng
from repro.data import erdos_renyi, rmat
from repro.sparse import CsrMatrix, from_edges, mask_entries


class TestLiveEdgeSampling:
    def test_probability_one_keeps_all(self, rng):
        A = erdos_renyi(50, 4, seed=1)
        assert sample_keep_mask(A, 1.0, rng).sum() == A.nnz

    def test_probability_zero_drops_all(self, rng):
        A = erdos_renyi(50, 4, seed=1)
        assert sample_keep_mask(A, 0.0, rng).sum() == 0

    def test_expected_fraction(self, rng):
        A = erdos_renyi(200, 8, seed=2)
        frac = sample_keep_mask(A, 0.3, rng).mean()
        assert 0.2 < frac < 0.4

    def test_subset_of_pattern(self, rng):
        from repro.sparse import pattern_difference

        A = erdos_renyi(60, 5, seed=3)
        live = mask_entries(A, sample_keep_mask(A, 0.5, rng))
        assert pattern_difference(live, A).nnz == 0

    def test_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            sample_keep_mask(CsrMatrix.empty((2, 2)), 1.5, rng)


class TestGreedySelection:
    def test_star_hub_selected_first(self):
        leaves = list(range(1, 12))
        adj = from_edges([0] * 11, leaves, 12, symmetric=True)
        result = influence_maximization(
            adj, k=1, p=2, probability=1.0, samples=2, seed=1
        )
        assert result.seeds == [0]
        # with probability 1 the hub reaches everything
        assert result.spread == pytest.approx(12.0)

    def test_two_components_pick_one_seed_each(self):
        # two disjoint stars; greedy must take one hub from each
        src = [0] * 5 + [10] * 5
        dst = list(range(1, 6)) + list(range(11, 16))
        adj = from_edges(src, dst, 16, symmetric=True)
        result = influence_maximization(
            adj, k=2, p=2, probability=1.0, samples=2, seed=1
        )
        assert set(result.seeds) == {0, 10}

    def test_spread_curve_monotone(self):
        adj = rmat(128, 6, seed=4)
        result = influence_maximization(
            adj, k=3, p=2, probability=0.2, samples=4, seed=2
        )
        curve = result.spread_estimates
        assert len(curve) == 3
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_marginal_gains_diminish(self):
        adj = rmat(128, 8, seed=5)
        result = influence_maximization(
            adj, k=3, p=2, probability=0.3, samples=4, seed=3
        )
        curve = [0.0] + result.spread_estimates
        gains = [b - a for a, b in zip(curve, curve[1:])]
        assert all(g2 <= g1 + 1e-9 for g1, g2 in zip(gains, gains[1:]))

    def test_deterministic_given_seed(self):
        adj = erdos_renyi(60, 4, seed=6)
        r1 = influence_maximization(adj, k=2, p=2, samples=3, seed=7)
        r2 = influence_maximization(adj, k=2, p=2, samples=3, seed=7)
        assert r1.seeds == r2.seeds
        assert r1.spread == pytest.approx(r2.spread)

    def test_candidates_are_high_degree(self):
        adj = rmat(128, 8, seed=8)
        result = influence_maximization(adj, k=1, p=2, samples=2, seed=4)
        degrees = adj.row_nnz()
        assert len(result.candidates) == 16  # max(4k, 16) at k = 1
        floor = np.sort(degrees)[-16]
        assert all(degrees[c] >= floor for c in result.candidates)

    def test_validation(self):
        with pytest.raises(ValueError):
            influence_maximization(CsrMatrix.empty((2, 3)), 1, 2)
        with pytest.raises(ValueError):
            influence_maximization(CsrMatrix.empty((2, 2)), 0, 2)

    def test_runtime_accumulates_over_samples(self):
        adj = erdos_renyi(50, 4, seed=9)
        result = influence_maximization(adj, k=1, p=2, samples=3, seed=5)
        assert result.total_runtime > 0
        assert result.samples == 3


class TestSampleRng:
    """Sample r's live-edge mask must be a pure function of (seed, r) —
    the property that makes any serving-tier batching of influence
    queries bit-identical to a sequential Monte-Carlo run."""

    def test_mask_depends_only_on_seed_and_sample(self):
        adj = erdos_renyi(80, 4, seed=2)
        a = sample_keep_mask(adj, 0.4, sample_rng(11, 3))
        b = sample_keep_mask(adj, 0.4, sample_rng(11, 3))
        np.testing.assert_array_equal(a, b)

    def test_samples_are_independent_of_draw_order(self):
        adj = erdos_renyi(80, 4, seed=2)
        # Draw samples 0..3 in order, then sample 2 alone: identical.
        in_order = [
            sample_keep_mask(adj, 0.4, sample_rng(7, r)) for r in range(4)
        ]
        alone = sample_keep_mask(adj, 0.4, sample_rng(7, 2))
        np.testing.assert_array_equal(in_order[2], alone)

    def test_distinct_samples_differ(self):
        adj = erdos_renyi(80, 4, seed=2)
        a = sample_keep_mask(adj, 0.5, sample_rng(7, 0))
        b = sample_keep_mask(adj, 0.5, sample_rng(7, 1))
        assert not np.array_equal(a, b)

    def test_distinct_base_seeds_differ(self):
        adj = erdos_renyi(80, 4, seed=2)
        a = sample_keep_mask(adj, 0.5, sample_rng(7, 0))
        b = sample_keep_mask(adj, 0.5, sample_rng(8, 0))
        assert not np.array_equal(a, b)

    def test_maximization_unchanged_by_prior_draws(self):
        # Re-running with the same seed after unrelated RNG activity
        # gives the same seeds: no hidden shared-stream state.
        adj = erdos_renyi(60, 4, seed=6)
        r1 = influence_maximization(adj, k=2, p=2, samples=3, seed=7)
        np.random.default_rng(0).random(1000)  # unrelated draws
        r2 = influence_maximization(adj, k=2, p=2, samples=3, seed=7)
        assert r1.seeds == r2.seeds
        assert r1.spread_estimates == r2.spread_estimates


class TestSampleSessions:
    @pytest.mark.parametrize("checkpoint", ["neighbor", "driver"])
    def test_each_sample_session_is_closed_with_its_replicas(self, monkeypatch, checkpoint):
        """Every derived per-sample session is closed after its traversal,
        so its checkpoint replicas go at once, not with the base session."""
        from repro.core import TsConfig, TsSession

        children = []
        derive = TsSession.derive_edge_subset

        def recording(self, keep):
            child = derive(self, keep)
            assert child._ckpt is not None  # replicas to release
            children.append(child)
            return child

        monkeypatch.setattr(TsSession, "derive_edge_subset", recording)
        adj = erdos_renyi(40, 4, seed=3)
        config = TsConfig(recoverable=True, checkpoint=checkpoint)
        influence_maximization(adj, k=2, p=2, samples=3, seed=1, config=config)
        assert len(children) == 3
        assert all(c._ckpt is None and c.checkpoint_resident_bytes == 0 for c in children)
