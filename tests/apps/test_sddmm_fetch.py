"""The distributed SDDMM's ``Z``-row fetch against its per-peer reference.

The prologue packs every peer's rows with one ``extract_rows`` and places
every received entry with one scatter.  Each peer's payload must equal,
array for array and in ``nbytes_estimate``, the per-peer extraction it
replaced (``benchmarks/_oracles.py``), and the assembled compact operand
``y`` must equal the per-payload ``to_dense`` placement bit for bit — on
uneven partitions with a rank that holds no rows and a rank whose pattern
references no remote row.
"""

import threading

import numpy as np
import pytest
from _oracles import per_payload_sddmm_rows, per_peer_sddmm_send

from repro.apps import embedding
from repro.core import TsConfig, TsSession
from repro.mpi.errors import RankError
from repro.sparse import CsrMatrix, row_topk

from ..conftest import assert_same_arrays

PHASE = embedding._SddmmPrologue.PHASE
N, D = 40, 6

#: (p, row bounds, the rank whose pattern stays inside its own columns).
#: Rank 1 holds no rows wherever bounds are given.
LAYOUTS = [
    (1, None, 0),
    (3, (0, 14, 14, N), 2),
    (8, (0, 3, 3, 10, 18, 19, 30, 34, N), 3),
]


def labelled_pattern(bounds, local_rank, seed):
    """A ±1 force pattern, every row referencing some column, with
    ``local_rank``'s rows referencing only its own columns."""
    rng = np.random.default_rng(seed)
    mask = rng.random((N, N)) < 0.15
    mask[np.arange(N), rng.integers(0, N, N)] = True
    if bounds is not None:
        lo, hi = bounds[local_rank], bounds[local_rank + 1]
        mask[lo:hi, :lo] = mask[lo:hi, hi:] = False
        mask[np.arange(lo, hi), np.arange(lo, hi)] = True
    return CsrMatrix.from_dense(np.where(mask, rng.choice([-1.0, 1.0], (N, N)), 0.0))


class _Probe(embedding._SddmmPrologue):
    """The SDDMM prologue, recording per rank what it sends, what it
    receives and the ``y`` it hands to the coefficient step, beside what
    the per-peer reference makes of the same inputs."""

    def __init__(self, seen):
        self.seen = seen
        self.current = threading.local()

    def sections(self, comm, operand, z_sp, z_dn, labels):
        out = super().sections(comm, operand, z_sp, z_dn, labels)
        send_rows, _, _, _ = operand.aux["sddmm_plan"]
        my_lo, _ = operand.dist.local_range
        self.seen[comm.rank] = {
            "send": out[0][1],
            "want_send": per_peer_sddmm_send(z_sp, send_rows, comm.rank, my_lo),
        }
        return out

    def finish(self, comm, operand, received, z_sp, z_dn, labels):
        _, needed, _, _ = operand.aux["sddmm_plan"]
        record = self.seen[comm.rank]
        record["received"] = received[PHASE]
        record["want_y"] = per_payload_sddmm_rows(
            needed, received[PHASE], z_dn, operand.dist.local_range
        )
        self.current.rank = comm.rank
        super().finish(comm, operand, received, z_sp, z_dn, labels)


@pytest.fixture
def probe(monkeypatch):
    """A :class:`_Probe` whose ``y`` reaches ``seen`` through a spy on
    the coefficient step."""
    seen = {}
    probe = _Probe(seen)
    real = embedding.force2vec_coefficients

    def spy(compact, z, y, labels):
        seen[probe.current.rank]["y"] = y.copy()
        return real(compact, z, y, labels)

    monkeypatch.setattr(embedding, "force2vec_coefficients", spy)
    return probe


def run_prologue(prologue, p, bounds, pattern, fuse_comm=True):
    z = np.random.default_rng(1).standard_normal((pattern.nrows, D))
    z[::5] = 0  # rows that ship no entries
    z_sp, z_dn = row_topk(z, 3)
    config = TsConfig(tile_height=4, fuse_comm=fuse_comm)
    with TsSession(pattern, p, config=config, row_bounds=bounds) as session:
        z_h = session.scatter(z_sp)
        session.multiply(
            z_h,
            gather=False,
            prologue=prologue,
            prologue_operands=(
                z_h, session.scatter(z_dn), session.scatter(pattern)
            ),
        )


class TestBatchedFetchMatchesPerPeer:
    @pytest.mark.parametrize("fuse_comm", [True, False])
    @pytest.mark.parametrize("p, bounds, local_rank", LAYOUTS)
    def test_payloads_and_rows(self, probe, p, bounds, local_rank, fuse_comm):
        pattern = labelled_pattern(bounds, local_rank, seed=p)
        run_prologue(probe, p, bounds, pattern, fuse_comm)
        assert sorted(probe.seen) == list(range(p))
        for rank, record in probe.seen.items():
            for got, want in zip(record["send"], record["want_send"]):
                assert (got is None) == (want is None)
                if got is not None:
                    assert got[0].dtype == want[0].dtype
                    np.testing.assert_array_equal(got[0], want[0])
                    assert_same_arrays(got[1], want[1])
                    assert got[1].nbytes_estimate() == want[1].nbytes_estimate()
            assert record["y"].dtype == record["want_y"].dtype
            assert record["y"].tobytes() == record["want_y"].tobytes()
        # the layouts are what they claim to be
        assert all(x is None for x in probe.seen[local_rank]["received"])
        if bounds is not None:
            assert all(x is None for x in probe.seen[1]["send"])
            assert probe.seen[1]["y"].shape == (0, D)
        if p > 1:
            received = [x for r in probe.seen.values() for x in r["received"]]
            assert any(x is not None for x in received)


class _Doctored(embedding._SddmmPrologue):
    """Rank 1 receives rank 0's payload with its first row id replaced by
    one its pattern does not reference."""

    def finish(self, comm, operand, received, z_sp, z_dn, labels):
        if comm.rank == 1:
            _, needed, _, _ = operand.aux["sddmm_plan"]
            gids, block = received[PHASE][0]
            gids = gids.copy()
            gids[0] = np.setdiff1d(np.arange(operand.dist.ncols), needed)[0]
            received = {PHASE: [(gids, block), *received[PHASE][1:]]}
        super().finish(comm, operand, received, z_sp, z_dn, labels)


def test_a_stray_row_id_names_its_sender():
    """Row 1 is not referenced, but lies between the referenced rows 0
    and 2: it must raise, not overwrite the row held in either slot."""
    mask = np.eye(12, dtype=bool)
    mask[4:8, 0] = mask[4:8, 2] = True  # rank 1 references rows 0 and 2
    pattern = CsrMatrix.from_dense(np.where(mask, 1.0, 0.0))
    stray = "rank 1 failed: ValueError: rank 0 sent unreferenced Z row 1$"
    with pytest.raises(RankError, match=stray) as err:
        run_prologue(_Doctored(), 3, None, pattern)
    assert err.value.rank == 1 and isinstance(err.value.original, ValueError)
