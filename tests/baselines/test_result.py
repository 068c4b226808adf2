"""Unit tests for the result every multiply returns and for the baselines'
block assembly."""

import numpy as np
import pytest

from repro.baselines.result import assemble_2d_blocks
from repro.core.driver import MultiplyResult
from repro.mpi.stats import PhaseStats, RankStats, SpmdReport
from repro.partition import grid_block
from repro.sparse import CsrMatrix, PLUS_TIMES
from ..conftest import csr_from_dense, random_dense


def make_report():
    """Two ranks; rank 1 runs two phases over its 2.0 s."""
    ranks = [RankStats(rank=0), RankStats(rank=1)]
    ranks[0].phases["local-compute"] = PhaseStats(
        bytes_sent=8, comm_time=0.5, compute_time=0.5
    )
    ranks[1].phases["fetch-B"] = PhaseStats(
        bytes_sent=16, comm_time=0.25, compute_time=0.25
    )
    ranks[1].phases["local-compute"] = PhaseStats(
        bytes_sent=4, comm_time=0.45, compute_time=1.05
    )
    return SpmdReport(
        size=2,
        rank_stats=ranks,
        clocks=[1.0, 2.0],
        comm_times=[0.5, 0.7],
        compute_times=[0.5, 1.3],
    )


class TestAssemble2D:
    def test_roundtrip_through_grid_blocks(self, rng):
        dense = random_dense(rng, 10, 8, 0.4)
        mat = csr_from_dense(dense)
        pr, pc = 2, 4
        values = []
        for i in range(pr):
            for j in range(pc):
                values.append(((i, j), grid_block(mat, pr, pc, i, j)))
        assembled = assemble_2d_blocks(values, 10, 8, pr, pc)
        assert assembled.equal(mat)

    def test_empty_blocks_allowed(self):
        values = [((0, 0), CsrMatrix.empty((2, 2))), ((0, 1), CsrMatrix.empty((2, 2)))]
        out = assemble_2d_blocks(values, 2, 4, 1, 2)
        assert out.nnz == 0 and out.shape == (2, 4)

    def test_uneven_partition(self, rng):
        dense = random_dense(rng, 7, 5, 0.5)
        mat = csr_from_dense(dense)
        pr, pc = 3, 2
        values = [
            ((i, j), grid_block(mat, pr, pc, i, j))
            for i in range(pr)
            for j in range(pc)
        ]
        assert assemble_2d_blocks(values, 7, 5, pr, pc).equal(mat)


class TestMultiplyResult:
    def test_api_surface(self):
        """The one result type of every registry entry: a multiply's
        report holds no setup, so multiply time is the max clock, and
        communication time and bytes are the whole report's."""
        result = MultiplyResult(C=CsrMatrix.empty((2, 2)), report=make_report())
        assert result.runtime == result.multiply_time == 2.0
        assert result.comm_time == 0.7
        assert result.comm_bytes() == 28
        assert result.diagnostics == {}
