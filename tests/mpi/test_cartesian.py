"""Tests for communicator splitting and cartesian grids."""

import pytest

from repro.mpi import layered_grid_dims, make_grid3d, run_spmd, square_grid_dims


class TestSplit:
    def test_split_even_odd(self):
        def program(comm):
            sub = comm.split(color=comm.rank % 2)
            return (sub.rank, sub.size, sub.global_rank)

        values = run_spmd(6, program).values
        # evens: ranks 0,2,4 -> sub ranks 0,1,2 ; odds: 1,3,5
        assert values[0] == (0, 3, 0)
        assert values[2] == (1, 3, 2)
        assert values[5] == (2, 3, 5)

    def test_split_with_key_reorders(self):
        def program(comm):
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        values = run_spmd(4, program).values
        assert values == [3, 2, 1, 0]

    def test_split_none_opts_out(self):
        def program(comm):
            sub = comm.split(color=None if comm.rank == 0 else 1)
            return None if sub is None else sub.size

        values = run_spmd(3, program).values
        assert values == [None, 2, 2]

    def test_subcommunicator_collectives_are_isolated(self):
        def program(comm):
            sub = comm.split(color=comm.rank % 2)
            return sub.allreduce(comm.rank)

        values = run_spmd(6, program).values
        assert values[0] == values[2] == values[4] == 0 + 2 + 4
        assert values[1] == values[3] == values[5] == 1 + 3 + 5

    def test_subcommunicator_p2p(self):
        def program(comm):
            sub = comm.split(color=comm.rank // 2)  # pairs
            if sub.rank == 0:
                sub.send(comm.rank, dest=1)
                return None
            return sub.recv(source=0)

        values = run_spmd(4, program).values
        assert values[1] == 0 and values[3] == 2

    def test_nested_splits(self):
        def program(comm):
            half = comm.split(color=comm.rank // 4)
            quarter = half.split(color=half.rank // 2)
            return quarter.allreduce(comm.rank)

        values = run_spmd(8, program).values
        assert values[0] == values[1] == 0 + 1
        assert values[6] == values[7] == 6 + 7

    def test_repeated_splits_at_same_site(self):
        def program(comm):
            total = 0
            for it in range(3):
                sub = comm.split(color=(comm.rank + it) % 2)
                total += sub.allreduce(1)
            return total

        values = run_spmd(4, program).values
        assert values == [6, 6, 6, 6]


class TestGridDims:
    def test_square_grid_perfect_squares(self):
        assert square_grid_dims(16) == (4, 4)
        assert square_grid_dims(1) == (1, 1)

    def test_square_grid_rectangles(self):
        assert square_grid_dims(12) == (3, 4)
        assert square_grid_dims(8) == (2, 4)

    def test_square_grid_primes_degrade_to_1d(self):
        assert square_grid_dims(7) == (1, 7)

    def test_layered_dims_divides(self):
        pr, pc, l = layered_grid_dims(16, 4)
        assert pr * pc * l == 16 and l == 4

    def test_layered_dims_falls_back(self):
        pr, pc, l = layered_grid_dims(6, 4)
        assert pr * pc * l == 6 and l == 3

    @pytest.mark.parametrize("p, layers", [(0, 4), (4, 0)])
    def test_layered_dims_refuse_empty_grids(self, p, layers):
        with pytest.raises(ValueError):
            layered_grid_dims(p, layers)


class TestOneLayerGrid:
    """2-D SUMMA's grid is the one-layer :func:`make_grid3d`."""

    def test_coordinates_row_major(self):
        def program(comm):
            g = make_grid3d(comm, 1)
            return (g.pr, g.pc, g.row, g.col)

        values = run_spmd(6, program).values
        assert [v[:2] for v in values] == [(2, 3)] * 6
        assert [v[2:] for v in values] == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_row_and_col_comm_sizes(self):
        def program(comm):
            g = make_grid3d(comm, 1)
            return (g.row_comm.size, g.col_comm.size)

        assert run_spmd(6, program).values == [(3, 2)] * 6

    def test_row_bcast_stays_in_row(self):
        def program(comm):
            g = make_grid3d(comm, 1)
            return g.row_comm.bcast(g.row * 100 if g.col == 0 else None, root=0)

        values = run_spmd(4, program).values
        assert values == [0, 0, 100, 100]

    def test_auto_dims(self):
        def program(comm):
            g = make_grid3d(comm, 1)
            return (g.pr, g.pc, g.layers)

        assert run_spmd(4, program).values == [(2, 2, 1)] * 4

    @pytest.mark.parametrize("p, layers", [(4, 1), (1, 4), (5, 4)])
    def test_one_layer_has_no_fiber(self, p, layers):
        """One layer — asked for, or the fallback when no divisor of ``p``
        lies in 2..layers — splits no fiber communicator."""

        def program(comm):
            g = make_grid3d(comm, layers)
            return (g.layers, g.fiber_comm)

        assert run_spmd(p, program).values == [(1, None)] * p


class TestGrid3D:
    def test_fiber_spans_layers(self):
        def program(comm):
            g = make_grid3d(comm, layers=2)
            return (g.layers, g.fiber_comm.size, g.layer)

        values = run_spmd(8, program).values
        assert all(v[0] == 2 and v[1] == 2 for v in values)
        assert sorted(v[2] for v in values) == [0] * 4 + [1] * 4

    def test_layer_face_collectives_isolated(self):
        def program(comm):
            g = make_grid3d(comm, layers=2)
            # row comm within one layer's face
            return g.row_comm.allreduce(g.layer)

        values = run_spmd(8, program).values
        # every member of a layer-0 row sums zeros; layer-1 rows sum twos
        assert sorted(values) == [0, 0, 0, 0, 2, 2, 2, 2]

    def test_fiber_reduce_merges_partials(self):
        def program(comm):
            g = make_grid3d(comm, layers=2)
            return g.fiber_comm.allreduce(g.layer + 1)

        assert run_spmd(8, program).values == [3] * 8
