"""The rotated round schedule: the one place its arithmetic lives.

``tile_rounds`` must give every rank a consistent view — a consumer's
round for a producer is that producer's round for the consumer — or the
unfused per-round all-to-alls would not match up and grouping rounds
into one fused step would change payloads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tiled import tile_rounds, tile_steps

WORLD = st.integers(min_value=1, max_value=24)
WIDTH = st.integers(min_value=1, max_value=32)


@settings(max_examples=200, deadline=None)
@given(p=WORLD, width=WIDTH)
def test_rounds_partition_producers_and_pair_up(p, width):
    schedule = [tile_rounds(rank, p, width) for rank in range(p)]
    for rank, rounds in enumerate(schedule):
        assert len(rounds) == -(-p // width)
        consumed = [j for _, producers in rounds for j in producers]
        assert sorted(consumed) == list(range(p))
        assert all(rank not in consumers for consumers, _ in rounds)
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            meets = [r for r, (consumers, _) in enumerate(schedule[j]) if i in consumers]
            assert len(meets) == 1
            assert j in schedule[i][meets[0]][1]


@settings(max_examples=100, deadline=None)
@given(p=WORLD, width=WIDTH)
def test_steps_only_regroup_rounds(p, width):
    for rank in range(p):
        rounds = tile_rounds(rank, p, width)
        unfused = tile_steps(rank, p, width, fuse=False)
        assert unfused == [(consumers, [producers]) for consumers, producers in rounds]
        ((consumers, producer_rounds),) = tile_steps(rank, p, width, fuse=True)
        assert consumers == [i for i in range(p) if i != rank]  # ascending
        assert producer_rounds == [producers for _, producers in rounds]


def test_steps_are_the_callers_own_lists():
    """The schedule is cached per (rank, p, width, fuse): what a caller
    does to the lists it was handed must not reach the next caller."""
    first = tile_steps(1, 6, 2, fuse=False)
    want = [(list(consumers), list(rounds)) for consumers, rounds in first]
    first[0][0].append(99)
    first[0][1].clear()
    first.pop()
    assert tile_steps(1, 6, 2, fuse=False) == want
