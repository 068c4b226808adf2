"""Fig 13's qualitative claims, at the configuration of
``benchmarks/bench_fig13_embedding.py`` (which prints the full sweep).

A stand-in graph at scale 0.5, d = 32, 25 epochs, p = 4, tile height
b = 0.5·n/p: the dense embedding learns, communication falls as the
embedding is sparsified, and moderate sparsity keeps most of the
accuracy.  The size is the bench's: at scale 0.25 the accuracy margins
shrink to a few hundredths.
"""

import pytest

from repro.apps import train_sparse_embedding
from repro.core import TsConfig
from repro.data import get_dataset
from repro.mpi import SCALED_PERLMUTTER

P, D, EPOCHS = 4, 32, 25


@pytest.fixture(scope="module", params=["cora", "citeseer"])
def sweep(request):
    adj, _ = get_dataset(request.param).generate_with_labels(scale=0.5, seed=4)
    config = TsConfig(tile_height=max(adj.nrows // P // 2, 1))
    return {
        sparsity: train_sparse_embedding(
            adj, P, d=D, sparsity=sparsity, epochs=EPOCHS, seed=1,
            learning_rate=0.05, config=config, machine=SCALED_PERLMUTTER,
        )
        for sparsity in (0.0, 0.5, 0.75)
    }


def test_dense_embedding_learns(sweep):
    assert sweep[0.0].accuracy > 0.6


def test_communication_falls_with_sparsity(sweep):
    assert sweep[0.75].total_comm_bytes < sweep[0.0].total_comm_bytes


def test_moderate_sparsity_keeps_accuracy(sweep):
    assert sweep[0.5].accuracy > sweep[0.0].accuracy - 0.2
