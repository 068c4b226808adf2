"""Applications built on TS-SpGEMM: multi-source BFS (reachability and
parent trees), closeness centrality and sparse embedding."""

from .bfs_tree import BfsTreeResult, msbfs_tree, validate_forest
from .centrality import ClosenessResult, closeness_centrality
from .influence import (
    InfluenceResult,
    influence_maximization,
    sample_keep_mask,
    sample_rng,
)
from .embedding import (
    EmbeddingEpoch,
    EmbeddingResult,
    embedding_rows,
    link_prediction_accuracy,
    train_sparse_embedding,
)
from .msbfs import (
    BfsIteration,
    BfsResult,
    msbfs,
    msbfs_on_session,
)

__all__ = [
    "BfsIteration",
    "BfsResult",
    "BfsTreeResult",
    "ClosenessResult",
    "EmbeddingEpoch",
    "EmbeddingResult",
    "InfluenceResult",
    "closeness_centrality",
    "embedding_rows",
    "influence_maximization",
    "link_prediction_accuracy",
    "msbfs",
    "msbfs_on_session",
    "msbfs_tree",
    "sample_keep_mask",
    "sample_rng",
    "train_sparse_embedding",
    "validate_forest",
]
