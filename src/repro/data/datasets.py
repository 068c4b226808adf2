"""The Table V dataset registry (laptop-scale synthetic stand-ins).

The paper's datasets and our substitutions (DESIGN.md §2): each entry
keeps the original's *average degree* and degree-distribution family
(scale-free RMAT for the web crawls, ER for the Erdős–Rényi row, planted
partitions for the small attributed graphs used by the embedding study)
while scaling vertex counts down so the full benchmark suite runs on one
machine.  ``scale`` multiplies the default vertex counts for users who
want larger runs.

============  ==========  =============  ===========  ====================
alias         paper |V|   paper |E|      avg degree   stand-in
============  ==========  =============  ===========  ====================
pubmed        19,717      44,338         4.49         planted partition
flicker       89,250      899,756        20.16        planted partition
cora          2,708       5,429          2.0          planted partition
citeseer      3,312       4,732          1.4          planted partition
arabic        22.7 M      640.0 M        28.1         RMAT, k=28.1
it            41.3 M      1,150.7 M      27.8         RMAT, k=27.8
gap           50.6 M      1,930.3 M      38.1         RMAT, k=38.1
uk            18.5 M      298.1 M        16.0         RMAT, k=16.0
ER            40 M        320 M          8            Erdős–Rényi, k=8
============  ==========  =============  ===========  ====================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..sparse.csr import CsrMatrix
from .generators import erdos_renyi, planted_partition, rmat


@dataclass(frozen=True)
class DatasetSpec:
    """One Table V row and its synthetic stand-in."""

    alias: str
    paper_vertices: int
    paper_edges: int
    avg_degree: float
    family: str  # "rmat" | "er" | "planted"
    default_n: int  # stand-in vertex count at scale=1.0
    n_communities: int = 0  # planted-partition only

    def generate(self, *, scale: float = 1.0, seed: int = 0) -> CsrMatrix:
        """Build the stand-in adjacency matrix."""
        n = max(int(self.default_n * scale), 16)
        if self.family == "rmat":
            return rmat(n, self.avg_degree, seed=seed)
        if self.family == "er":
            return erdos_renyi(n, self.avg_degree, seed=seed)
        if self.family == "planted":
            adj, _ = planted_partition(
                n, max(self.n_communities, 2), seed=seed
            )
            return adj
        raise ValueError(f"unknown family {self.family!r}")

    def generate_with_labels(
        self, *, scale: float = 1.0, seed: int = 0
    ) -> Tuple[CsrMatrix, Optional[np.ndarray]]:
        """Adjacency plus community labels (labels only for planted)."""
        n = max(int(self.default_n * scale), 16)
        if self.family == "planted":
            return planted_partition(n, max(self.n_communities, 2), seed=seed)
        return self.generate(scale=scale, seed=seed), None


#: Table V, keyed by the paper's aliases.
DATASETS: Dict[str, DatasetSpec] = {
    "pubmed": DatasetSpec("pubmed", 19_717, 44_338, 4.49, "planted", 1_000, 10),
    "flicker": DatasetSpec("flicker", 89_250, 899_756, 20.16, "planted", 1_200, 12),
    "cora": DatasetSpec("cora", 2_708, 5_429, 2.0, "planted", 800, 7),
    "citeseer": DatasetSpec("citeseer", 3_312, 4_732, 1.4, "planted", 800, 6),
    "arabic": DatasetSpec("arabic", 22_744_080, 639_999_458, 28.1, "rmat", 4_096),
    "it": DatasetSpec("it", 41_291_594, 1_150_725_436, 27.8, "rmat", 4_096),
    "gap": DatasetSpec("gap", 50_636_151, 1_930_292_948, 38.1, "rmat", 4_096),
    "uk": DatasetSpec("uk", 18_520_486, 298_113_762, 16.0, "rmat", 4_096),
    "ER": DatasetSpec("ER", 40_000_000, 320_000_000, 8.0, "er", 4_096),
}


def get_dataset(alias: str) -> DatasetSpec:
    """Look up a Table V dataset by alias."""
    try:
        return DATASETS[alias]
    except KeyError:
        raise KeyError(
            f"unknown dataset {alias!r}; available: {sorted(DATASETS)}"
        ) from None


def load(alias: str, *, scale: float = 1.0, seed: int = 0) -> CsrMatrix:
    """Convenience: ``get_dataset(alias).generate(...)``."""
    return get_dataset(alias).generate(scale=scale, seed=seed)
