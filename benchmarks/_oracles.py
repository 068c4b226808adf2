"""Reference implementations the micro gates compare ``src/`` against.

Importable as a plain module (``from _oracles import lexsort_merge``)
because pytest puts each non-package bench module's directory on
``sys.path`` during collection.
"""

import numpy as np

from repro.sparse import CsrMatrix


def lexsort_merge(parts, semiring) -> CsrMatrix:
    """The seed's k-way merge, spelled out: concatenate, literal two-key
    ``np.lexsort``, segmented reduce.  ``src/`` orders the same triples
    with one stable sort of a fused key (``row_major_order``); this is
    what that must stay bit-identical to, and faster than."""
    rows = np.concatenate([p.row_ids() for p in parts])
    cols = np.concatenate([p.indices for p in parts])
    vals = np.concatenate([semiring.coerce(p.data) for p in parts])
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    change = np.ones(len(rows), dtype=bool)
    change[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(change)
    counts = np.bincount(rows[starts], minlength=parts[0].nrows)
    return CsrMatrix(
        parts[0].shape,
        np.concatenate([[0], np.cumsum(counts)]),
        cols[starts],
        semiring.reduce_segments(vals, starts),
        check=False,
    )
