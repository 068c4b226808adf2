"""Byte-size accounting for message payloads.

The cost model charges β per byte actually moved, so every payload that
crosses the simulated wire needs a byte size.  NumPy arrays report
``nbytes``; containers are summed recursively; objects exposing an
``nbytes_estimate()`` method (e.g. :class:`repro.sparse.csr.CsrMatrix`)
self-report, which keeps this module free of imports from the sparse layer.

Small Python scalars are charged 8 bytes — the size their value would
occupy in a C struct on the wire — rather than their (much larger) CPython
object footprint, because the simulation stands in for a C/MPI program.
"""

from __future__ import annotations

from typing import Any

import numpy as np

_SCALAR_BYTES = 8


def payload_nbytes(obj: Any) -> int:
    """Return the number of wire bytes ``obj`` would occupy.

    Supports ``None`` (0 bytes), numpy arrays and scalars, Python scalars,
    strings/bytes, objects with ``nbytes_estimate()``, and arbitrarily
    nested tuples/lists/dicts/sets of the above.

    Called on every send, mostly with small tuples of mode strings and
    blocks, so those exact types are sized first; the ``isinstance`` chain
    is the definition and the fast path agrees with it byte for byte.
    """
    kind = type(obj)
    if kind is tuple or kind is list:
        return sum(map(payload_nbytes, obj))
    if kind is str:
        return len(obj) if obj.isascii() else len(obj.encode("utf-8"))
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, np.generic):
        return int(obj.nbytes)
    estimate = getattr(obj, "nbytes_estimate", None)
    if callable(estimate):
        return int(estimate())
    if isinstance(obj, (bool, int, float, complex)):
        return _SCALAR_BYTES
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    if isinstance(obj, (tuple, list, set, frozenset)):
        return sum(payload_nbytes(item) for item in obj)
    # Fallback: unknown object types are charged a scalar; algorithms in
    # this repository only ship arrays, CSR blocks and small tuples.
    return _SCALAR_BYTES
