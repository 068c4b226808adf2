"""The ``@rank_program`` marker for SPMD entry points.

Rank programs — functions executed once per simulated rank with a
:class:`~repro.mpi.comm.SimComm` as their first argument — are discovered
by the static checker (``repro.analysis.lint``) through a combination of
naming conventions and this explicit decorator.  The decorator is a pure
annotation: it sets an attribute and returns the function unchanged, so
it costs nothing at runtime and composes with any other decorator.

Use it on rank programs the conventions would miss (first parameter not
named ``comm``, or an unconventional function name)::

    from repro.mpi import rank_program

    @rank_program
    def worker(c, blocks):
        c.barrier()
        ...
"""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)

#: Attribute set on decorated functions (the static checker reads the
#: decorator itself, from the source).
RANK_PROGRAM_ATTR = "__rank_program__"


def rank_program(fn: F) -> F:
    """Mark ``fn`` as an SPMD rank program (annotation only)."""
    setattr(fn, RANK_PROGRAM_ATTR, True)
    return fn
