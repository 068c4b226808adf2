"""The ``spmdlint`` rules (S3, S4, S5, S7, S13).

Each rule is a small object with an ``id``, a one-line ``title`` and a
``check(module)`` generator yielding :class:`~.checker.Finding`s.  The
rules work off the :class:`~.checker.ModuleIndex` produced by the
framework — see ``docs/spmdlint.md`` for the catalogue with examples,
the rationale behind every exclusion, and which defect classes are left
to the runtime sanitizer.  S13 enforces that every suppression comment
carries a written rationale.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from .checker import (
    BOOKING_METHODS,
    CommCall,
    Finding,
    FuncInfo,
    ModuleIndex,
    attr_root,
    comm_method_of,
    mentions_rank,
)

#: Container/dict/set methods that mutate their receiver in place.
MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "setdefault",
    "sort",
    "reverse",
}

#: Unseeded-randomness / wall-clock call patterns (dotted suffixes).
_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
}

#: RNG constructors that are fine *when given an explicit seed*.
_SEEDABLE_RNGS = {"default_rng", "RandomState", "SeedSequence", "Generator", "Random"}


@dataclass(frozen=True)
class Rule:
    id: str
    title: str
    check: Callable[[ModuleIndex], Iterator[Finding]]


def _finding(
    rule: str, module: ModuleIndex, func: FuncInfo, node: ast.AST, message: str
) -> Finding:
    return Finding(
        rule=rule,
        path=module.path,
        line=getattr(node, "lineno", func.node.lineno),
        col=getattr(node, "col_offset", 0),
        qualname=func.qualname,
        message=message,
    )


def walk_scope(root: ast.AST) -> Iterator[ast.AST]:
    """Yield descendants of ``root`` without entering nested scopes."""
    todo = list(ast.iter_child_nodes(root))
    while todo:
        node = todo.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        todo.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# S3 — mutation of closure-captured / global shared objects
# ----------------------------------------------------------------------
def _rank_indexed(chain: ast.AST, tainted: Set[str]) -> bool:
    """True when the attr/subscript chain indexes by this rank's id
    (the per-rank-slot idiom ``results[comm.rank] = ...`` is safe)."""
    node = chain
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Subscript) and mentions_rank(node.slice, tainted):
            return True
        node = node.value
    return False


def _shared_mutation_base(
    target: ast.AST, func: FuncInfo
) -> Optional[str]:
    """Free-name base of a mutation target, or None when it is local."""
    if not isinstance(target, (ast.Attribute, ast.Subscript)):
        return None
    root = attr_root(target)
    if root is None:
        return None
    name = root.id
    if name in func.bound_names or name in func.comm_names:
        return None
    if _rank_indexed(target, func.rank_tainted):
        return None
    return name


def check_s3(module: ModuleIndex) -> Iterator[Finding]:
    for func in module.functions.values():
        for node in walk_scope(func.node):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            elif isinstance(node, (ast.Nonlocal, ast.Global)):
                kind = "nonlocal" if isinstance(node, ast.Nonlocal) else "global"
                yield _finding(
                    "S3", module, func, node,
                    f"rebinds {kind} name(s) {', '.join(node.names)} from "
                    "inside a rank program — every rank writes the same "
                    "shared cell (cross-rank race)",
                )
                continue
            elif isinstance(node, ast.Call):
                f = node.func
                if (
                    isinstance(f, ast.Attribute)
                    and f.attr in MUTATOR_METHODS
                    and comm_method_of(node, func.comm_names) is None
                ):
                    name = _shared_mutation_base(f, func)
                    if name is not None:
                        yield _finding(
                            "S3", module, func, node,
                            f"calls mutating method '.{f.attr}()' on "
                            f"closure-captured/shared object '{name}' from "
                            "inside a rank program — all ranks mutate one "
                            "object concurrently (cross-rank race)",
                        )
                continue
            for target in targets:
                name = _shared_mutation_base(target, func)
                if name is not None:
                    yield _finding(
                        "S3", module, func, node,
                        f"writes into closure-captured/shared object "
                        f"'{name}' from inside a rank program — all ranks "
                        "write the same object concurrently (cross-rank "
                        "race); index by comm.rank for per-rank slots",
                    )


# ----------------------------------------------------------------------
# S4 — comm bytes/time booked outside any comm.phase(...) block
# ----------------------------------------------------------------------
def check_s4(module: ModuleIndex) -> Iterator[Finding]:
    funcs = module.functions
    by_name: Dict[str, List[FuncInfo]] = {}
    for f in funcs.values():
        by_name.setdefault(f.name, []).append(f)

    direct: Dict[str, List[CommCall]] = {
        q: [
            cc
            for cc in f.comm_calls
            if cc.method in BOOKING_METHODS and not cc.in_phase
        ]
        for q, f in funcs.items()
    }

    # books[q]: an unphased booking is reachable from q's entry without
    # crossing a phase block (directly or through unphased local calls).
    books: Dict[str, bool] = {q: bool(direct[q]) for q in funcs}
    changed = True
    while changed:
        changed = False
        for q, f in funcs.items():
            if books[q]:
                continue
            for callee_name, in_phase in f.local_calls:
                if in_phase:
                    continue
                if any(books[g.qualname] for g in by_name.get(callee_name, ())):
                    books[q] = True
                    changed = True
                    break

    # callers[q]: analyzed call sites of q, with phase coverage.
    callers: Dict[str, List[Tuple[str, bool]]] = {q: [] for q in funcs}
    for q, f in funcs.items():
        for callee_name, in_phase in f.local_calls:
            for g in by_name.get(callee_name, ()):
                callers[g.qualname].append((q, in_phase))

    # reachable[q]: q can be *entered* with no phase active — true for
    # roots and module entry points (no analyzed callers), and for any
    # helper called outside a phase from a reachable function.  Helpers
    # only ever called inside phase blocks are covered by their callers.
    reachable: Dict[str, bool] = {
        q: f.is_root or not callers[q] for q, f in funcs.items()
    }
    changed = True
    while changed:
        changed = False
        for q in funcs:
            if reachable[q]:
                continue
            if any(not in_phase and reachable[c] for c, in_phase in callers[q]):
                reachable[q] = True
                changed = True
    for q, f in funcs.items():
        if not reachable[q]:
            continue
        for cc in direct[q]:
            yield _finding(
                "S4", module, f, cc.node,
                f"'{cc.method}' books communication bytes/time outside any "
                "comm.phase(...) block — traffic lands in the catch-all "
                "'total' phase and per-phase reports undercount",
            )


# ----------------------------------------------------------------------
# S5 — nondeterminism sources inside rank programs
# ----------------------------------------------------------------------
def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def check_s5(module: ModuleIndex) -> Iterator[Finding]:
    for func in module.functions.values():
        for node in walk_scope(func.node):
            if not isinstance(node, ast.Call):
                continue
            path = _dotted(node.func)
            if path is None:
                continue
            tail2 = path[-2:] if len(path) >= 2 else None
            if tail2 in _CLOCK_CALLS:
                yield _finding(
                    "S5", module, func, node,
                    f"wall-clock call '{'.'.join(path)}()' inside a rank "
                    "program — ranks observe different values; use "
                    "comm.time (the virtual clock) instead",
                )
                continue
            if "random" not in path:
                continue
            # random.x(...), np.random.x(...), numpy.random.x(...)
            leaf = path[-1]
            if leaf in _SEEDABLE_RNGS:
                if not node.args and not node.keywords:
                    yield _finding(
                        "S5", module, func, node,
                        f"'{'.'.join(path)}()' without an explicit seed "
                        "inside a rank program — ranks draw different "
                        "streams; pass a seed (derived from the rank for "
                        "per-rank streams)",
                    )
                continue
            yield _finding(
                "S5", module, func, node,
                f"global-state randomness '{'.'.join(path)}()' inside a "
                "rank program — nondeterministic across ranks and runs; "
                "use a seeded Generator instead",
            )


# ----------------------------------------------------------------------
# S7 — resident-state mutation bypassing the checkpoint layer
# ----------------------------------------------------------------------
#: Attribute names that mark an operand-handle chain as resident state
#: the checkpoint layer snapshots (docs/resilience.md): ``operand.aux``
#: is the per-rank scratch dict, ``operand.prepared`` the shared plan.
#: A bare local *named* ``prepared`` (the plan-cache parameter of the
#: multiply kernels) is deliberately out of scope — the driver manages
#: those caches itself (snapshot by reference + invalidation on
#: restore); only handle-rooted ``.aux`` / ``.prepared`` chains must go
#: through ``operand.cache(...)``.
_RESIDENT_ATTRS = {"aux", "prepared"}


def _resident_attr_of(node: ast.AST) -> Optional[str]:
    """The first ``.aux``/``.prepared`` attribute access in a chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr in _RESIDENT_ATTRS:
            return node.attr
        node = node.value
    return None


def check_s7(module: ModuleIndex) -> Iterator[Finding]:
    for func in module.functions.values():
        for node in walk_scope(func.node):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            elif isinstance(node, ast.Call):
                f = node.func
                if (
                    isinstance(f, ast.Attribute)
                    and f.attr in MUTATOR_METHODS
                    and comm_method_of(node, func.comm_names) is None
                ):
                    attr = _resident_attr_of(f.value)
                    if attr is not None:
                        yield _finding(
                            "S7", module, func, node,
                            f"calls mutating method '.{f.attr}()' on a "
                            f"'.{attr}' chain inside a rank program — the "
                            "write bypasses the checkpoint layer, so a "
                            "recovery restores stale state; register it "
                            "with operand.cache(key, value) instead",
                        )
                continue
            for target in targets:
                attr = _resident_attr_of(target)
                if attr is not None:
                    yield _finding(
                        "S7", module, func, node,
                        f"writes resident per-rank state through '.{attr}' "
                        "inside a rank program without registering it with "
                        "the checkpoint layer — a post-fault recovery "
                        "restores stale state; use "
                        "operand.cache(key, value) instead",
                    )


# ----------------------------------------------------------------------
# S13 — suppression comment without a written rationale
# ----------------------------------------------------------------------
def check_s13(module: ModuleIndex) -> Iterator[Finding]:
    """A ``# spmdlint: disable=Sx`` directive must justify itself with a
    trailing ``-- reason``.  S13 findings bypass suppression (see
    ``lint_source``): a bare ``disable=all`` cannot silence the demand
    for its own rationale."""
    for line in sorted(module.suppressions):
        if line in module.rationales:
            continue
        rules = ",".join(sorted(module.suppressions[line]))
        yield Finding(
            rule="S13",
            path=module.path,
            line=line,
            col=0,
            qualname="<module>",
            message=(
                f"suppression 'disable={rules}' has no rationale — append "
                "'-- <why this is a false positive>' so every silenced "
                "rule carries its justification in-line"
            ),
        )


ALL_RULES: Tuple[Rule, ...] = (
    Rule("S3", "mutation of closure-captured shared state", check_s3),
    Rule("S4", "comm bytes booked outside a comm.phase block", check_s4),
    Rule("S5", "nondeterminism source inside a rank program", check_s5),
    Rule("S7", "resident-state mutation bypassing the checkpoint layer", check_s7),
    Rule("S13", "suppression comment without a written rationale", check_s13),
)

RULES_BY_ID: Dict[str, Rule] = {r.id: r for r in ALL_RULES}
