"""Framework of the ``spmdlint`` static checker.

The linter parses each Python source file once, indexes every function
that looks like (or is marked as) an SPMD *rank program*, and hands the
resulting :class:`ModuleIndex` to each rule in
:mod:`repro.analysis.lint.rules`.  It is purely syntactic — no imports of
the linted code are performed — so it runs on any tree, including broken
or dependency-missing files elsewhere in a repository.

Rank-program discovery (the "reachable as a rank program" set):

* functions decorated with ``@rank_program`` (any import spelling);
* functions whose *first* parameter is literally named ``comm`` —
  the repository-wide convention for SPMD code (methods, whose first
  parameter is ``self``/``cls``, are deliberately out of scope);
* nested functions named ``program`` or ``setup`` — the closure
  convention of the resident drivers;
* functions passed by name to ``run_spmd(...)`` or a ``*.run(...)`` /
  ``*._run_setup(...)`` call in the same module;
* closures nested in a rank function that use its communicator (how
  the payload-codec hooks of ``tiled_multiply`` and ``spmm_multiply``
  are seen).

Functions in the first, third and fourth groups are *roots* (entered
directly by the executor); the rest are *helpers* reached from roots.
Rules that depend on the charging context (S4) use the distinction to
avoid flagging helpers whose call sites are all covered by a
``comm.phase(...)`` block.  A closure inherits its enclosing rank
function's locals, comm aliases and rank taint: the enclosing frame is
per-rank, so writing into it is not shared state.

Suppression: a finding is dropped when the flagged line, the line
directly above it (a standalone directive comment), or the ``def`` line
of the enclosing function carries a comment of the form
``# spmdlint: disable=S3 -- <why this is a false positive>``
(comma-separated rule ids; ``all`` disables every rule).  The rationale
after ``--`` is required: a suppression without one is itself a finding
(rule S13), so every silenced rule carries its justification in-line.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Comm methods that book bytes or virtual time and therefore belong
#: inside a ``comm.phase(...)`` block (rule S4).  The collectives
#: ``barrier``/``split`` carry no bytes and are exempt.
BOOKING_METHODS = {
    "bcast",
    "gather",
    "allgather",
    "scatter",
    "alltoall",
    "alltoallv",
    "alltoall_fused",
    "reduce",
    "allreduce",
    "scan",
    "send",
    "recv",
    "sendrecv",
    "charge_spgemm",
    "charge_spmm",
    "charge_sddmm",
    "charge_symbolic",
    "charge_touch",
    "charge_seconds",
}

#: Names of closure functions the resident drivers execute as rank
#: programs.
ROOT_CLOSURE_NAMES = {"program", "setup"}


@dataclass(frozen=True)
class Finding:
    """One lint violation."""

    rule: str
    path: str
    line: int
    col: int
    qualname: str
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.qualname}] {self.message}"
        )


@dataclass
class CommCall:
    """One call on a communicator object inside a rank function."""

    node: ast.Call
    method: str
    in_phase: bool


@dataclass
class FuncInfo:
    """Everything the rules need to know about one rank function."""

    node: ast.AST  # FunctionDef | AsyncFunctionDef
    name: str
    qualname: str
    is_root: bool
    #: Local names bound anywhere in the function (params, assignments,
    #: imports, nested defs, loop/with/except targets, comprehensions).
    bound_names: Set[str] = field(default_factory=set)
    #: Names that alias a communicator (the comm param, split results).
    comm_names: Set[str] = field(default_factory=set)
    #: Names tainted by this rank's identity (``comm.rank`` etc.).
    rank_tainted: Set[str] = field(default_factory=set)
    comm_calls: List[CommCall] = field(default_factory=list)
    #: Calls to other module functions: (callee name, in_phase).
    local_calls: List[Tuple[str, bool]] = field(default_factory=list)


@dataclass
class ModuleIndex:
    """Parsed, indexed view of one source file."""

    path: str
    #: line -> set of suppressed rule ids ("all" suppresses everything).
    suppressions: Dict[int, Set[str]]
    #: line -> rationale text following ``--`` in the suppression
    #: comment; lines missing here have no written justification (S13).
    rationales: Dict[int, str] = field(default_factory=dict)
    functions: Dict[str, FuncInfo] = field(default_factory=dict)

    def suppressed(self, rule: str, line: int, func: Optional[FuncInfo] = None) -> bool:
        # a directive suppresses its own line, the line directly below
        # (the standalone-comment-above convention), and — via the def
        # line — the whole enclosing function.
        probes = [line, line - 1]
        if func is not None:
            probes.append(func.node.lineno)
        for probe in probes:
            rules = self.suppressions.get(probe)
            if rules and ("all" in rules or rule in rules):
                return True
        return False


# ----------------------------------------------------------------------
# suppression comments
# ----------------------------------------------------------------------
def _parse_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Dict[int, str]]:
    """``(suppressions, rationales)`` of one source file.

    Directive grammar: ``# spmdlint: disable=S3,S4 -- reason text``.
    The rule list ends at the first ``--`` (the rationale) or ``#``
    (a trailing comment, e.g. the fixtures' EXPECT markers).
    """
    out: Dict[int, Set[str]] = {}
    rationales: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string.lstrip("#").strip()
            if not text.startswith("spmdlint:"):
                continue
            directive = text[len("spmdlint:"):].strip()
            if directive.startswith("disable="):
                body = directive[len("disable="):]
                rules_part, sep, rationale = body.partition("--")
                rules_part = rules_part.split("#", 1)[0]
                rules = {r.strip() for r in rules_part.split(",")}
                out.setdefault(tok.start[0], set()).update(r for r in rules if r)
                if sep and rationale.strip():
                    rationales[tok.start[0]] = rationale.strip()
    except tokenize.TokenError:  # pragma: no cover - malformed tail
        pass
    return out, rationales


# ----------------------------------------------------------------------
# expression helpers shared with the rules
# ----------------------------------------------------------------------
def attr_root(node: ast.AST) -> Optional[ast.Name]:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node if isinstance(node, ast.Name) else None


def is_comm_expr(node: ast.AST, comm_names: Set[str]) -> bool:
    """Heuristic: does ``node`` evaluate to a communicator?

    True for the comm parameter and split-derived names, and for any
    attribute chain whose final component mentions ``comm`` (``A.comm``,
    ``grid.row_comm`` …) — the repository naming convention.
    """
    if isinstance(node, ast.Name):
        return node.id in comm_names or "comm" in node.id
    if isinstance(node, ast.Attribute):
        return "comm" in node.attr or is_comm_expr(node.value, comm_names)
    return False


def comm_method_of(call: ast.Call, comm_names: Set[str]) -> Optional[str]:
    """The method name when ``call`` is ``<comm-like>.<method>(...)``."""
    func = call.func
    if isinstance(func, ast.Attribute) and is_comm_expr(func.value, comm_names):
        return func.attr
    return None


def mentions_rank(node: ast.AST, tainted: Set[str]) -> bool:
    """Does the expression depend on this rank's identity?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in ("rank", "global_rank"):
            return True
        if isinstance(sub, ast.Name) and sub.id in tainted:
            return True
    return False


def _is_phase_with_item(item: ast.withitem) -> bool:
    expr = item.context_expr
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr == "phase"
    )


# ----------------------------------------------------------------------
# module indexing
# ----------------------------------------------------------------------
def _first_param(node) -> Optional[str]:
    args = node.args
    all_pos = list(args.posonlyargs) + list(args.args)
    return all_pos[0].arg if all_pos else None


def _has_rank_program_decorator(node) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "rank_program":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "rank_program":
            return True
    return False


def _names_passed_to_runners(tree: ast.Module) -> Set[str]:
    """Function names handed to ``run_spmd`` / ``*.run`` / ``*._run_setup``."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        is_runner = (
            (isinstance(func, ast.Name) and func.id == "run_spmd")
            or (
                isinstance(func, ast.Attribute)
                and func.attr in ("run", "run_spmd", "_run_setup")
            )
        )
        if not is_runner:
            continue
        for arg in node.args:
            if isinstance(arg, ast.Name):
                out.add(arg.id)
    return out


class _FunctionIndexer(ast.NodeVisitor):
    """Walks one function body (stopping at nested defs), recording bound
    names, comm aliases, rank taint, comm calls and local calls with
    their ``comm.phase`` coverage."""

    def __init__(self, info: FuncInfo, module_functions: Set[str]):
        self.info = info
        self.module_functions = module_functions
        self.phase_depth = 0

    # -- scope boundaries ------------------------------------------------
    def visit_FunctionDef(self, node) -> None:
        if node is self.info.node:
            for a in (
                list(node.args.posonlyargs)
                + list(node.args.args)
                + list(node.args.kwonlyargs)
            ):
                self.info.bound_names.add(a.arg)
            if node.args.vararg:
                self.info.bound_names.add(node.args.vararg.arg)
            if node.args.kwarg:
                self.info.bound_names.add(node.args.kwarg.arg)
            for stmt in node.body:
                self.visit(stmt)
        else:
            self.info.bound_names.add(node.name)  # nested def: opaque

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node) -> None:
        pass  # opaque

    def visit_ClassDef(self, node) -> None:
        self.info.bound_names.add(node.name)

    # -- binding constructs ---------------------------------------------
    def _bind_target(self, target: ast.AST) -> None:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                self.info.bound_names.add(sub.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            self._bind_target(t)
        self._track_aliases(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.target is not None:
            self._bind_target(node.target)
        if node.value is not None:
            self._track_aliases([node.target], node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._bind_target(node.target)
        self.generic_visit(node)

    def visit_NamedExpr(self, node) -> None:
        self._bind_target(node.target)
        self._track_aliases([node.target], node.value)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._bind_target(node.target)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_comprehension(self, node) -> None:
        self._bind_target(node.target)
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.info.bound_names.add(alias.asname or alias.name.split(".")[0])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self.info.bound_names.add(alias.asname or alias.name)

    def visit_ExceptHandler(self, node) -> None:
        if node.name:
            self.info.bound_names.add(node.name)
        self.generic_visit(node)

    def _track_aliases(self, targets: Sequence[ast.AST], value: ast.AST) -> None:
        """Name = comm.split(...) makes the name comm-like;
        Name = <rank-dependent expr> taints the name."""
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        if (
            isinstance(value, ast.Call)
            and comm_method_of(value, self.info.comm_names) == "split"
        ):
            self.info.comm_names.update(names)
        if mentions_rank(value, self.info.rank_tainted):
            self.info.rank_tainted.update(names)

    # -- phase structure -------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        phased = any(_is_phase_with_item(item) for item in node.items)
        for item in node.items:
            if item.optional_vars is not None:
                self._bind_target(item.optional_vars)
            self.visit(item.context_expr)
        if phased:
            self.phase_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if phased:
            self.phase_depth -= 1

    visit_AsyncWith = visit_With

    # -- calls ------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        method = comm_method_of(node, self.info.comm_names)
        if method is not None:
            self.info.comm_calls.append(
                CommCall(node=node, method=method, in_phase=self.phase_depth > 0)
            )
        elif isinstance(node.func, ast.Name) and node.func.id in self.module_functions:
            self.info.local_calls.append((node.func.id, self.phase_depth > 0))
        self.generic_visit(node)


def _collect_defs(tree: ast.Module) -> List[Tuple[str, ast.AST, bool]]:
    """Every function def in the module as ``(qualname, node, nested)``."""
    defs: List[Tuple[str, ast.AST, bool]] = []

    def collect(node: ast.AST, prefix: str, nested: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                defs.append((qual, child, nested))
                collect(child, qual + ".", True)
            elif isinstance(child, ast.ClassDef):
                collect(child, f"{prefix}{child.name}.", nested)
            else:
                collect(child, prefix, nested)

    collect(tree, "", False)
    return defs


def _uses_comm(node: ast.AST, comm_names: Set[str]) -> bool:
    return any(
        isinstance(sub, ast.Name) and is_comm_expr(sub, comm_names)
        for sub in ast.walk(node)
    )


def _index_function(
    node: ast.AST,
    qualname: str,
    is_root: bool,
    module_functions: Set[str],
    comm_names: Set[str],
    tainted: Set[str],
    bound: Set[str],
) -> FuncInfo:
    # two passes so taint chains (a = comm.rank; b = a + 1) settle
    for _ in range(2):
        info = FuncInfo(
            node=node,
            name=node.name,
            qualname=qualname,
            is_root=is_root,
            bound_names=set(bound),
            comm_names=set(comm_names),
            rank_tainted=set(tainted),
        )
        _FunctionIndexer(info, module_functions).visit(node)
        comm_names, tainted = info.comm_names, info.rank_tainted
    return info


def index_module(path: str, source: str) -> Optional[ModuleIndex]:
    """Parse and index ``source``; None when it is not valid Python."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return None
    suppressions, rationales = _parse_suppressions(source)
    module = ModuleIndex(path=path, suppressions=suppressions, rationales=rationales)
    runner_names = _names_passed_to_runners(tree)
    defs = _collect_defs(tree)
    all_names = {node.name for _, node, _ in defs}
    # defs are in pre-order, so an enclosing function is indexed first
    for qualname, node, nested in defs:
        first = _first_param(node)
        is_root = (
            _has_rank_program_decorator(node)
            or node.name in runner_names
            or (nested and node.name in ROOT_CLOSURE_NAMES and first == "comm")
        )
        enclosing = module.functions.get(qualname.rpartition(".")[0])
        if is_root or first == "comm":
            inherited = ({first} if first else set(), set(), set())
        elif enclosing is not None and _uses_comm(node, enclosing.comm_names):
            inherited = (
                enclosing.comm_names,
                enclosing.rank_tainted,
                enclosing.bound_names,
            )
        else:
            continue
        module.functions[qualname] = _index_function(
            node, qualname, is_root, all_names, *inherited
        )
    return module


def lint_source(path: str, source: str, rules=None) -> List[Finding]:
    """Run ``rules`` (default: all) over one file's source."""
    from .rules import ALL_RULES

    module = index_module(path, source)
    if module is None:
        return []
    active = ALL_RULES if rules is None else rules
    findings: List[Finding] = []
    for rule in active:
        for finding in rule.check(module):
            func = module.functions.get(finding.qualname)
            # S13 findings bypass suppression: a rationale-less
            # `disable=all` must not silence the demand for a rationale.
            if finding.rule != "S13" and module.suppressed(
                finding.rule, finding.line, func
            ):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    import os

    for p in paths:
        if os.path.isfile(p):
            if p.endswith(".py"):
                yield p
            continue
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames[:] = [d for d in sorted(dirnames) if d != "__pycache__"]
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)
