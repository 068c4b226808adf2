"""Execution census of ``src/``: what the traffic reaches, and what only
the tests do.  Stdlib only: no ``coverage`` package is needed.

Four passes, run from the repository root::

    python benchmarks/census.py static     # a few seconds; a CI gate
    python benchmarks/census.py imports    # a second; a CI gate
    python benchmarks/census.py params     # a few seconds; a CI gate
    python benchmarks/census.py dynamic    # minutes; the per-file table

``static``
    Lists every ``def`` / ``class`` in ``src/`` that no line of ``src/``,
    ``benchmarks/`` (the spine included) or ``examples/`` names outside
    its own definition and outside the ``__init__`` re-exports, and says
    whether ``tests/`` names it.  A name is an identifier, an attribute,
    an imported name, a keyword argument or a string constant, matched by
    bare name: a def shares the uses of every other def of its name, so
    the pass can miss a dead def but never lists a live one.  Exits 1
    when it lists a def that ``allowed`` does not excuse.
``imports``
    Lists every module-level import in ``src/`` that its own module never
    names again (a name, the base of an attribute, or an identifier inside
    a string such as an annotation or an ``__all__`` entry).  An
    ``__init__`` module's imports are its exports and ``__future__``
    imports act on the compiler, so neither is listed.  Exits 1 when it
    lists one.
``params``
    Lists every ``src/`` parameter with a default, and every keyword-only
    one, that no call in ``src/``, ``benchmarks/`` or ``examples/``
    supplies, and says whether a call in ``tests/`` does.  A call supplies
    a parameter by keyword, by position, through ``*args`` / ``**kwargs``
    or ``super().__init__``; ``@dataclass`` fields are ``__init__``
    parameters, and ``dataclasses.replace(x, field=…)`` supplies them.
    Calls match defs by bare name, as ``static`` matches uses, and a def
    used as a value (a registry entry, ``partial``, a decorator outside
    ``TRANSPARENT_DECORATORS``) supplies all its parameters; annotations
    and ``isinstance`` are not values.  So the pass can miss a dead
    parameter but never lists a live one.  Its blind spots are a def
    reached only through a registry (``COST_MODELS``, the kernel and
    algorithm registries) and a def whose bare name something else loads
    as a value (a local variable ``stop`` hides ``QueryService.stop``):
    every parameter of such a def counts as supplied, so its options need
    reading by hand.  Exits 1 when it lists one that ``allowed_param``
    does not excuse.
``dynamic``
    Runs the traffic under a line tracer installed with ``sys.settrace``
    and ``threading.settrace`` *before* anything imports ``repro``, so the
    module bodies and every rank thread an ``SpmdSession`` starts are
    traced too: every ``repro`` subcommand at its defaults, the spine's
    five workloads at seed 0 (one set-up, one operation and its check
    each), and every bench the CI workflow runs.  Prints, per ``src/``
    file, the executable lines, those no run executed, and the functions
    no run called.
"""

from __future__ import annotations

import ast
import contextlib
import dis
import io
import os
import re
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Where a use counts as traffic; ``tests/`` is read only to label a row.
TRAFFIC_DIRS = ("src", "benchmarks", "examples")


# ----------------------------------------------------------------------
# static pass
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Definition:
    path: Path
    qualname: str
    first: int  # the first decorator's line, else the def line
    last: int
    decorators: Tuple[str, ...]

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def size(self) -> int:
        return self.last - self.first + 1


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def definitions(path: Path, tree: ast.Module) -> Iterator[Definition]:
    """Module-level and class-level defs and classes (a def nested in a
    function is that function's local)."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield Definition(
                    path,
                    prefix + node.name,
                    min([node.lineno] + [d.lineno for d in node.decorator_list]),
                    node.end_lineno,
                    tuple(_decorator_name(d) for d in node.decorator_list),
                )
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.If, ast.Try)):
                for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                    yield from walk(block, prefix)

    yield from walk(tree.body, "")


def uses(tree: ast.Module, reexports: bool) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` of every use of a name.  ``__all__`` lists export
    a name rather than use it, and so do an ``__init__`` module's
    (``reexports``) imports."""
    exported = {
        id(element)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign))
        and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        )
        for element in ast.walk(node.value)
    }
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.value.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            yield node.value, node.lineno


def allowed(d: Definition) -> Optional[str]:
    """Why a def no traffic names is still reached, or ``None``.  The
    allow-list: each entry is a way Python or the registry calls a def
    without naming it at the call site."""
    if d.name.startswith("__") and d.name.endswith("__"):
        return "dunder: the interpreter calls it"
    if d.name.startswith("visit_"):
        return "ast visitor method: NodeVisitor.visit dispatches on the node class"
    if "register_kernel" in d.decorators:
        return "registered kernel: dispatch reaches it by its registry name"
    return None


def _python_files(root: Path, dirs) -> Iterator[Path]:
    for top in dirs:
        if (root / top).is_dir():
            yield from sorted((root / top).rglob("*.py"))


def static_census(root: Path = ROOT) -> List[Tuple[Definition, bool]]:
    """``(definition, named by tests)`` for every ``src/`` def no traffic
    line names, in file order."""
    traffic: Dict[str, List[Tuple[Path, int]]] = defaultdict(list)
    for path in _python_files(root, TRAFFIC_DIRS):
        tree = ast.parse(path.read_text(), str(path))
        reexports = path.name == "__init__.py" and path.is_relative_to(root / "src")
        for name, line in uses(tree, reexports):
            traffic[name].append((path, line))
    tested: Set[str] = set()
    for path in _python_files(root, ("tests",)):
        tested.update(name for name, _ in uses(ast.parse(path.read_text()), False))
    found = []
    for path in _python_files(root, ("src",)):
        for d in definitions(path, ast.parse(path.read_text(), str(path))):
            if not any(
                p != d.path or not d.first <= line <= d.last
                for p, line in traffic.get(d.name, ())
            ):
                found.append((d, d.name in tested))
    return found


def print_static(found, root: Path = ROOT) -> int:
    """Print the static rows; the number not on the allow-list."""
    flagged = 0
    print(f"{'definition':<64} {'lines':>5}  named by")
    for d, tested in found:
        why = allowed(d)
        flagged += why is None
        where = f"{d.path.relative_to(root)}:{d.first} {d.qualname}"
        print(f"{where:<64} {d.size:>5}  {'tests' if tested else 'nothing'}"
              + (f"  (allowed: {why})" if why else ""))
    print(f"{len(found)} defs no traffic names, {flagged} not on the allow-list")
    return flagged


# ----------------------------------------------------------------------
# imports pass
# ----------------------------------------------------------------------
def _module_imports(body) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` of the imports in a module body, guarded
    ``try`` / ``if`` blocks included."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                yield from _module_imports(block)
            for handler in getattr(node, "handlers", []):
                yield from _module_imports(handler.body)


def _names_used(tree: ast.Module) -> Set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def unused_imports(root: Path = ROOT) -> List[Tuple[Path, int, str]]:
    """``(path, line, name)`` of every ``src/`` module-level import its
    module never names again, in file order."""
    found = []
    for path in _python_files(root, ("src",)):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = _names_used(tree)
        found.extend(
            (path, line, name)
            for name, line in _module_imports(tree.body)
            if name not in used
        )
    return found


def print_imports(found, root: Path = ROOT) -> int:
    for path, line, name in found:
        print(f"{path.relative_to(root)}:{line} {name}")
    print(f"{len(found)} unused module-level imports")
    return len(found)


# ----------------------------------------------------------------------
# params pass
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Parameter:
    path: Path
    owner: str  # the def's qualname, or the dataclass's for a field
    name: str
    line: int
    field: bool = False  # a dataclass field


@dataclass
class _Signature:
    """How calls reach one ``src/`` def: the names a call spells it by,
    its parameters in positional order and the keyword-only ones."""

    keys: Set[str]
    positional: List[Parameter]
    keyword_only: List[Parameter]
    listed: List[Parameter]  # those with a default, and the keyword-only
    dataclass: bool = False

    @property
    def params(self) -> List[Parameter]:
        return self.positional + self.keyword_only


#: Decorators that return the def itself or a wrapper called by its name,
#: so decorating does not hand the def to anything as a value.
TRANSPARENT_DECORATORS = {
    "property", "cached_property", "setter", "classmethod", "staticmethod",
    "lru_cache", "contextmanager", "rank_program",
}


def _function_signature(path, qualname, node, keys, method) -> _Signature:
    args = node.args
    positional = args.posonlyargs + args.args
    if method and positional and "staticmethod" not in map(_decorator_name, node.decorator_list):
        positional = positional[1:]  # self / cls
    with_default = {id(a) for a in positional[len(positional) - len(args.defaults):]}
    make = lambda a: Parameter(path, qualname, a.arg, a.lineno)  # noqa: E731
    pos = [make(a) for a in positional]
    kwonly = [make(a) for a in args.kwonlyargs]
    listed = [p for a, p in zip(positional, pos) if id(a) in with_default] + kwonly
    return _Signature(set(keys), pos, kwonly, listed)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return "dataclass" in map(_decorator_name, node.decorator_list)


def _dataclass_fields(path, node: ast.ClassDef) -> Tuple[List[Parameter], List[Parameter]]:
    """``(fields in order, those with a default)``; ``ClassVar`` and
    ``field(init=False)`` are not ``__init__`` parameters."""
    fields, defaulted = [], []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        if "ClassVar" in ast.dump(stmt.annotation):
            continue
        value = stmt.value
        if (
            isinstance(value, ast.Call)
            and _decorator_name(value) == "field"
            and any(k.arg == "init" and getattr(k.value, "value", True) is False
                    for k in value.keywords)
        ):
            continue
        p = Parameter(path, node.name, stmt.target.id, stmt.lineno, field=True)
        fields.append(p)
        if value is not None:
            defaulted.append(p)
    return fields, defaulted


def signatures(files: Dict[Path, ast.Module]) -> List[_Signature]:
    """One signature per ``src/`` def (nested ones included) and per
    dataclass.  A class's name reaches its ``__init__`` (``super().__init__``
    spells it ``__init__``), a dataclass's its fields, and a subclass with
    neither reaches its base's."""
    sigs: List[_Signature] = []
    classes: Dict[str, List[_Signature]] = defaultdict(list)  # name -> __init__ sigs
    bases: Dict[str, List[str]] = {}
    for path, tree in files.items():
        def walk(body, prefix, cls):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    keys = {node.name}
                    if cls is not None and node.name == "__init__":
                        keys.add(cls.name)
                    sig = _function_signature(path, prefix + node.name, node, keys, cls is not None)
                    sigs.append(sig)
                    if cls is not None and node.name == "__init__":
                        classes[cls.name].append(sig)
                    walk(node.body, f"{prefix}{node.name}.", None)
                elif isinstance(node, ast.ClassDef):
                    bases[node.name] = [_decorator_name(b) for b in node.bases]
                    if _is_dataclass(node) and not any(
                        isinstance(s, ast.FunctionDef) and s.name == "__init__" for s in node.body
                    ):
                        fields, defaulted = _dataclass_fields(path, node)
                        sig = _Signature({node.name}, fields, [], defaulted, dataclass=True)
                        sigs.append(sig)
                        classes[node.name].append(sig)
                    walk(node.body, f"{prefix}{node.name}.", node)
                else:
                    for block in ("body", "orelse", "finalbody", "handlers"):
                        walk(getattr(node, block, []), prefix, cls)
        walk(tree.body, "", None)
    # a subclass without its own __init__ is constructed through its base's
    for name, base_names in bases.items():
        if classes.get(name):
            continue
        todo = list(base_names)
        while todo:
            base = todo.pop()
            for sig in classes.get(base, ()):
                sig.keys.add(name)
            if not classes.get(base):
                todo.extend(bases.get(base, ()))
    return sigs


def _call_names(node: ast.Call, cls: Optional[ast.ClassDef]) -> List[str]:
    """The names a call reaches its callee by: ``cls(…)`` and
    ``super().__init__(…)`` inside a class are its own and its bases'."""
    func = node.func
    if isinstance(func, ast.Name):
        return [cls.name if func.id == "cls" and cls else func.id]
    if not isinstance(func, ast.Attribute):
        return []
    if (
        func.attr == "__init__"
        and cls is not None
        and isinstance(func.value, ast.Call)
        and _decorator_name(func.value) == "super"
    ):
        return [_decorator_name(b) for b in cls.bases]
    return [func.attr]


def _value_references(tree: ast.Module) -> Set[str]:
    """Names loaded as values: not called, not an annotation, not an
    ``isinstance`` / ``issubclass`` class, plus the defs a decorator outside
    ``TRANSPARENT_DECORATORS`` receives."""
    skip: Set[int] = set()
    refs: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            skip.add(id(node.func))
            if _decorator_name(node) in ("isinstance", "issubclass"):
                skip.update(id(a) for a in node.args[1:])
        elif isinstance(node, ast.arg) and node.annotation is not None:
            skip.update(id(n) for n in ast.walk(node.annotation))
        elif isinstance(node, ast.AnnAssign):
            skip.update(id(n) for n in ast.walk(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                skip.update(id(n) for n in ast.walk(node.returns))
            if any(_decorator_name(d) not in TRANSPARENT_DECORATORS
                   for d in node.decorator_list):
                refs.add(node.name)
        elif isinstance(node, ast.ClassDef):
            skip.update(id(b) for b in node.bases)
    for node in ast.walk(tree):
        if id(node) in skip or not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def supplied(files: Dict[Path, ast.Module], sigs: List[_Signature]) -> Set[Parameter]:
    """The parameters some call in ``files`` supplies: by keyword, by
    position, through ``*args`` / ``**kwargs`` or ``dataclasses.replace``,
    or all of a def's at once when it is used as a value."""
    by_key: Dict[str, List[_Signature]] = defaultdict(list)
    for sig in sigs:
        for key in sig.keys:
            by_key[key].append(sig)
    dataclasses = [s for s in sigs if s.dataclass]
    out: Set[Parameter] = set()
    for tree in files.values():
        for name in _value_references(tree):
            for sig in by_key.get(name, ()):
                out.update(sig.params)
        enclosing = {id(c): n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)
                     for c in ast.walk(n) if isinstance(c, ast.Call)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            names = _call_names(node, enclosing.get(id(node)))
            keywords = {k.arg for k in node.keywords}
            if "replace" in names:  # dataclasses.replace(obj, field=...)
                out.update(p for s in dataclasses for p in s.params if p.name in keywords)
            targets = [sig for name in names for sig in by_key.get(name, ())]
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            npos = len(node.args)
            for sig in targets:
                if None in keywords:
                    out.update(sig.params)
                    continue
                out.update(sig.positional if starred else sig.positional[:npos])
                out.update(p for p in sig.params if p.name in keywords)
    return out


#: Methods that change a container in place: ``obj.f.append(x)`` writes ``f``.
_MUTATORS = {"append", "extend", "add", "update", "setdefault", "insert"}


def written_attributes(files: Dict[Path, ast.Module]) -> Set[str]:
    """Attribute names some line writes through an instance: ``obj.f = …``,
    ``obj.f += …``, ``obj.f[k] = …`` or ``obj.f[k].append(…)``."""
    out: Set[str] = set()
    for tree in files.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                target = node
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                target = node.value
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
            ):
                target = node.func.value
            else:
                continue
            while isinstance(target, ast.Subscript):  # obj.f[i][j] = …
                target = target.value
            if isinstance(target, ast.Attribute):
                out.add(target.attr)
    return out


def allowed_param(p: Parameter, written: Set[str]) -> Optional[str]:
    """Why a parameter no traffic call supplies is still reached, or
    ``None``.  Each entry names how a caller supplies it; "a test needs
    another value" is not one."""
    if p.field and p.name in written:
        return f"record field: traffic writes obj.{p.name} after construction"
    return None


def params_census(root: Path = ROOT) -> List[Tuple[Parameter, bool, Optional[str]]]:
    """``(parameter, supplied by tests, allow-list reason)`` for every
    ``src/`` parameter with a default, and every keyword-only one, that no
    call in ``src/``, ``benchmarks/`` or ``examples/`` supplies, in file
    order."""
    parse = lambda dirs: {p: ast.parse(p.read_text(), str(p))  # noqa: E731
                          for p in _python_files(root, dirs)}
    traffic_files = parse(TRAFFIC_DIRS)
    sigs = signatures({p: t for p, t in traffic_files.items()
                       if p.is_relative_to(root / "src")})
    traffic = supplied(traffic_files, sigs)
    tested = supplied(parse(("tests",)), sigs)
    written = written_attributes(traffic_files)
    return [(p, p in tested, allowed_param(p, written))
            for sig in sigs for p in sig.listed if p not in traffic]


def print_params(found, root: Path = ROOT) -> int:
    """Print the params rows; the number not on the allow-list."""
    flagged = 0
    print(f"{'parameter':<72} supplied by")
    for p, tested, why in found:
        flagged += why is None
        where = f"{p.path.relative_to(root)}:{p.line} {p.owner}({p.name}=)"
        print(f"{where:<72} {'tests' if tested else 'nothing'}"
              + (f"  (allowed: {why})" if why else ""))
    print(f"{len(found)} parameters no traffic supplies, {flagged} not on the allow-list")
    return flagged


# ----------------------------------------------------------------------
# dynamic pass
# ----------------------------------------------------------------------
def _code_objects(code) -> Iterator:
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def executable(path: Path) -> Tuple[Set[int], Dict[Tuple[int, str], Set[int]]]:
    """The lines of ``path`` that start a statement, and per function
    ``(first line, name)`` its own lines (a function's first line runs in
    the scope that defines it, so it is not the function's)."""
    module = compile(path.read_text(), str(path), "exec")
    lines, functions = set(), {}
    for code in _code_objects(module):
        own = {line for _, line in dis.findlinestarts(code) if line}
        lines |= own
        if code is not module and not code.co_name.startswith("<"):
            functions[(code.co_firstlineno, code.co_name)] = own - {code.co_firstlineno}
    return lines, functions


class LineTracer:
    """Records the lines of files under ``root`` that execute, and the
    functions called there, in every thread started while it is on.

    ``threading.settrace`` only reaches threads started after it, so turn
    the tracer on before the first ``SpmdSession`` starts its workers:
    otherwise every rank program reads as never run."""

    def __init__(self, root: Path):
        self.root = os.path.join(os.path.realpath(root), "")
        self.lines: Dict[str, Set[int]] = defaultdict(set)
        self.called: Set[Tuple[str, int, str]] = set()
        self._files: Dict[object, Optional[str]] = {}

    def _on_call(self, frame, event, arg):
        code = frame.f_code
        try:
            filename = self._files[code]
        except KeyError:
            filename = os.path.realpath(code.co_filename)
            filename = self._files[code] = (
                filename if filename.startswith(self.root) else None
            )
        if filename is None:
            return None
        self.called.add((filename, code.co_firstlineno, code.co_name))
        lines = self.lines[filename]

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    def __enter__(self) -> "LineTracer":
        threading.settrace(self._on_call)
        sys.settrace(self._on_call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        threading.settrace(None)


@dataclass
class FileCensus:
    path: Path
    lines: int  # executable lines
    unexecuted: List[int]
    uncalled: List[Tuple[int, str, int]]  # (first line, name, own lines)


def dynamic_census(tracer: LineTracer, root: Path) -> List[FileCensus]:
    """Per file under ``root``: what ``tracer`` never saw run."""
    rows = []
    for path in sorted(Path(root).rglob("*.py")):
        real = os.path.realpath(path)
        lines, functions = executable(path)
        seen = tracer.lines.get(real, set())
        uncalled = [
            (first, name, len(own))
            for (first, name), own in sorted(functions.items())
            if (real, first, name) not in tracer.called
        ]
        rows.append(FileCensus(path, len(lines), sorted(lines - seen), uncalled))
    return rows


def _ranges(lines: List[int]) -> str:
    spans, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            spans.append(f"{start}" if start == line else f"{start}-{line}")
            start = None
    return ",".join(spans)


def print_dynamic(rows: List[FileCensus], root: Path) -> None:
    print("| file | lines | not executed | functions never called |")
    print("|---|---:|---:|---|")
    for r in rows:
        uncalled = ", ".join(f"`{name}` {n}" for _, name, n in r.uncalled)
        print(f"| `{r.path.relative_to(root)}` | {r.lines} | {len(r.unexecuted)} "
              f"| {uncalled} |")
    total = sum(r.lines for r in rows)
    dead = sum(len(r.unexecuted) for r in rows)
    print(f"| **total** | {total} | {dead} ({dead / max(total, 1):.1%}) | |")
    print("\nunexecuted line ranges per file:")
    for r in rows:
        if r.unexecuted:
            print(f"{r.path.relative_to(root)}: {_ranges(r.unexecuted)}")


#: Each subcommand at its defaults (``multiply`` .. ``model``).
CLI_RUNS = ("multiply", "bfs", "embed", "influence", "serve", "model")


def ci_benches(root: Path = ROOT) -> List[str]:
    """The bench files the CI workflow runs, in its order."""
    text = (root / ".github" / "workflows" / "ci.yml").read_text()
    return list(dict.fromkeys(re.findall(r"benchmarks/bench_\w+\.py", text)))


def run_traffic(root: Path = ROOT) -> None:
    """Every run the dynamic pass traces; imports ``repro`` itself."""
    from repro.cli import main as cli

    for command in CLI_RUNS:
        print(f"census: repro {command}", file=sys.stderr)
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli([command])
        if status != 0:
            raise RuntimeError(f"repro {command} exited {status}")

    from repro.core import TsConfig
    from spine.trace import Recorder
    from spine.workloads import OPERATION_WORKLOADS, ServeMixed

    rec = Recorder(enabled=False)
    for name, cls in OPERATION_WORKLOADS.items():
        print(f"census: spine {name}", file=sys.stderr)
        w = cls(0)
        w.setup(rec, TsConfig())
        try:
            problems = w.check(w.operate())
        finally:
            w.close()
        if problems:
            raise RuntimeError(f"spine {name}: {problems}")
    print("census: spine serve_mixed", file=sys.stderr)
    w = ServeMixed(0)
    w.setup(rec, TsConfig())
    try:
        problems = w.check(w.burst_queries, w.closed_loop(w.burst_queries, rec))
        sent, results, *_ = w.open_loop(w.queries(20, 4), rec)
        problems += w.check(sent, results)
    finally:
        w.close()
    if problems:
        raise RuntimeError(f"spine serve_mixed: {problems}")

    import pytest

    benches = ci_benches(root)
    print(f"census: {len(benches)} CI benches", file=sys.stderr)
    status = pytest.main([
        *(str(root / b) for b in benches),
        "-o", "python_files=bench_*.py", "-o", "python_functions=bench_*",
        "--benchmark-disable", "-q", "-p", "no:cacheprovider",
    ])
    if status != 0:
        # The tracer slows the traced code several-fold, so a wall-clock
        # gate may fail; the lines a bench ran before its assert still count.
        print(f"census: CI benches exited {status}; their lines still count",
              file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in (["static"], ["imports"], ["params"], ["dynamic"]):
        print("usage: python benchmarks/census.py static|imports|params|dynamic",
              file=sys.stderr)
        return 2
    if argv == ["static"]:
        return 1 if print_static(static_census()) else 0
    if argv == ["imports"]:
        return 1 if print_imports(unused_imports()) else 0
    if argv == ["params"]:
        return 1 if print_params(params_census()) else 0
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    with LineTracer(ROOT / "src") as tracer:
        run_traffic()
    print_dynamic(dynamic_census(tracer, ROOT / "src" / "repro"), ROOT)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
