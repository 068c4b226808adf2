"""The execution census (``benchmarks/census.py``) on a planted package:
the static pass reports a def only tests name, the imports pass an import
its module never names, the params pass a parameter no traffic call
supplies, and the dynamic pass counts a function that runs only inside
``run_spmd``'s rank threads as run.  The static, imports and params passes
also run on this tree: they are CI gates."""

import ast
import sys
import textwrap
from pathlib import Path

import pytest
from census import (
    ROOT,
    Definition,
    LineTracer,
    _ranges,
    allowed,
    ci_benches,
    definitions,
    dynamic_census,
    executable,
    main,
    params_census,
    print_imports,
    print_params,
    print_static,
    static_census,
    unused_imports,
)


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


def test_static_pass_reports_a_def_only_tests_name(tmp_path):
    _write(tmp_path / "src/pkg/__init__.py", """\
        from .mod import caller, planted, used

        __all__ = ["caller", "planted", "used"]
        """)
    _write(tmp_path / "src/pkg/mod.py", """\
        __all__ = ["Box", "caller", "planted", "used"]  # exports, not uses


        def used():
            return 1


        def planted():
            return planted  # its own body does not count


        def caller():
            return used()


        class Box:
            def __len__(self):
                return 0
        """)
    _write(tmp_path / "benchmarks/bench_pkg.py", """\
        from pkg import caller

        caller()
        """)
    _write(tmp_path / "tests/test_pkg.py", """\
        from pkg import Box, planted
        """)
    found = {d.qualname: (d, tested) for d, tested in static_census(tmp_path)}
    assert set(found) == {"planted", "Box", "Box.__len__"}
    planted, tested = found["planted"]
    assert tested and allowed(planted) is None
    assert (planted.first, planted.last) == (8, 9)
    assert allowed(found["Box.__len__"][0]) is not None


def test_dynamic_pass_traces_rank_threads(tmp_path, monkeypatch):
    _write(tmp_path / "src/census_probe_pkg/__init__.py", "")
    _write(tmp_path / "src/census_probe_pkg/mod.py", """\
        from repro.mpi import run_spmd


        def only_in_rank(comm):
            doubled = comm.rank * 2
            return doubled


        def never_called():
            return 1


        def drive():
            return run_spmd(2, only_in_rank).values
        """)
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    try:
        with LineTracer(tmp_path / "src") as tracer:
            from census_probe_pkg.mod import drive

            assert drive() == [0, 2]
    finally:
        sys.modules.pop("census_probe_pkg.mod", None)
        sys.modules.pop("census_probe_pkg", None)
    rows = {r.path.name: r for r in dynamic_census(tracer, tmp_path / "src/census_probe_pkg")}
    mod = rows["mod.py"]
    assert [name for _, name, _ in mod.uncalled] == ["never_called"]
    # the rank program's body ran (in the rank threads); only
    # never_called's body did not
    assert mod.unexecuted == [10]



@pytest.mark.parametrize(
    "qualname, decorators, excused",
    [
        ("Box.__len__", (), True),
        ("Checker.visit_Call", (), True),
        ("spgemm_spa", ("register_kernel",), True),
        ("helper", ("lru_cache",), False),
    ],
)
def test_allow_list_excuses_only_defs_reached_without_their_name(
    qualname, decorators, excused
):
    d = Definition(Path("mod.py"), qualname, 1, 2, decorators)
    assert (allowed(d) is not None) == excused


def test_string_constants_and_keywords_count_as_uses(tmp_path):
    # a registry lookup by name and a keyword argument reach a def
    # without an identifier naming it
    _write(tmp_path / "src/pkg/mod.py", """\
        def by_string():
            return 1


        def by_keyword():
            return 2


        def unnamed():
            return 3


        def lookup(name, **kw):
            return globals()[name]
        """)
    _write(tmp_path / "benchmarks/bench_pkg.py", """\
        from pkg.mod import lookup

        lookup("by_string", by_keyword=None)
        """)
    found = {d.qualname: tested for d, tested in static_census(tmp_path)}
    assert found == {"unnamed": False}


def test_definitions_walk_guarded_blocks_but_not_nested_functions(tmp_path):
    path = tmp_path / "mod.py"
    _write(path, """\
        try:
            def guarded():
                pass
        except ImportError:
            guarded = None


        def outer():
            def nested():
                pass
            return nested
        """)
    names = [d.qualname for d in definitions(path, ast.parse(path.read_text()))]
    assert names == ["guarded", "outer"]


def test_only_src_init_imports_are_exports(tmp_path):
    # an ``__init__`` outside src/ importing a def uses it
    _write(tmp_path / "src/pkg/__init__.py", "from .mod import kept, dropped\n")
    _write(tmp_path / "src/pkg/mod.py", """\
        def kept():
            pass


        def dropped():
            pass
        """)
    _write(tmp_path / "benchmarks/suite/__init__.py", "from pkg import kept\n")
    assert [d.qualname for d, _ in static_census(tmp_path)] == ["dropped"]


def test_unexecuted_lines_print_as_ranges():
    assert _ranges([1, 2, 3, 5, 7, 8]) == "1-3,5,7-8"
    assert _ranges([4]) == "4"
    assert _ranges([]) == ""


def test_print_static_counts_only_defs_off_the_allow_list(tmp_path, capsys):
    found = [
        (Definition(tmp_path / "m.py", "Box.__len__", 1, 2, ()), False),
        (Definition(tmp_path / "m.py", "planted", 4, 5, ()), True),
    ]
    assert print_static(found, tmp_path) == 1
    out = capsys.readouterr().out
    assert "m.py:4 planted" in out
    assert "2 defs no traffic names, 1 not on the allow-list" in out


def test_executable_gives_each_function_its_own_lines(tmp_path):
    path = tmp_path / "mod.py"
    _write(path, """\
        X = 1


        def f():
            a = 1
            return a


        class K:
            def g(self):
                return 2
        """)
    lines, functions = executable(path)
    # a class body is a code object too: it runs the ``def g`` line
    assert functions == {(4, "f"): {5, 6}, (9, "K"): {10}, (10, "g"): {11}}
    assert {1, 4, 5, 6, 9, 10, 11} <= lines


def test_ci_benches_are_read_from_the_workflow_once_each(tmp_path):
    _write(tmp_path / ".github/workflows/ci.yml", """\
        - run: python -m pytest benchmarks/bench_b.py
        - run: python -m pytest benchmarks/bench_a.py benchmarks/bench_b.py
        - run: python benchmarks/census.py static
        """)
    assert ci_benches(tmp_path) == ["benchmarks/bench_b.py", "benchmarks/bench_a.py"]


def test_imports_pass_reports_what_its_module_never_names(tmp_path, capsys):
    _write(tmp_path / "src/pkg/__init__.py", """\
        from .mod import used_by_name  # a re-export, never listed
        """)
    _write(tmp_path / "src/pkg/mod.py", """\
        from __future__ import annotations

        import os.path
        import numpy as np
        from typing import Dict, List, Optional
        from collections import OrderedDict as OD

        try:
            import json
        except ImportError:
            import pickle as json
            import marshal

        __all__ = ["used_by_name"]


        def used_by_name(x: "Dict[str, int]") -> Optional[int]:
            return os.path.join(np.__name__, json.dumps(x))
        """)
    found = unused_imports(tmp_path)
    assert [(line, name) for _, line, name in found] == [
        (5, "List"), (6, "OD"), (12, "marshal"),
    ]
    assert print_imports(found, tmp_path) == 3
    out = capsys.readouterr().out
    assert "src/pkg/mod.py:6 OD" in out and "3 unused module-level imports" in out


def test_params_pass_reports_what_no_traffic_call_supplies(tmp_path, capsys):
    _write(tmp_path / "src/pkg/__init__.py", "")
    _write(tmp_path / "src/pkg/mod.py", """\
        from dataclasses import dataclass, replace
        from functools import partial


        def by_keyword(x, *, scale=1.0, unused=None):
            return x


        def by_position(x, offset=0, width=4):
            return x


        class Base:
            def __init__(self, a, level=1):
                self.level = level


        class Child(Base):
            def __init__(self, a):
                super().__init__(a, 2)


        class Box:
            def __init__(self, size=1):
                self.size = size


        def typed(box: Box) -> Box:
            return isinstance(box, Box)


        @dataclass
        class Config:
            size: int
            depth: int = 3
            mode: str = "x"
            count: int = 0


        def stored(x, flag=False):
            return x


        def bound(x, factor=2):
            return x


        REGISTRY = {"stored": stored}
        DOUBLE = partial(bound)


        def caller():
            by_keyword(1, scale=2.0)
            by_position(1, 5)
            Child(1)
            cfg = replace(Config(1), depth=4)
            cfg.count += 1
            return cfg
        """)
    _write(tmp_path / "benchmarks/bench_pkg.py", """\
        from pkg.mod import caller

        caller()
        """)
    _write(tmp_path / "tests/test_pkg.py", """\
        from pkg.mod import Box, by_keyword

        by_keyword(1, unused=3)
        Box(size=2)
        """)
    found = params_census(tmp_path)
    rows = {(p.owner, p.name): (tested, why is None) for p, tested, why in found}
    assert rows == {
        ("by_keyword", "unused"): (True, True),
        ("by_position", "width"): (False, True),
        ("Box.__init__", "size"): (True, True),  # annotations and isinstance are not calls
        ("Config", "mode"): (False, True),
        ("Config", "count"): (False, False),  # record state, written after construction
    }
    assert print_params(found, tmp_path) == 4
    out = capsys.readouterr().out
    assert "src/pkg/mod.py:5 by_keyword(unused=)" in out
    assert "4 not on the allow-list" in out


#: route -> (a ``src/`` module defining ``f``, a traffic line that
#: reaches ``f``'s ``level`` only by that route).
SUPPLY_ROUTES = {
    "star-args": ("def f(x, level=1):\n    return x\n", "f(*[1, 2])"),
    "star-kwargs": ("def f(x, *, level=1):\n    return x\n", "f(1, **{'level': 2})"),
    "decorator": (
        "REG = {}\n\n\ndef register(fn):\n    REG[fn.__name__] = fn\n    return fn\n\n\n"
        "@register\ndef f(x, level=1):\n    return x\n",
        "REG['f'](1, 2)",
    ),
    "inherited-init": (
        "class Base:\n    def __init__(self, level=1):\n        self.level = level\n\n\n"
        "class f(Base):\n    pass\n",
        "f(level=2)",
    ),
    "cls-call": (
        "class f:\n    def __init__(self, level=1):\n        self.level = level\n\n"
        "    @classmethod\n    def deep(cls):\n        return cls(level=2)\n",
        "f.deep()",
    ),
}


@pytest.mark.parametrize("route", sorted(SUPPLY_ROUTES))
def test_params_pass_follows_each_supply_route(tmp_path, route):
    """Each route supplies ``level``; ``g(x, level=1)``, called plainly
    beside it, is the row the pass still reports."""
    module, call = SUPPLY_ROUTES[route]
    control = "\n\ndef g(x, level=1):\n    return x\n"
    _write(tmp_path / "src/pkg/__init__.py", "")
    _write(tmp_path / "src/pkg/mod.py", module + control)
    _write(tmp_path / "benchmarks/bench_pkg.py", f"from pkg.mod import *\n\n{call}\ng(1)\n")
    found = params_census(tmp_path)
    assert {(p.owner, p.name) for p, _, _ in found} == {("g", "level")}


@pytest.mark.parametrize("argv", [[], ["both"], ["static", "dynamic"]])
def test_main_refuses_an_unknown_pass(argv, capsys):
    assert main(argv) == 2
    assert "usage:" in capsys.readouterr().err


def test_this_tree_has_no_test_only_defs():
    flagged = [d for d, _ in static_census(ROOT) if allowed(d) is None]
    assert flagged == []


def test_this_tree_has_no_unused_imports():
    assert unused_imports(ROOT) == []


def test_this_tree_has_no_parameters_only_tests_supply():
    assert [p for p, _, why in params_census(ROOT) if why is None] == []
