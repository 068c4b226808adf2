"""Tier-1 tests of the ``spmdlint`` static checker (S3, S4, S5, S7, S13).

Each rule has a pair of fixtures under ``tests/analysis/fixtures/``:
``sN_buggy.py`` carries ``# EXPECT: <rule>`` markers on every line the
linter must flag (rule id *and* line number are asserted, nothing
else may fire), and ``sN_clean.py`` is the minimal fix, asserted
silent under the full rule set.
"""

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import RULES_BY_ID, collect_findings, lint_source, main
from repro.analysis.lint.checker import index_module, iter_python_files

FIXTURES = Path(__file__).parent / "fixtures"
REPO_SRC = Path(__file__).resolve().parents[2] / "src"

RULE_IDS = sorted(RULES_BY_ID)


def _expected_markers(source):
    """(rule, lineno) pairs declared via ``# EXPECT: S3[, S4]`` comments."""
    out = []
    for lineno, line in enumerate(source.splitlines(), 1):
        match = re.search(r"#\s*EXPECT:\s*([A-Z0-9, ]+)$", line)
        if match:
            for rule in match.group(1).split(","):
                out.append((rule.strip(), lineno))
    return sorted(out)


def _lint_fixture(name):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return source, lint_source(name, source)


# ----------------------------------------------------------------------
# fixture pairs: exact rule ids + line numbers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule", RULE_IDS)
def test_buggy_fixture_fires_exact_rule_and_lines(rule):
    source, findings = _lint_fixture(f"{rule.lower()}_buggy.py")
    expected = _expected_markers(source)
    assert expected, "fixture must declare EXPECT markers"
    assert sorted((f.rule, f.line) for f in findings) == expected
    # No *other* rule may fire on the fixture.
    assert {f.rule for f in findings} == {rule}


@pytest.mark.parametrize("rule", RULE_IDS)
def test_clean_twin_is_silent(rule):
    _, findings = _lint_fixture(f"{rule.lower()}_clean.py")
    assert findings == []


def test_findings_carry_location_and_function():
    _, findings = _lint_fixture("s4_buggy.py")
    by_func = {f.qualname: f for f in findings}
    assert set(by_func) == {"_merge", "program", "multiply._payload"}
    root = by_func["program"]
    assert "comm.phase" in root.message
    assert root.render() == (
        f"s4_buggy.py:{root.line}:{root.col}: S4 [program] {root.message}"
    )


def test_render_emits_clickable_path_line_col():
    for rule in RULE_IDS:
        name = f"{rule.lower()}_buggy.py"
        _, findings = _lint_fixture(name)
        assert findings
        for f in findings:
            assert re.match(
                rf"^{re.escape(name)}:{f.line}:{f.col}: {rule} \[", f.render()
            )


# ----------------------------------------------------------------------
# S4 through closures that use the enclosing rank program's comm
# ----------------------------------------------------------------------
CLOSURE_SHAPES = {
    # a closure inside a closure, entered unphased from the root
    "two-deep": """
        from repro.mpi import rank_program


        @rank_program
        def multiply(A):
            comm = A.comm

            def _outer(n):
                def _inner(k):
                    comm.charge_spmm(k)  # EXPECT: S4
                _inner(n)

            _outer(4)
            with comm.phase("sync"):
                return comm.allreduce(1)
        """,
    # the same chain entered under a phase is covered by it
    "two-deep-phased": """
        from repro.mpi import rank_program


        @rank_program
        def multiply(A):
            comm = A.comm

            def _outer(n):
                def _inner(k):
                    comm.charge_spmm(k)
                _inner(n)

            with comm.phase("local"):
                _outer(4)
            with comm.phase("sync"):
                return comm.allreduce(1)
        """,
    # the closure hands the enclosing comm to a module helper that books
    "through-helper": """
        from repro.mpi import rank_program


        def _merge(comm, payload):
            comm.charge_touch(len(payload))  # EXPECT: S4


        @rank_program
        def multiply(A):
            comm = A.comm

            def _flush(buf):
                _merge(comm, buf)

            _flush(b"xx")
            with comm.phase("sync"):
                return comm.allreduce(1)
        """,
    # the inherited frame is per-rank, a module global is still shared:
    # the rank-indexed slot (taint inherited) and the enclosing dict are
    # fine, the global dict is a race
    "inherited-frame": """
        from repro.mpi import rank_program

        CACHE = {}
        RESULTS = [None] * 4


        @rank_program
        def multiply(A):
            comm = A.comm
            rank = comm.rank
            local = {"n": 0}

            def _record(n):
                local["n"] += n
                RESULTS[rank] = n
                CACHE["last"] = n  # EXPECT: S3
                with comm.phase("record"):
                    comm.charge_touch(n)

            with comm.phase("sync"):
                _record(4)
                return comm.allreduce(1)
        """,
}


@pytest.mark.parametrize("shape", sorted(CLOSURE_SHAPES))
def test_closure_shapes_fire_exactly_where_marked(shape):
    source = textwrap.dedent(CLOSURE_SHAPES[shape])
    findings = lint_source(f"{shape}.py", source)
    assert sorted((f.rule, f.line) for f in findings) == _expected_markers(source)


def test_spmm_remote_closure_is_seen_without_its_suppression():
    """The unphased ``charge_spmm`` in ``spmm_multiply``'s REMOTE payload
    closure (a codec hook the engine calls, so no analyzed call site
    covers it) is a real S4 finding; only its in-line suppression keeps
    ``src/`` clean."""
    path = REPO_SRC / "repro" / "core" / "spmm.py"
    lines = path.read_text(encoding="utf-8").splitlines()
    directives = [i for i, line in enumerate(lines) if "spmdlint: disable=S4" in line]
    assert len(directives) == 1
    stripped = list(lines)
    stripped[directives[0]] = ""  # keep the line numbers
    findings = lint_source("spmm.py", "\n".join(stripped), [RULES_BY_ID["S4"]])
    assert [(f.qualname, f.line) for f in findings] == [
        ("spmm_multiply.remote", directives[0] + 2)
    ]
    assert "charge_spmm" in findings[0].message


# ----------------------------------------------------------------------
# discovery + suppression mechanics
# ----------------------------------------------------------------------
def test_decorated_function_is_a_rank_program():
    source = textwrap.dedent(
        """
        from repro.mpi import rank_program


        @rank_program
        def worker(c):
            c.charge_touch(16)
        """
    )
    findings = lint_source("deco.py", source)
    assert [(f.rule, f.qualname) for f in findings] == [("S4", "worker")]


def test_methods_are_not_rank_programs():
    source = textwrap.dedent(
        """
        class Driver:
            def step(self, comm):
                comm.charge_touch(16)
        """
    )
    assert lint_source("method.py", source) == []


def test_inline_suppression_on_flagged_line():
    source = textwrap.dedent(
        """
        def program(comm):
            comm.charge_touch(16)  # spmdlint: disable=S4 -- test: caller phases this
            with comm.phase("sync"):
                return comm.allreduce(1)
        """
    )
    assert lint_source("supp.py", source) == []


def test_suppression_on_def_line_covers_the_function():
    source = textwrap.dedent(
        """
        def program(comm):  # spmdlint: disable=all -- test: demo function
            comm.charge_touch(16)
            comm.allreduce(1)
        """
    )
    assert lint_source("supp_def.py", source) == []


def test_suppression_is_rule_specific():
    source = textwrap.dedent(
        """
        def program(comm):
            comm.charge_touch(16)  # spmdlint: disable=S3 -- test: wrong rule on purpose
            with comm.phase("sync"):
                return comm.allreduce(1)
        """
    )
    assert [f.rule for f in lint_source("supp_other.py", source)] == ["S4"]


# ----------------------------------------------------------------------
# CLI: select / exit codes / formats
# ----------------------------------------------------------------------
def test_repo_src_is_lint_clean():
    assert REPO_SRC.is_dir()
    findings = collect_findings([str(REPO_SRC)])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_src_carries_exactly_one_suppression():
    """Ratchet: the S4 charge in ``core/spmm.py`` is the only silenced
    finding in ``src/``; a new suppression has to be added here too."""
    found = []
    for filename in iter_python_files([str(REPO_SRC)]):
        module = index_module(filename, Path(filename).read_text(encoding="utf-8"))
        for line, rules in module.suppressions.items():
            rel = Path(filename).relative_to(REPO_SRC).as_posix()
            found.append((rel, rules, module.rationales.get(line, "")))
    assert [(path, rules) for path, rules, _ in found] == [
        ("repro/core/spmm.py", {"S4"})
    ]
    assert "report_golden.json" in found[0][2]

def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "prog.py"
    bad.write_text(
        "def program(comm):\n    comm.charge_touch(4)\n", encoding="utf-8"
    )
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "S4" in out and "prog.py:2" in out
    # Selecting a rule that does not fire: clean exit.
    assert main([str(bad), "--select", "S3"]) == 0
    capsys.readouterr()


def test_cli_select_rejects_unknown_rule(tmp_path, capsys):
    target = tmp_path / "empty.py"
    target.write_text("x = 1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main([str(target), "--select", "S99"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_json_format(tmp_path, capsys):
    target = tmp_path / "prog.py"
    target.write_text(
        "def program(comm):\n    comm.charge_touch(4)\n", encoding="utf-8"
    )
    assert main([str(target), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rule"] == "S4"
    assert payload[0]["line"] == 2
    assert payload[0]["function"] == "program"
    assert set(payload[0]) == {"rule", "path", "line", "col", "function", "message"}


def test_cli_exit_code_contract(tmp_path, capsys):
    """0 — clean; 1 — findings; 2 — usage error (docs/spmdlint.md)."""
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "def program(comm):\n    comm.charge_touch(4)\n", encoding="utf-8"
    )
    assert main([str(clean)]) == 0
    assert main([str(dirty)]) == 1
    with pytest.raises(SystemExit) as exc:
        main([str(clean), "--select", "NOPE"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_select_rejects_retired_rules(tmp_path, capsys):
    """A config still selecting a rule whose class moved to the runtime
    layer fails loudly instead of linting nothing."""
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n", encoding="utf-8")
    for retired in ("S1", "S2", "S6", "S8", "S9", "S10", "S11", "S12", "S14"):
        with pytest.raises(SystemExit) as exc:
            main([str(target), "--select", f"S4,{retired}"])
        assert exc.value.code == 2
        assert f"unknown rule '{retired}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--baseline", "base.json"], ["--write-baseline"]],
    ids=["baseline", "write-baseline"],
)
def test_cli_baseline_flags_are_gone(tmp_path, capsys, flags):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main([str(target), *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_text_summary_names_the_rule_set(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n", encoding="utf-8")
    assert main([str(target)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "spmdlint: 0 finding(s) [rules S3,S4,S5,S7,S13]"
    )
    assert main([str(target), "--select", "S7,S4"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "spmdlint: 0 finding(s) [rules S7,S4]"
    )


# ----------------------------------------------------------------------
# suppression rationale (S13) mechanics
# ----------------------------------------------------------------------
def test_bare_suppression_is_a_finding():
    source = textwrap.dedent(
        """
        def program(comm):
            comm.charge_touch(16)  # spmdlint: disable=S4
        """
    )
    findings = lint_source("bare.py", source)
    assert [f.rule for f in findings] == ["S13"]
    assert "rationale" in findings[0].message


def test_s13_bypasses_suppression():
    # not even `disable=all` silences the demand for a rationale
    source = textwrap.dedent(
        """
        def program(comm):  # spmdlint: disable=all
            comm.charge_touch(16)
        """
    )
    assert [f.rule for f in lint_source("all.py", source)] == ["S13"]


def test_rationale_satisfies_s13():
    source = textwrap.dedent(
        """
        def program(comm):
            comm.charge_touch(16)  # spmdlint: disable=S4 -- caller phases this
        """
    )
    assert lint_source("ok.py", source) == []


def test_standalone_directive_covers_the_next_line():
    source = textwrap.dedent(
        """
        def program(comm):
            # spmdlint: disable=S4 -- caller phases this
            comm.charge_touch(16)
        """
    )
    assert lint_source("above.py", source) == []
