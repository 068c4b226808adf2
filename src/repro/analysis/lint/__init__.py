"""``spmdlint`` — static checker for rank programs.

Two entry points:

* ``python -m repro.analysis.lint src/`` (or the ``spmdlint`` console
  script) — lint a tree, exit 1 on findings;
* :func:`lint_source` / :func:`collect_findings` — the library API used
  by the tests.

The rule catalogue (S3, S4, S5, S7, S13) lives in
:mod:`repro.analysis.lint.rules` and is documented in
``docs/spmdlint.md``: shared-state races, unphased charges,
nondeterminism sources and checkpoint-bypassing writes, plus the
suppression-rationale check.  Collective-consistency defects (mismatched
or missing collectives, unmatched sends, hard-coded world sizes) are
raised at run time by the SimComm sanitizer (``REPRO_SANITIZE=1``,
:mod:`repro.mpi.sanitize`), the watchdog and the communicator's own
argument checks; the two are the layers of the SPMD correctness tooling.
"""

from .checker import Finding, lint_source
from .cli import collect_findings, main
from .rules import ALL_RULES, RULES_BY_ID, Rule

__all__ = [
    "ALL_RULES",
    "Finding",
    "RULES_BY_ID",
    "Rule",
    "collect_findings",
    "lint_source",
    "main",
]
