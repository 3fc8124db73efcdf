"""reprolint — AST-based invariant checks for the repro codebase.

The pass enforces, statically, the invariants the test suite can only
catch dynamically: seeded randomness (RL001), a single wall-clock read
point (RL002), no set-iteration order leaks (RL003), env reads through
the flag registry (RL004/RL007/RL010), sim-vs-wall clock separation
(RL005), optional-numpy hygiene (RL006), store/service exception
discipline (RL009) and justified suppressions (RL011).

Run it with ``python -m repro.analysis.lint [paths...]``; see
``--list-rules`` for the registry and ``reprolint-baseline.json`` for
the (shrink-only) baseline ratchet.
"""

from __future__ import annotations

from repro.analysis.lint.baseline import (
    BaselineEntry,
    load_baseline,
    reconcile,
    write_baseline,
)
from repro.analysis.lint.cli import main
from repro.analysis.lint.engine import LintResult, discover_files, lint_file, run_lint
from repro.analysis.lint.model import Finding, Rule
from repro.analysis.lint.rules import ALL_RULES, RULES_BY_CODE

__all__ = [
    "ALL_RULES",
    "RULES_BY_CODE",
    "BaselineEntry",
    "Finding",
    "LintResult",
    "Rule",
    "discover_files",
    "lint_file",
    "load_baseline",
    "main",
    "reconcile",
    "run_lint",
    "write_baseline",
]
