"""Command-line interface for reprolint.

Usage::

    PYTHONPATH=src python -m repro.analysis.lint src benchmarks tests
    python -m repro.analysis.lint --format json src
    python -m repro.analysis.lint --list-rules
    python -m repro.analysis.lint --write-env-docs
    python -m repro.analysis.lint --write-baseline src benchmarks tests

Exit status is 0 when there are no new findings and no stale baseline
entries, 1 otherwise, and 2 for usage/configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro import envflags
from repro.analysis.lint.baseline import write_baseline
from repro.analysis.lint.engine import run_lint
from repro.analysis.lint.reporting import render_human, render_json
from repro.analysis.lint.rules import ALL_RULES
from repro.exceptions import LintError

DEFAULT_PATHS = ("src", "benchmarks", "tests")
DEFAULT_BASELINE = "reprolint-baseline.json"
DEFAULT_ENV_DOCS = "docs/ENV_FLAGS.md"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description=(
            "reprolint: AST-based invariant checker for determinism, clock "
            "discipline, optional-numpy hygiene, env-flag registration "
            "and exception discipline."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path.cwd(),
        help="repository root; relative paths and reports resolve against it",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline ratchet file (default: <root>/{DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--env-docs",
        type=Path,
        default=None,
        help=f"generated env-flag docs checked by RL010 "
        f"(default: <root>/{DEFAULT_ENV_DOCS})",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline and exit",
    )
    parser.add_argument(
        "--write-env-docs",
        action="store_true",
        help="regenerate the env-flag docs from repro.envflags and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    return parser


def list_rules() -> str:
    rows: list[str] = []
    for rule in ALL_RULES:
        scope = ", ".join(rule.scopes) if rule.scopes else "all files"
        if rule.project_level:
            scope = "project"
        rows.append(f"{rule.code}  {rule.name:<24} [{rule.severity}, {scope}]")
        rows.append(f"       {rule.description}")
    return "\n".join(rows)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    root: Path = args.root
    baseline: Path = args.baseline or root / DEFAULT_BASELINE
    env_docs: Path = args.env_docs or root / DEFAULT_ENV_DOCS

    if args.list_rules:
        print(list_rules())
        return 0

    if args.write_env_docs:
        env_docs.parent.mkdir(parents=True, exist_ok=True)
        env_docs.write_text(envflags.render_markdown(), encoding="utf-8")
        print(f"wrote {env_docs}")
        return 0

    paths = [Path(p) for p in args.paths]
    try:
        if args.write_baseline:
            result = run_lint(
                paths, root=root, baseline_path=None, env_docs=env_docs
            )
            write_baseline(baseline, result.findings)
            print(f"wrote {baseline} with {len(result.findings)} finding(s)")
            return 0
        result = run_lint(
            paths, root=root, baseline_path=baseline, env_docs=env_docs
        )
    except LintError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_human(result))
    return 0 if result.ok else 1


__all__ = ["build_parser", "list_rules", "main"]
