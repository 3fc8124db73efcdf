#!/usr/bin/env python
"""CI bench-regression gate: diff fresh BENCH_*.json against baselines.

The benchmarks emit machine-readable results into ``BENCH_<name>.json``
at the repository root; the committed copies are the performance
baselines this repository's headline claims rest on.  This script
compares a fresh run's numbers against those baselines and fails the
build when a gated metric regresses beyond the tolerance.

Gated metrics (higher is better):

* ``service_scaling``: ``policies.pcr_reduction_batched`` and
  ``policies.pcr_reduction_cached`` — the batched / batched+cache PCR
  amortization over the unbatched baseline (simulation counts, exact
  under a fixed seed);
* ``decoding``: ``clustering_backend.speedup`` — the fused clustering
  kernels' speedup over the reference ones (``REPRO_FUSED_KERNELS=0``;
  wall-clock based, hence the tolerance);
* ``decoding``: ``parallel_engine.fused_speedup`` — the fused kernels'
  end-to-end inline readout-decode speedup over the reference kernels
  (``REPRO_FUSED_KERNELS=0``);
* ``qos_isolation``: ``isolation.p99_protection_factor`` — how much of
  the scanning aggressor's victim-p99 damage the QoS admission layer
  undoes (unprotected p99 over protected p99, simulation-exact under a
  fixed seed).

A metric present in the fresh run but absent from the committed baseline
(a newly added benchmark section) is reported informationally instead of
failing the gate; it becomes gated once the baseline is refreshed.

(The snapshot-compare setup speedup is asserted inside its own
benchmark rather than gated here: restores complete in microseconds, so
the ratio is too noisy for a cross-machine tolerance gate.)

Boolean invariants (must be true in both baseline and current):

* wetlab checksums match the reference path;
* the Section 8 block decodes correctly;
* the fused inline decode is byte-identical to the reference kernels
  and meets the >= 2x fused-speedup target;
* snapshot-compare byte parity with the rebuild path;
* QoS isolation: the protected victims' p99 stays bounded, the
  admission layer is byte-transparent (QoS off serves exactly the
  store's bytes; toggling QoS on changes timing only), and the shared
  lane pool's utilizations are true ratios in [0, 1].

Usage::

    python benchmarks/check_bench_regression.py \
        --baseline-dir /tmp/bench-baseline --current-dir . --tolerance 0.25

Exit status 0 when every gate passes, 1 on any regression or missing
metric.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: (file stem, dotted metric path) -> gated "higher is better" ratios.
GATED_METRICS = [
    ("service_scaling", "policies.pcr_reduction_batched"),
    ("service_scaling", "policies.pcr_reduction_cached"),
    ("decoding", "clustering_backend.speedup"),
    ("decoding", "parallel_engine.fused_speedup"),
    ("qos_isolation", "isolation.p99_protection_factor"),
]

#: (file stem, dotted metric path) -> must be true in the current run.
REQUIRED_TRUE = [
    ("service_scaling", "wetlab_smoke.checksum_matches_reference"),
    ("service_scaling", "mixed_pipeline.checksum_matches_reference"),
    ("service_scaling", "observability.traced_byte_identical"),
    ("decoding", "few_reads_decode.decoded_correctly"),
    ("decoding", "parallel_engine.byte_identical"),
    ("decoding", "parallel_engine.meets_speedup_target"),
    ("snapshot_compare", "policy_parity.policies_byte_identical"),
    ("snapshot_compare", "time_travel.historical_read_correct"),
    ("qos_isolation", "isolation.victim_p99_bounded"),
    ("qos_isolation", "isolation.qos_off_byte_identical"),
    ("qos_isolation", "isolation.qos_toggle_byte_identical"),
    ("qos_isolation", "lanes.utilization_within_bounds"),
]


#: Every stem the gate knows about (for the stray-artifact sweep).
KNOWN_STEMS = sorted({stem for stem, _ in GATED_METRICS + REQUIRED_TRUE})


def iter_result_files(directory: Path) -> list[Path]:
    """``BENCH_*.json`` result files directly inside ``directory``.

    Non-result artifacts are skipped explicitly — directories that
    happen to match the glob, hidden/editor files, and anything inside
    a bytecode cache — so a polluted checkout can't feed the gate.
    """
    files: list[Path] = []
    for path in sorted(directory.glob("BENCH_*.json")):
        if not path.is_file() or path.name.startswith("."):
            continue
        if "__pycache__" in path.parts:
            continue
        files.append(path)
    return files


def load(directory: Path, stem: str) -> dict | None:
    path = directory / f"BENCH_{stem}.json"
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        print(f"ERROR: {path} is not valid JSON: {exc}")
        return None


def lookup(document: dict, dotted: str):
    node = document
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        required=True,
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--current-dir",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="directory holding the freshly emitted BENCH_*.json files "
        "(default: the repository root)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression before failing (default 0.25)",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    rows: list[str] = []

    for directory in (args.baseline_dir, args.current_dir):
        for path in iter_result_files(directory):
            stem = path.stem.removeprefix("BENCH_")
            if stem not in KNOWN_STEMS:
                rows.append(
                    f"  {path.name}: not a gated result file -> ignored "
                    "(add it to GATED_METRICS/REQUIRED_TRUE to gate it)"
                )

    for stem, metric in GATED_METRICS:
        baseline_doc = load(args.baseline_dir, stem)
        current_doc = load(args.current_dir, stem)
        if baseline_doc is None:
            failures.append(f"missing baseline BENCH_{stem}.json")
            continue
        if current_doc is None:
            failures.append(f"missing current BENCH_{stem}.json (did the bench run?)")
            continue
        baseline = lookup(baseline_doc, metric)
        current = lookup(current_doc, metric)
        if not isinstance(baseline, (int, float)):
            if isinstance(current, (int, float)):
                # A fresh run can emit sections the committed baseline
                # predates (a newly added benchmark).  That is information,
                # not a regression: the metric becomes gated once the
                # baseline is refreshed to include it.
                rows.append(
                    f"  {stem}:{metric}: current {current:.3f}, no baseline "
                    "-> informational (new metric)"
                )
                continue
            failures.append(f"{stem}:{metric} missing from the baseline")
            continue
        if not isinstance(current, (int, float)):
            failures.append(f"{stem}:{metric} missing from the current run")
            continue
        floor = baseline * (1.0 - args.tolerance)
        status = "ok" if current >= floor else "REGRESSION"
        rows.append(
            f"  {stem}:{metric}: baseline {baseline:.3f}, current "
            f"{current:.3f}, floor {floor:.3f} -> {status}"
        )
        if current < floor:
            failures.append(
                f"{stem}:{metric} regressed: {current:.3f} < {floor:.3f} "
                f"(baseline {baseline:.3f}, tolerance {args.tolerance:.0%})"
            )

    for stem, metric in REQUIRED_TRUE:
        current_doc = load(args.current_dir, stem)
        if current_doc is None:
            failures.append(f"missing current BENCH_{stem}.json (did the bench run?)")
            continue
        value = lookup(current_doc, metric)
        if value is None:
            # Sections are emitted per test; a section absent from both
            # baseline and current (e.g. a numpy-only smoke on a no-numpy
            # runner) is tolerated as long as the baseline lacks it too.
            baseline_doc = load(args.baseline_dir, stem) or {}
            if lookup(baseline_doc, metric) is None:
                rows.append(f"  {stem}:{metric}: absent (not run) -> skipped")
                continue
            failures.append(f"{stem}:{metric} missing from the current run")
            continue
        status = "ok" if value is True else "VIOLATION"
        rows.append(f"  {stem}:{metric}: {value} -> {status}")
        if value is not True:
            failures.append(f"{stem}:{metric} must be true, got {value!r}")

    print("Bench regression gate")
    print(f"  baseline: {args.baseline_dir}")
    print(f"  current:  {args.current_dir}")
    print(f"  tolerance: {args.tolerance:.0%}")
    for row in rows:
        print(row)
    if failures:
        print("FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("All bench gates passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
