"""Repo-resident classification of the test suite's numpy dependence.

CI runs the suite twice: once in the full environment and once with
numpy uninstalled, proving the pure-Python serving/store/codec layers
really are dependency-free.  The no-numpy job used to hand-maintain its
file list inside ``.github/workflows/ci.yml``; this module is now the
single source of truth — CI derives the list with::

    python tests/manifest.py --numpy-free

and a ``--check`` step fails the build when a ``tests/test_*.py`` file
exists that neither tuple classifies (so a new test file cannot silently
skip the no-numpy job).  ``tests/test_manifest.py`` meta-tests the same
invariants locally.

Classification rule: a file belongs in :data:`NEEDS_NUMPY` only when it
(or a module it imports) imports numpy unconditionally — the wetlab
simulators (synthesis/PCR/sequencing) and the analysis package.  Files
that merely *gate* numpy-dependent cases behind ``importorskip`` stay
numpy-free: the gated tests skip cleanly in the no-numpy job.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

#: Test files that must pass with numpy absent (the pure-Python surface).
NUMPY_FREE: tuple[str, ...] = (
    "test_address_space.py",
    "test_addressing.py",
    "test_bench_regression_gate.py",
    "test_binary_codec.py",
    "test_capacity.py",
    "test_codec_backends.py",
    "test_constrained.py",
    "test_distance_backends.py",
    "test_elongation.py",
    "test_envflags.py",
    "test_galois.py",
    "test_index_tree.py",
    "test_manifest.py",
    "test_matrix_unit.py",
    "test_molecule.py",
    "test_observability.py",
    "test_partition.py",
    "test_pool_manager.py",
    "test_prefix_cover.py",
    "test_primers.py",
    "test_qos_admission_diff.py",
    "test_randomizer.py",
    "test_reed_solomon.py",
    "test_reprolint.py",
    "test_sequence.py",
    "test_service_barrier.py",
    "test_service_cache.py",
    "test_service_memory.py",
    "test_service_pipeline.py",
    "test_service_qos.py",
    "test_service_run_golden.py",
    "test_service_scheduler.py",
    "test_service_simulator.py",
    "test_service_time_travel.py",
    "test_store.py",
    "test_store_snapshots.py",
    "test_updates.py",
    "test_workloads.py",
)

#: Test files that import numpy-backed modules unconditionally.
NEEDS_NUMPY: tuple[str, ...] = (
    "test_analysis.py",
    "test_consensus_backends.py",
    "test_decoder.py",
    "test_integration_alice.py",
    "test_pcr.py",
    "test_pipeline_reads_clustering.py",
    "test_sequencing_mixing.py",
    "test_service_wetlab.py",
    "test_store_wetlab_roundtrip.py",
    "test_wetlab_errors.py",
    "test_wetlab_pool.py",
    "test_wetlab_read_path_diff.py",
)

#: Directory holding the suite (and this manifest).
TESTS_DIR = Path(__file__).resolve().parent


def discovered() -> tuple[str, ...]:
    """Every ``test_*.py`` file actually present, sorted by name."""
    return tuple(sorted(path.name for path in TESTS_DIR.glob("test_*.py")))


def unclassified() -> tuple[str, ...]:
    """Present test files that neither tuple classifies."""
    known = set(NUMPY_FREE) | set(NEEDS_NUMPY)
    return tuple(name for name in discovered() if name not in known)


def stale() -> tuple[str, ...]:
    """Classified names with no corresponding file on disk."""
    present = set(discovered())
    return tuple(
        name
        for name in sorted(set(NUMPY_FREE) | set(NEEDS_NUMPY))
        if name not in present
    )


def paths(names: tuple[str, ...]) -> list[str]:
    """Repo-relative ``tests/...`` paths for a tuple of file names."""
    return [f"tests/{name}" for name in names]


def check() -> list[str]:
    """Every manifest problem, as human-readable messages (empty = clean)."""
    problems = []
    overlap = sorted(set(NUMPY_FREE) & set(NEEDS_NUMPY))
    if overlap:
        problems.append(f"classified in both tuples: {', '.join(overlap)}")
    missing = unclassified()
    if missing:
        problems.append(
            "unclassified test files (add to NUMPY_FREE or NEEDS_NUMPY "
            f"in tests/manifest.py): {', '.join(missing)}"
        )
    gone = stale()
    if gone:
        problems.append(f"classified but not on disk: {', '.join(gone)}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Test-suite numpy classification (CI derives its "
        "no-numpy file list from this manifest)."
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--numpy-free",
        action="store_true",
        help="print the numpy-free test paths, space-separated",
    )
    group.add_argument(
        "--needs-numpy",
        action="store_true",
        help="print the numpy-requiring test paths, space-separated",
    )
    group.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if any test file is unclassified, stale, "
        "or classified twice",
    )
    options = parser.parse_args(argv)
    if options.check:
        problems = check()
        for problem in problems:
            print(f"manifest: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(
            f"manifest: ok ({len(NUMPY_FREE)} numpy-free, "
            f"{len(NEEDS_NUMPY)} needing numpy)"
        )
        return 0
    names = NUMPY_FREE if options.numpy_free else NEEDS_NUMPY
    print(" ".join(paths(names)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
