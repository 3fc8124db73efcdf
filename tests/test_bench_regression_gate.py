"""Tests for the CI bench-regression gate.

``benchmarks/check_bench_regression.py`` diffs fresh ``BENCH_*.json``
results against the committed baselines: each gated ratio may fall at
most ``--tolerance`` below its baseline, and each boolean invariant must
be true in the fresh run.  The committed result files pass against
themselves; every test below breaks one thing in a copy of them and
checks that the gate (and only that gate) trips.

Every value a test breaks must already exist in the committed files, so
a gate whose dotted path matches nothing the benchmarks emit fails here
instead of being skipped silently in CI.
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_gate():
    path = REPO_ROOT / "benchmarks" / "check_bench_regression.py"
    spec = importlib.util.spec_from_file_location("check_bench_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()

GATED = [f"{stem}:{metric}" for stem, metric in gate.GATED_METRICS]
REQUIRED = [f"{stem}:{metric}" for stem, metric in gate.REQUIRED_TRUE]


def _copy_results(directory: Path) -> Path:
    directory.mkdir()
    for stem in gate.KNOWN_STEMS:
        name = f"BENCH_{stem}.json"
        shutil.copyfile(REPO_ROOT / name, directory / name)
    return directory


@pytest.fixture
def dirs(tmp_path):
    """Baseline and current directories, each a copy of the committed results."""
    return _copy_results(tmp_path / "baseline"), _copy_results(tmp_path / "current")


def _edit(directory: Path, key: str, value=None, *, delete: bool = False):
    """Set (or delete) an existing ``stem:dotted.metric`` value in place."""
    stem, dotted = key.split(":")
    path = directory / f"BENCH_{stem}.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    *parents, leaf = dotted.split(".")
    node = document
    for part in parents:
        node = node[part]
    assert leaf in node, f"{key} is not in the committed results"
    old = node[leaf]
    if delete:
        del node[leaf]
    else:
        node[leaf] = value
    path.write_text(json.dumps(document), encoding="utf-8")
    return old


def _run(dirs, capsys, *extra: str) -> tuple[int, str]:
    baseline, current = dirs
    status = gate.main(
        ["--baseline-dir", str(baseline), "--current-dir", str(current), *extra]
    )
    return status, capsys.readouterr().out


def _failures(out: str) -> list[str]:
    """The ``FAILED:`` bullet lines of the gate's report."""
    _, _, tail = out.partition("FAILED:\n")
    return [line.strip()[2:] for line in tail.splitlines() if line.strip()]


def test_committed_results_pass_against_themselves(capsys):
    status = gate.main(
        ["--baseline-dir", str(REPO_ROOT), "--current-dir", str(REPO_ROOT)]
    )
    out = capsys.readouterr().out
    assert status == 0, out
    assert "All bench gates passed." in out
    assert "REGRESSION" not in out and "VIOLATION" not in out


@pytest.mark.parametrize("key", GATED)
def test_a_gated_ratio_at_its_floor_passes(dirs, capsys, key):
    baseline, current = dirs
    value = _edit(baseline, key, 8.0)
    assert isinstance(value, (int, float))
    _edit(current, key, 8.0 * (1.0 - 0.25))
    status, out = _run(dirs, capsys)
    assert status == 0, out
    assert f"{key}: baseline 8.000, current 6.000, floor 6.000 -> ok" in out


@pytest.mark.parametrize("key", GATED)
def test_a_gated_ratio_below_its_floor_fails(dirs, capsys, key):
    baseline, current = dirs
    _edit(baseline, key, 8.0)
    _edit(current, key, 5.99)
    status, out = _run(dirs, capsys)
    assert status == 1
    assert _failures(out) == [
        f"{key} regressed: 5.990 < 6.000 (baseline 8.000, tolerance 25%)"
    ]


def test_tolerance_sets_the_floor(dirs, capsys):
    baseline, current = dirs
    key = GATED[0]
    _edit(baseline, key, 10.0)
    _edit(current, key, 6.0)
    assert _run(dirs, capsys)[0] == 1
    status, out = _run(dirs, capsys, "--tolerance", "0.5")
    assert status == 0, out
    assert "tolerance: 50%" in out


@pytest.mark.parametrize("key", REQUIRED)
def test_a_false_invariant_fails(dirs, capsys, key):
    _, current = dirs
    assert _edit(current, key, False) is True
    status, out = _run(dirs, capsys)
    assert status == 1
    assert _failures(out) == [f"{key} must be true, got False"]
    assert f"{key}: False -> VIOLATION" in out


def test_an_invariant_absent_from_both_runs_is_skipped(dirs, capsys):
    # A numpy-only section is absent from both runs on a no-numpy runner.
    baseline, current = dirs
    key = "service_scaling:wetlab_smoke.checksum_matches_reference"
    _edit(baseline, key, delete=True)
    _edit(current, key, delete=True)
    status, out = _run(dirs, capsys)
    assert status == 0, out
    assert f"{key}: absent (not run) -> skipped" in out


def test_an_invariant_absent_only_from_the_current_run_fails(dirs, capsys):
    _, current = dirs
    key = "decoding:parallel_engine.byte_identical"
    _edit(current, key, delete=True)
    status, out = _run(dirs, capsys)
    assert status == 1
    assert _failures(out) == [f"{key} missing from the current run"]


def test_a_gated_ratio_new_to_the_current_run_is_informational(dirs, capsys):
    baseline, _ = dirs
    key = "decoding:parallel_engine.fused_speedup"
    _edit(baseline, key, delete=True)
    status, out = _run(dirs, capsys)
    assert status == 0, out
    assert "-> informational (new metric)" in out


def test_a_gated_ratio_absent_from_the_current_run_fails(dirs, capsys):
    _, current = dirs
    key = "decoding:clustering_backend.speedup"
    _edit(current, key, delete=True)
    status, out = _run(dirs, capsys)
    assert status == 1
    assert _failures(out) == [f"{key} missing from the current run"]


def test_a_missing_current_result_file_fails(dirs, capsys):
    _, current = dirs
    (current / "BENCH_snapshot_compare.json").unlink()
    status, out = _run(dirs, capsys)
    assert status == 1
    assert set(_failures(out)) == {
        "missing current BENCH_snapshot_compare.json (did the bench run?)"
    }


def test_an_unparsable_result_file_fails(dirs, capsys):
    _, current = dirs
    (current / "BENCH_qos_isolation.json").write_text("{", encoding="utf-8")
    status, out = _run(dirs, capsys)
    assert status == 1
    assert "BENCH_qos_isolation.json is not valid JSON" in out
    assert "missing current BENCH_qos_isolation.json (did the bench run?)" in (
        _failures(out)
    )


def test_stray_artifacts_are_ignored(dirs, capsys):
    _, current = dirs
    (current / "BENCH_unknown.json").write_text("{}", encoding="utf-8")
    (current / "BENCH_dir.json").mkdir()
    (current / ".BENCH_hidden.json").write_text("{", encoding="utf-8")
    assert [path.name for path in gate.iter_result_files(current)] == sorted(
        ["BENCH_unknown.json"] + [f"BENCH_{stem}.json" for stem in gate.KNOWN_STEMS]
    )
    status, out = _run(dirs, capsys)
    assert status == 0, out
    assert "BENCH_unknown.json: not a gated result file -> ignored" in out


def test_decode_pool_metrics_are_not_gated(dirs, capsys):
    # Results from before the decode pool's removal carry its ratios and
    # flags; none of them is gated any more, however bad.
    for directory in dirs:
        path = directory / "BENCH_decoding.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        document["parallel_engine"].update(
            workers_speedup=0.1,
            host_multi_core=True,
            shard_cluster_speedup=0.1,
            shard_gate_active=True,
            shard_byte_identical=False,
        )
        path.write_text(json.dumps(document), encoding="utf-8")
    status, out = _run(dirs, capsys)
    assert status == 0, out
    assert "workers_speedup" not in out and "shard" not in out
