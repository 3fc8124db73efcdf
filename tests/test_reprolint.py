"""Tests for reprolint (repro.analysis.lint).

Every rule gets a positive fixture (it fires), a negative fixture (it
stays quiet on compliant / out-of-scope code) and a suppression fixture
(a justified inline directive silences it).  Meta-tests at the bottom
run the real linter over the real repository: the committed baseline
may only shrink, and the tree must be clean.

Fixture code lives in strings written to tmp files.  The suppression
directive token is assembled from two halves throughout — reprolint's
suppression scanner is line-based over raw source, so this file must
never contain the contiguous directive marker itself.
"""

import json
from pathlib import Path

import pytest

from repro import envflags
from repro.analysis.lint.baseline import (
    BaselineEntry,
    load_baseline,
    reconcile,
    write_baseline,
)
from repro.analysis.lint.cli import main
from repro.analysis.lint.engine import discover_files, run_lint
from repro.analysis.lint.rules import ALL_RULES, RULES_BY_CODE
from repro.exceptions import LintError

REPO_ROOT = Path(__file__).resolve().parents[1]

# "# reprolint:" assembled so this file's own line scan never matches it.
DIRECTIVE = "# " + "repro" + "lint:"


def suppress(codes: str, why: str = "fixture exercises the suppression path") -> str:
    """A justified inline suppression comment for fixture code."""
    return f"{DIRECTIVE} disable={codes} -- {why}"


def lint(tmp_path: Path, files: dict[str, str], **kwargs):
    """Write fixture files under ``tmp_path`` and lint them."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    paths = [tmp_path / rel for rel in files]
    return run_lint(paths, root=tmp_path, baseline_path=None, env_docs=None, **kwargs)


def codes(result) -> list[str]:
    return [finding.code for finding in result.findings]


class TestRegistry:
    def test_rule_codes_are_unique_and_ordered(self):
        rule_codes = [rule.code for rule in ALL_RULES]
        assert len(set(rule_codes)) == len(rule_codes)
        assert rule_codes == sorted(rule_codes)

    def test_at_least_the_required_rule_domains_exist(self):
        assert len(ALL_RULES) >= 6
        for code in ("RL001", "RL002", "RL004", "RL006", "RL007", "RL009"):
            assert code in RULES_BY_CODE

    def test_every_rule_has_a_description(self):
        for rule in ALL_RULES:
            assert rule.description, rule.code


class TestParseError:
    def test_rl000_fires_on_syntax_error(self, tmp_path):
        result = lint(tmp_path, {"src/bad.py": "def broken(:\n"})
        assert codes(result) == ["RL000"]


class TestUnseededRandom:
    def test_fires_on_global_random_calls(self, tmp_path):
        source = "import random\nx = random.random()\nrandom.shuffle([1])\n"
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == ["RL001", "RL001"]

    def test_fires_on_unseeded_constructors(self, tmp_path):
        source = (
            "import random\n"
            "import numpy as np\n"
            "a = random.Random()\n"
            "b = np.random.default_rng()\n"
            "c = np.random.RandomState()\n"
        )
        result = lint(tmp_path, {"benchmarks/bench.py": source})
        assert codes(result) == ["RL001", "RL001", "RL001"]

    def test_fires_on_numpy_global_state_through_alias(self, tmp_path):
        source = "import numpy\nx = numpy.random.normal(0.0, 1.0)\n"
        result = lint(tmp_path, {"benchmarks/bench.py": source})
        assert codes(result) == ["RL001"]

    def test_quiet_on_seeded_rngs(self, tmp_path):
        source = (
            "import random\n"
            "import numpy as np\n"
            "a = random.Random(7)\n"
            "b = np.random.default_rng(0)\n"
            "c = b.normal(0.0, 1.0)\n"
        )
        result = lint(tmp_path, {"benchmarks/bench.py": source})
        assert codes(result) == []

    def test_quiet_without_random_imports(self, tmp_path):
        source = "def random():\n    return 4\nx = random()\n"
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == []

    def test_suppressed_with_justification(self, tmp_path):
        source = (
            "import random\n"
            f"x = random.random()  {suppress('RL001')}\n"
        )
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == []
        assert [f.code for f in result.suppressed] == ["RL001"]


class TestWallClock:
    SOURCE = "from time import perf_counter\nt = perf_counter()\n"

    def test_fires_inside_src_repro(self, tmp_path):
        result = lint(tmp_path, {"src/repro/pipeline/foo.py": self.SOURCE})
        assert codes(result) == ["RL002"]

    def test_fires_on_datetime_now(self, tmp_path):
        source = "import datetime\nstamp = datetime.datetime.now()\n"
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == ["RL002"]

    def test_observability_layer_is_exempt(self, tmp_path):
        result = lint(tmp_path, {"src/repro/observability/timer.py": self.SOURCE})
        assert codes(result) == []

    def test_benchmarks_are_out_of_scope(self, tmp_path):
        result = lint(tmp_path, {"benchmarks/bench_foo.py": self.SOURCE})
        assert codes(result) == []

    def test_suppressed_with_justification(self, tmp_path):
        source = (
            "from time import perf_counter\n"
            f"t = perf_counter()  {suppress('RL002')}\n"
        )
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == []


class TestSetIteration:
    def test_fires_on_for_loop_over_set(self, tmp_path):
        source = 'for item in {"a", "b"}:\n    print(item)\n'
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == ["RL003"]

    def test_fires_on_list_and_join_and_comprehension(self, tmp_path):
        source = (
            'a = list({"x", "y"})\n'
            'b = ",".join(set(["p", "q"]))\n'
            'c = [s for s in frozenset(["m"])]\n'
        )
        result = lint(tmp_path, {"tests/foo.py": source})
        assert codes(result) == ["RL003", "RL003", "RL003"]

    def test_quiet_when_sorted_first(self, tmp_path):
        source = (
            'for item in sorted({"a", "b"}):\n    print(item)\n'
            'x = list(sorted(set(["p"])))\n'
            'members = {s for s in {"m", "n"}}\n'
        )
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == []

    def test_suppressed_with_justification(self, tmp_path):
        source = f'a = list({{"x"}})  {suppress("RL003")}\n'
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == []


class TestEnvReads:
    SOURCE = 'import os\nvalue = os.environ.get("HOME")\n'

    def test_fires_inside_src_repro(self, tmp_path):
        result = lint(tmp_path, {"src/repro/foo.py": self.SOURCE})
        assert codes(result) == ["RL004"]

    def test_fires_on_getenv_and_from_import(self, tmp_path):
        source = "from os import getenv\nimport os\nv = os.getenv('X')\n"
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == ["RL004", "RL004"]

    def test_envflags_module_is_exempt(self, tmp_path):
        result = lint(tmp_path, {"src/repro/envflags.py": self.SOURCE})
        assert codes(result) == []

    def test_tests_are_out_of_scope(self, tmp_path):
        result = lint(tmp_path, {"tests/test_foo.py": self.SOURCE})
        assert codes(result) == []


class TestClockDiscipline:
    def test_fires_on_mixed_clock_expression(self, tmp_path):
        source = "def f(sim_hours, wall_seconds):\n    return sim_hours + wall_seconds\n"
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == ["RL005"]

    def test_fires_on_unitless_latency_field(self, tmp_path):
        source = "class Report:\n    decode_latency = 0.0\n"
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == ["RL005"]

    def test_quiet_on_converted_and_unit_suffixed(self, tmp_path):
        source = (
            "HOURS_TO_SECONDS = 3600.0\n"
            "def f(sim_hours, wall_seconds):\n"
            "    sim_seconds = sim_hours * HOURS_TO_SECONDS\n"
            "    return sim_seconds + wall_seconds\n"
            "class Report:\n"
            "    decode_latency_seconds = 0.0\n"
        )
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == []

    def test_quiet_when_class_declares_clock(self, tmp_path):
        source = (
            "class Report:\n"
            "    latency_clock = 'sim_hours'\n"
            "    read_latency = 0.0\n"
        )
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == []

    def test_suppressed_with_justification(self, tmp_path):
        source = (
            "def f(sim_hours, wall_seconds):\n"
            f"    return sim_hours + wall_seconds  {suppress('RL005')}\n"
        )
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == []


class TestOptionalNumpy:
    def test_fires_on_unconditional_import(self, tmp_path):
        result = lint(tmp_path, {"src/repro/foo.py": "import numpy as np\n"})
        assert codes(result) == ["RL006"]

    def test_fires_on_unguarded_use_of_gated_alias(self, tmp_path):
        source = (
            "try:\n"
            "    import numpy as np\n"
            "except ImportError:\n"
            "    np = None\n"
            "def f(values):\n"
            "    return np.mean(values)\n"
        )
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == ["RL006"]

    def test_quiet_when_guarded(self, tmp_path):
        source = (
            "try:\n"
            "    import numpy as np\n"
            "except ImportError:\n"
            "    np = None\n"
            "def f(values):\n"
            "    if np is None:\n"
            "        raise RuntimeError('needs numpy')\n"
            "    return np.mean(values)\n"
        )
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == []

    def test_init_guard_covers_methods(self, tmp_path):
        source = (
            "try:\n"
            "    import numpy as np\n"
            "except ImportError:\n"
            "    np = None\n"
            "class Model:\n"
            "    def __init__(self):\n"
            "        if np is None:\n"
            "            raise RuntimeError('needs numpy')\n"
            "    def run(self, values):\n"
            "        return np.mean(values)\n"
        )
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == []

    def test_numpy_backend_is_exempt(self, tmp_path):
        result = lint(
            tmp_path,
            {"src/repro/codec/backend/numpy_backend.py": "import numpy as np\n"},
        )
        assert codes(result) == []

    def test_tests_are_out_of_scope(self, tmp_path):
        result = lint(tmp_path, {"tests/test_foo.py": "import numpy as np\n"})
        assert codes(result) == []


class TestEnvFlagRegistry:
    def test_fires_on_unregistered_flag_literal(self, tmp_path):
        flag = "REPRO_" + "NOT_A_REAL_FLAG"
        result = lint(tmp_path, {"src/repro/foo.py": f'NAME = "{flag}"\n'})
        assert codes(result) == ["RL007"]

    def test_quiet_on_registered_flags(self, tmp_path):
        lines = "".join(f'x{i} = "{name}"\n' for i, name in enumerate(envflags.REGISTRY))
        result = lint(tmp_path, {"tests/test_foo.py": lines})
        assert codes(result) == []

    def test_quiet_on_non_flag_strings(self, tmp_path):
        source = 'a = "REPRO flag docs"\nb = "repro_tracing"\n'
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == []


class TestExceptionDiscipline:
    def test_fires_in_store_and_service(self, tmp_path):
        source = "def f(key):\n    raise KeyError(key)\n"
        result = lint(
            tmp_path,
            {"src/repro/store/foo.py": source, "src/repro/service/bar.py": source},
        )
        assert codes(result) == ["RL009", "RL009"]

    def test_fires_on_bare_reraise_name(self, tmp_path):
        source = "def f():\n    raise ValueError\n"
        result = lint(tmp_path, {"src/repro/store/foo.py": source})
        assert codes(result) == ["RL009"]

    def test_quiet_on_library_exceptions_and_other_layers(self, tmp_path):
        store = "def f():\n    raise StoreError('volume is sealed')\n"
        codec = "def g():\n    raise ValueError('codec layer may use builtins')\n"
        result = lint(
            tmp_path,
            {"src/repro/store/foo.py": store, "src/repro/codec/bar.py": codec},
        )
        assert codes(result) == []

    def test_suppressed_with_justification(self, tmp_path):
        source = (
            "def f(key, table):\n"
            f"    raise KeyError(key)  {suppress('RL009')}\n"
        )
        result = lint(tmp_path, {"src/repro/store/foo.py": source})
        assert codes(result) == []


class TestEnvDocsDrift:
    def test_missing_docs_fail(self, tmp_path):
        result = run_lint(
            [], root=tmp_path, baseline_path=None, env_docs=tmp_path / "ENV_FLAGS.md"
        )
        assert codes(result) == ["RL010"]

    def test_drifted_docs_fail(self, tmp_path):
        docs = tmp_path / "ENV_FLAGS.md"
        docs.write_text(envflags.render_markdown() + "drift\n", encoding="utf-8")
        result = run_lint([], root=tmp_path, baseline_path=None, env_docs=docs)
        assert codes(result) == ["RL010"]

    def test_generated_docs_pass(self, tmp_path):
        docs = tmp_path / "ENV_FLAGS.md"
        docs.write_text(envflags.render_markdown(), encoding="utf-8")
        result = run_lint([], root=tmp_path, baseline_path=None, env_docs=docs)
        assert codes(result) == []


class TestSuppressionHygiene:
    def test_unjustified_suppression_is_an_error_and_inactive(self, tmp_path):
        source = (
            "import random\n"
            f"x = random.random()  {DIRECTIVE} disable=RL001\n"
        )
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert sorted(codes(result)) == ["RL001", "RL011"]

    def test_unknown_code_is_a_warning(self, tmp_path):
        source = f"x = 1  {DIRECTIVE} disable=RL999 -- there is no rule RL999\n"
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == ["RL011"]
        assert result.findings[0].severity == "warning"

    def test_multiple_codes_in_one_directive(self, tmp_path):
        source = (
            "import random\n"
            "from time import perf_counter\n"
            f"x = random.random() + perf_counter()  {suppress('RL001, RL002')}\n"
        )
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == []
        assert sorted(f.code for f in result.suppressed) == ["RL001", "RL002"]

    def test_suppression_findings_are_never_suppressible(self, tmp_path):
        source = f"x = 1  {DIRECTIVE} disable=RL011\n"
        result = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(result) == ["RL011"]


class TestDiscovery:
    def test_skips_pycache_hidden_and_non_python(self, tmp_path):
        (tmp_path / "src/__pycache__").mkdir(parents=True)
        (tmp_path / "src/.hidden").mkdir()
        (tmp_path / "src/good.py").write_text("x = 1\n", encoding="utf-8")
        (tmp_path / "src/__pycache__/good.cpython-312.pyc").write_bytes(b"\x00")
        (tmp_path / "src/__pycache__/stale.py").write_text("x = 1\n", encoding="utf-8")
        (tmp_path / "src/.hidden/sneaky.py").write_text("x = 1\n", encoding="utf-8")
        (tmp_path / "src/notes.txt").write_text("not code", encoding="utf-8")
        files = discover_files([tmp_path / "src"], tmp_path)
        assert files == [tmp_path / "src/good.py"]

    def test_explicit_single_file(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n", encoding="utf-8")
        assert discover_files([target], tmp_path) == [target]


class TestBaseline:
    def test_roundtrip_and_reconcile(self, tmp_path):
        source = "import random\nx = random.random()\n"
        first = lint(tmp_path, {"src/repro/foo.py": source})
        assert codes(first) == ["RL001"]

        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, first.findings)
        entries = load_baseline(baseline)
        assert len(entries) == 1

        match = reconcile(first.findings, entries)
        assert match.new == [] and match.stale == []
        assert [f.code for f in match.baselined] == ["RL001"]

    def test_stale_entry_fails_the_run(self, tmp_path):
        stale = BaselineEntry(code="RL001", path="src/gone.py", fingerprint="f" * 16)
        match = reconcile([], [stale])
        assert match.stale == [stale]

    def test_run_lint_with_baseline(self, tmp_path):
        target = tmp_path / "src/repro/foo.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\nx = random.random()\n", encoding="utf-8")
        baseline = tmp_path / "baseline.json"

        raw = run_lint([target], root=tmp_path, baseline_path=None, env_docs=None)
        write_baseline(baseline, raw.findings)

        gated = run_lint([target], root=tmp_path, baseline_path=baseline, env_docs=None)
        assert gated.ok and len(gated.baselined) == 1

        target.write_text("x = 1\n", encoding="utf-8")
        after_fix = run_lint(
            [target], root=tmp_path, baseline_path=baseline, env_docs=None
        )
        assert not after_fix.ok and len(after_fix.stale) == 1

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(LintError):
            load_baseline(bad)
        bad.write_text('{"version": 99, "findings": []}', encoding="utf-8")
        with pytest.raises(LintError):
            load_baseline(bad)

    def test_fingerprint_survives_line_drift(self, tmp_path):
        source = "import random\nx = random.random()\n"
        drifted = "import random\n\n\n\nx = random.random()\n"
        first = lint(tmp_path, {"src/repro/a.py": source})
        second = lint(tmp_path, {"src/repro/a.py": drifted})
        assert first.findings[0].fingerprint == second.findings[0].fingerprint


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src/ok.py").write_text("x = 1\n", encoding="utf-8")
        docs = tmp_path / "docs/ENV_FLAGS.md"
        docs.parent.mkdir()
        docs.write_text(envflags.render_markdown(), encoding="utf-8")
        exit_code = main(["--root", str(tmp_path), "src"])
        assert exit_code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one_and_json_format(self, tmp_path, capsys):
        (tmp_path / "src/repro").mkdir(parents=True)
        (tmp_path / "src/repro/foo.py").write_text(
            "import random\nx = random.random()\n", encoding="utf-8"
        )
        docs = tmp_path / "docs/ENV_FLAGS.md"
        docs.parent.mkdir()
        docs.write_text(envflags.render_markdown(), encoding="utf-8")
        exit_code = main(["--root", str(tmp_path), "--format", "json", "src"])
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert [f["code"] for f in payload["findings"]] == ["RL001"]

    def test_write_env_docs_and_list_rules(self, tmp_path, capsys):
        exit_code = main(["--root", str(tmp_path), "--write-env-docs"])
        assert exit_code == 0
        generated = tmp_path / "docs/ENV_FLAGS.md"
        assert generated.read_text(encoding="utf-8") == envflags.render_markdown()
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out

    def test_write_baseline_then_gate(self, tmp_path, capsys):
        (tmp_path / "src/repro").mkdir(parents=True)
        (tmp_path / "src/repro/foo.py").write_text(
            "import random\nx = random.random()\n", encoding="utf-8"
        )
        docs = tmp_path / "docs/ENV_FLAGS.md"
        docs.parent.mkdir()
        docs.write_text(envflags.render_markdown(), encoding="utf-8")
        assert main(["--root", str(tmp_path), "--write-baseline", "src"]) == 0
        assert main(["--root", str(tmp_path), "src"]) == 0
        capsys.readouterr()


class TestRepositoryIsClean:
    """Meta-tests over the real tree: the gate CI runs must hold here too."""

    def test_repo_lints_clean_against_committed_baseline(self):
        result = run_lint(
            [REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT / "tests"],
            root=REPO_ROOT,
            baseline_path=REPO_ROOT / "reprolint-baseline.json",
            env_docs=REPO_ROOT / "docs" / "ENV_FLAGS.md",
        )
        assert result.findings == [], "\n".join(f.render() for f in result.findings)
        assert result.stale == [], "baseline only shrinks: delete stale entries"
        assert result.files_checked > 100

    def test_committed_baseline_only_shrinks(self):
        """Every committed baseline entry must still fire (no rot)."""
        entries = load_baseline(REPO_ROOT / "reprolint-baseline.json")
        result = run_lint(
            [REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT / "tests"],
            root=REPO_ROOT,
            baseline_path=None,
            env_docs=REPO_ROOT / "docs" / "ENV_FLAGS.md",
        )
        match = reconcile(result.findings, entries)
        assert match.stale == [], "baseline entries no longer firing must be deleted"
