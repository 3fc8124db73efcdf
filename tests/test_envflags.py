"""Tests for the central environment-flag registry (repro.envflags)."""

from pathlib import Path

import pytest

from repro import envflags
from repro.exceptions import ConfigError

REPO_ROOT = Path(__file__).resolve().parents[1]

EXPECTED_FLAGS = (
    "REPRO_CODEC_BACKEND",
    "REPRO_FUSED_KERNELS",
    "REPRO_QOS_SCALE_REQUESTS",
    "REPRO_TRACING",
)


class TestRegistry:
    def test_every_known_flag_is_registered(self):
        assert tuple(sorted(envflags.REGISTRY)) == EXPECTED_FLAGS

    def test_registered_flags_is_sorted_and_complete(self):
        flags = envflags.registered_flags()
        assert [f.name for f in flags] == list(EXPECTED_FLAGS)

    def test_every_flag_documents_itself(self):
        for spec in envflags.registered_flags():
            # Owners are dotted module paths in the library or the
            # benchmark suite.
            assert spec.owner.startswith(("repro.", "benchmarks."))
            assert spec.description
            assert spec.accepted

    def test_unregistered_flag_raises_config_error(self):
        with pytest.raises(ConfigError):
            envflags.flag("REPRO_" + "NO_SUCH_FLAG")
        with pytest.raises(ConfigError):
            envflags.read("REPRO_" + "NO_SUCH_FLAG")


class TestRead:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACING", raising=False)
        assert envflags.read("REPRO_TRACING") == "0"

    def test_blank_returns_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED_KERNELS", "   ")
        assert envflags.read("REPRO_FUSED_KERNELS") == "1"

    def test_set_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEC_BACKEND", "python")
        assert envflags.read("REPRO_CODEC_BACKEND") == "python"

    def test_resolution_is_per_call(self, monkeypatch):
        monkeypatch.setenv("REPRO_QOS_SCALE_REQUESTS", "2")
        assert envflags.read("REPRO_QOS_SCALE_REQUESTS") == "2"
        monkeypatch.setenv("REPRO_QOS_SCALE_REQUESTS", "4")
        assert envflags.read("REPRO_QOS_SCALE_REQUESTS") == "4"


class TestEnabled:
    @pytest.mark.parametrize("value", ["0", "false", "FALSE", "no", "off", " Off "])
    def test_false_spellings(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_FUSED_KERNELS", value)
        assert not envflags.enabled("REPRO_FUSED_KERNELS")

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "anything"])
    def test_true_spellings(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACING", value)
        assert envflags.enabled("REPRO_TRACING")

    def test_default_decides_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACING", raising=False)
        monkeypatch.delenv("REPRO_FUSED_KERNELS", raising=False)
        assert not envflags.enabled("REPRO_TRACING")  # default "0"
        assert envflags.enabled("REPRO_FUSED_KERNELS")  # default "1"


class TestRenderedDocs:
    def test_markdown_mentions_every_flag(self):
        rendered = envflags.render_markdown()
        for name in EXPECTED_FLAGS:
            assert f"`{name}`" in rendered

    def test_committed_docs_match_registry(self):
        """docs/ENV_FLAGS.md is generated; RL010 enforces this in lint too."""
        docs = REPO_ROOT / "docs" / "ENV_FLAGS.md"
        assert docs.exists(), "run `python -m repro.analysis.lint --write-env-docs`"
        assert docs.read_text(encoding="utf-8") == envflags.render_markdown()
