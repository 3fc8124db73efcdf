"""Central registry of every ``REPRO_*`` environment flag.

Every runtime switch this library reads from the environment is declared
here — name, default, accepted values, owning module, documentation —
and every module resolves its flag through :func:`read` / :func:`enabled`
instead of touching ``os.environ`` directly.  That buys three things:

* **One source of truth.**  ``docs/ENV_FLAGS.md`` is generated from this
  registry (``python -m repro.analysis.lint --write-env-docs``) and the
  reprolint static-analysis pass fails when code and table drift
  (rule ``RL010``) or when a flag is read without being registered
  (rule ``RL007``).
* **Uniform semantics.**  An unset *or empty/whitespace* variable always
  means "use the default"; boolean flags share one set of false spellings
  (:data:`FALSE_VALUES`).
* **Testability.**  Values are resolved per call (never cached), so tests
  and benchmarks can flip flags with ``monkeypatch.setenv``.

Only :mod:`repro.envflags` itself may read ``os.environ`` inside
``src/repro`` — reprolint rule ``RL004`` enforces the containment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.exceptions import ConfigError

#: Spellings that turn a boolean flag off; anything else (given a
#: non-empty value) turns it on.
FALSE_VALUES = frozenset({"0", "false", "no", "off"})


@dataclass(frozen=True)
class EnvFlag:
    """Declaration of one ``REPRO_*`` environment flag.

    Attributes:
        name: the environment variable (``REPRO_...``).
        default: value used when the variable is unset or blank.
        accepted: human-readable description of the accepted values.
        owner: dotted module that resolves (and documents) the flag.
        description: one-line summary for the generated flag table.
    """

    name: str
    default: str
    accepted: str
    owner: str
    description: str


_FLAGS: tuple[EnvFlag, ...] = (
    EnvFlag(
        name="REPRO_CODEC_BACKEND",
        default="auto",
        accepted="auto | numpy | python",
        owner="repro.codec.backend",
        description="Which batched GF(2^m)/Reed-Solomon codec backend to use "
        "(auto prefers numpy when importable).",
    ),
    EnvFlag(
        name="REPRO_FUSED_KERNELS",
        default="1",
        accepted="boolean (0/false/no/off select the reference oracles)",
        owner="repro.fastpath",
        description="One switch between the fused/batched decode kernels "
        "(default) and their byte-identical reference implementations.",
    ),
    EnvFlag(
        name="REPRO_QOS_SCALE_REQUESTS",
        default="100000",
        accepted="positive integer",
        owner="benchmarks.bench_qos_isolation",
        description="Request count of the QoS isolation benchmark's trace "
        "(CI smoke runs shrink it; the weekly wetlab-full job scales it up).",
    ),
    EnvFlag(
        name="REPRO_TRACING",
        default="0",
        accepted="boolean (1/true/yes/on enable)",
        owner="repro.observability.tracing",
        description="Enable span tracing + metrics for serving runs "
        "(off by default; outcome-neutral when on).",
    ),
)

#: Flag declarations keyed by environment-variable name.
REGISTRY: dict[str, EnvFlag] = {spec.name: spec for spec in _FLAGS}


def registered_flags() -> tuple[EnvFlag, ...]:
    """Every declared flag, in stable (alphabetical) order."""
    return _FLAGS


def flag(name: str) -> EnvFlag:
    """Look up one flag declaration.

    Raises:
        ConfigError: when ``name`` is not a registered ``REPRO_*`` flag.
    """
    spec = REGISTRY.get(name)
    if spec is None:
        raise ConfigError(
            f"{name!r} is not a registered environment flag; declare it in "
            "repro.envflags (and regenerate docs/ENV_FLAGS.md)"
        )
    return spec


def read(name: str) -> str:
    """Resolve a flag's raw value: the environment when set, else the default.

    An unset, empty, or whitespace-only variable falls back to the
    registered default.  The environment is consulted on every call so
    tests can flip flags mid-process.
    """
    spec = flag(name)
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return spec.default
    return raw


def enabled(name: str) -> bool:
    """Resolve a boolean flag (false spellings: :data:`FALSE_VALUES`)."""
    return read(name).strip().lower() not in FALSE_VALUES


def render_markdown() -> str:
    """The generated ``docs/ENV_FLAGS.md`` content (one row per flag)."""
    lines = [
        "# Environment flags",
        "",
        "<!-- Generated from repro.envflags by"
        " `python -m repro.analysis.lint --write-env-docs`."
        " Do not edit by hand: reprolint rule RL010 fails on drift. -->",
        "",
        "Every runtime switch the library reads from the environment. An",
        "unset or blank variable means the default; boolean flags treat",
        "`0`, `false`, `no` and `off` (any case) as off.",
        "",
        "| Flag | Default | Accepted values | Owner | Description |",
        "| --- | --- | --- | --- | --- |",
    ]
    for spec in _FLAGS:
        default = f"`{spec.default}`" if spec.default else "*(blank)*"
        lines.append(
            f"| `{spec.name}` | {default} | {spec.accepted} "
            f"| `{spec.owner}` | {spec.description} |"
        )
    lines.append("")
    return "\n".join(lines)


__all__ = [
    "FALSE_VALUES",
    "EnvFlag",
    "REGISTRY",
    "enabled",
    "flag",
    "read",
    "registered_flags",
    "render_markdown",
]
