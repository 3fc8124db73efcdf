"""One switch between the fused kernels and their reference oracles.

The decode hot path ships two byte-identical implementations of every
expensive step: a straightforward reference (scalar consensus, scalar
nearest-bucket routing, always-indexed k-mer prefilter, per-erasure-pattern
Reed-Solomon solves) and the fused/batched fast path this engine runs by
default.  ``REPRO_FUSED_KERNELS=0`` selects the reference implementations
everywhere at once — the identity tests diff the two modes, and the
decoding benchmark uses the reference serial path as the baseline its
speedup gate is measured against.

The flag is resolved per call through :mod:`repro.envflags` (not cached)
so tests and benchmarks can toggle it with ``monkeypatch.setenv``; the
lookup is a few dict probes, far off any inner loop.
"""

from __future__ import annotations

from repro import envflags


def fused_kernels_enabled() -> bool:
    """Whether the fused/batched kernels are enabled (the default)."""
    return envflags.enabled("REPRO_FUSED_KERNELS")


__all__ = ["fused_kernels_enabled"]
