"""One switch between the fused kernels and their reference oracles.

The clustering, consensus and Reed-Solomon codec steps ship two
byte-identical implementations: a straightforward reference (the banded
Levenshtein on every untrimmed read pair, nearest-bucket routing without
a route memo, the k-mer prefilter over ``kmer_set`` frozensets,
``double_sided_bma`` per cluster, the scalar Reed-Solomon code row by
row) and the fused/batched fast path this engine runs by default.
``REPRO_FUSED_KERNELS=0`` selects the reference implementations
everywhere at once; it is the only switch between them.  The identity
tests diff the two modes, and the decoding benchmarks use the reference
as the baseline their speedup gates are measured against.

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
