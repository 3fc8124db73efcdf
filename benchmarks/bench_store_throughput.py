"""Volume-layer throughput: the batched codec's two paths.

Measures MB/s for batch encode and batch decode of 1 MB and 10 MB objects
chunked into encoding units the way the store's partitions chunk them,
on the codec's numpy kernels (the fused default) and on its scalar
reference (``REPRO_FUSED_KERNELS=0``).  Asserts the acceptance criteria
of the batched codec:

* both paths produce byte-identical unit payloads and decodes;
* the numpy kernels encode a 1 MB object at least 5x faster than the
  scalar reference.
"""

import time

import pytest

from conftest import report
from repro.codec import backend
from repro.codec.matrix_unit import EncodingUnit, UnitLayout
from repro.workloads.objects import synthetic_object

MB = 1 << 20
SIZES = {"1MB": MB, "10MB": 10 * MB}
LAYOUT = UnitLayout()
#: Codec path -> the ``REPRO_FUSED_KERNELS`` value that selects it.
PATHS = {"numpy": "1", "scalar": "0"}


def chunk_into_units(data: bytes) -> list[bytes]:
    step = LAYOUT.user_data_bytes
    return [data[i : i + step] for i in range(0, len(data), step)]


def measure_path(path: str, units: list[bytes]) -> dict:
    codec = EncodingUnit(layout=LAYOUT)
    size_mb = sum(len(unit) for unit in units) / MB

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_FUSED_KERNELS", PATHS[path])
        started = time.perf_counter()
        encoded = codec.encode_batch(units)
        encode_seconds = time.perf_counter() - started

        received = [dict(enumerate(columns)) for columns in encoded]
        started = time.perf_counter()
        decoded = codec.decode_batch(received)
        decode_seconds = time.perf_counter() - started

    assert decoded == units, f"{path} roundtrip corrupted the object"
    return {
        "encoded": encoded,
        "encode_mbps": size_mb / encode_seconds,
        "decode_mbps": size_mb / decode_seconds,
    }


def run_comparison() -> dict:
    results: dict = {}
    for label, size in SIZES.items():
        units = chunk_into_units(synthetic_object(size))
        results[label] = {path: measure_path(path, units) for path in PATHS}
    return results


def test_store_throughput_backend_comparison(benchmark):
    if backend.numpy_backend is None:
        pytest.skip("numpy kernels unavailable; nothing to compare")

    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    rows = []
    for label, by_path in results.items():
        # Byte-identical output between the paths at every size.
        reference = by_path["scalar"]["encoded"]
        for path, outcome in by_path.items():
            assert outcome["encoded"] == reference, (
                f"{path} codec output differs from reference at {label}"
            )
        for path, outcome in by_path.items():
            rows.append(
                f"{label} {path:>6}: encode {outcome['encode_mbps']:7.2f} MB/s, "
                f"decode {outcome['decode_mbps']:7.2f} MB/s"
            )

    speedup = (
        results["1MB"]["numpy"]["encode_mbps"]
        / results["1MB"]["scalar"]["encode_mbps"]
    )
    rows.append(f"numpy/scalar encode speedup at 1MB: {speedup:.1f}x (gate: >= 5x)")
    assert speedup >= 5.0, f"numpy kernels only {speedup:.1f}x faster at 1MB"

    report("Store throughput — batched codec, numpy kernels vs scalar reference", rows)
