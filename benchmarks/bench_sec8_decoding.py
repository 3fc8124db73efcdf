"""Section 8: decoding the target block (and its update) from few reads.

The paper decodes block 531 — original plus one update, 30 strands — from
just 225 sequenced reads (trace reconstruction over the ~31 largest
clusters), whereas the baseline whole-partition access would need ~50 000
reads for the same block at the same per-strand coverage (only 0.34% of its
output is useful).

This file also benchmarks the clustering engine itself — the serving
layer's wetlab-fidelity hot path — comparing the pure-Python and
numpy-batched distance backends on the full precise-access readout.
Results are recorded in ``BENCH_decoding.json``.
"""

import time

from conftest import emit_bench_json, report


def test_sec8_decode_block_from_few_reads(benchmark, alice_experiment, precise_access_531):
    outcome = benchmark.pedantic(
        alice_experiment.run_decoding,
        args=(precise_access_531,),
        kwargs={"reads_to_use": 225},
        rounds=1,
        iterations=1,
    )
    assert outcome.report.success
    assert outcome.correct
    # Both the original block and its update slot are recovered.
    assert set(outcome.report.slots_recovered) == {0, 1}
    assert outcome.report.strands_recovered >= 28

    # Baseline comparison: with only 0.34% useful reads, matching the ~7.5x
    # per-strand coverage of 225 precise reads over 30 strands would take
    # tens of thousands of baseline reads.
    per_strand_coverage = 225 * precise_access_531.on_target_fraction / 30
    baseline_fraction = 30 / 8850
    baseline_reads_needed = int(per_strand_coverage * 30 / baseline_fraction)
    assert baseline_reads_needed > 20_000

    report(
        "Section 8 — decoding from few reads",
        [
            f"reads used (paper 225): {outcome.reads_used}",
            f"clusters consumed (paper 31 largest): {outcome.report.clusters_used}",
            f"strands recovered (paper 30): {outcome.report.strands_recovered}",
            f"duplicate-address strands discarded (mispriming): "
            f"{outcome.report.duplicate_strands_discarded}",
            f"decoded correctly, update applied: {outcome.correct}",
            f"equivalent baseline reads needed (paper ~50 000): ~{baseline_reads_needed:,}",
        ],
    )
    emit_bench_json(
        "decoding",
        "few_reads_decode",
        {
            "reads_used": outcome.reads_used,
            "clusters_used": outcome.report.clusters_used,
            "strands_recovered": outcome.report.strands_recovered,
            "duplicate_strands_discarded": outcome.report.duplicate_strands_discarded,
            "decoded_correctly": bool(outcome.correct),
            "baseline_reads_needed": baseline_reads_needed,
        },
    )


def test_sec8_decoding_latency(benchmark, alice_experiment, precise_access_531):
    """Wall-clock cost of the software pipeline itself (clustering + BMA +
    RS decoding) on the 225-read input — the part the paper notes is not a
    bottleneck."""
    reads = precise_access_531.sequencing.sequences()[:225]
    from repro.pipeline.decoder import BlockDecoder

    decoder = BlockDecoder(alice_experiment.partition)
    report_obj = benchmark(decoder.decode_block, reads, 531)
    assert report_obj.success


def _serving_readout():
    """The wetlab-serving workload both decode benchmarks run on.

    Exactly what ``ServicePipeline`` feeds ``decode_readout`` under
    ``fidelity="wetlab"``: a 64-block merged plan of one partition,
    amplified and sequenced at 150 reads per block.

    Returns ``(store, partition_name, blocks, raw_reads)``.
    """
    from repro.store import DnaVolume, ObjectStore, VolumeConfig
    from repro.store.planner import plan_partition_ranges
    from repro.wetlab.readout import WetlabReadout
    from repro.workloads.objects import object_corpus

    volume = DnaVolume(
        config=VolumeConfig(partition_leaf_count=64, stripe_blocks=8, stripe_width=2)
    )
    store = ObjectStore(volume)
    corpus = object_corpus(
        {f"obj-{i}": volume.block_size * 12 for i in range(8)}, seed=5
    )
    for name, data in corpus.items():
        store.put(name, data)
    partition_name = volume.partition_names[0]
    written = volume.partition(partition_name).written_blocks()
    plan = plan_partition_ranges(
        volume, {partition_name: [(written[0], written[-1])]}
    )
    raw_reads = WetlabReadout(volume, reads_per_block=150, seed=3).readout(plan)[
        partition_name
    ]
    return store, partition_name, list(written), raw_reads


def test_sec8_clustering_backend_speedup():
    """The clustering hot path on a wetlab-serving readout: the
    numpy-batched distance backend must produce identical clusters at a
    >= 3x speedup over the pure-Python banded backend (it is what makes
    wetlab-fidelity serving affordable at trace scale).
    """
    from repro.pipeline.clustering import cluster_reads
    from repro.pipeline.decoder import BlockDecoder
    from repro.pipeline.distance import available_distance_backends
    from repro.pipeline.reads import reads_with_prefix

    store, partition_name, _, raw_reads = _serving_readout()
    partition = store.volume.partition(partition_name)
    decoder = BlockDecoder(partition)
    reads = reads_with_prefix(
        raw_reads,
        partition.config.primers.forward,
        max_errors=decoder.max_prefix_errors,
    )
    signature_start, signature_length = decoder._signature_window()

    assert "numpy" in available_distance_backends(), (
        "the clustering speedup benchmark needs the numpy backend"
    )
    timings = {}
    shapes = {}
    for backend in ("python", "numpy"):
        best = float("inf")
        for _ in range(2):
            started = time.perf_counter()
            clusters = cluster_reads(
                reads,
                signature_start=signature_start,
                signature_length=signature_length,
                distance_backend=backend,
            )
            best = min(best, time.perf_counter() - started)
        timings[backend] = best
        shapes[backend] = [
            (cluster.signature, tuple(cluster.reads)) for cluster in clusters
        ]
    assert shapes["python"] == shapes["numpy"]

    speedup = timings["python"] / timings["numpy"]
    report(
        "Section 8 — clustering backend speedup (serving hot path)",
        [
            f"reads clustered: {len(reads)}",
            f"clusters: {len(shapes['python'])}",
            f"python backend: {timings['python']:.3f}s",
            f"numpy backend:  {timings['numpy']:.3f}s",
            f"speedup: {speedup:.1f}x (acceptance: >= 3x)",
        ],
    )
    emit_bench_json(
        "decoding",
        "clustering_backend",
        {
            "reads": len(reads),
            "clusters": len(shapes["python"]),
            "python_seconds": round(timings["python"], 4),
            "numpy_seconds": round(timings["numpy"], 4),
            "speedup": round(speedup, 2),
        },
    )
    assert speedup >= 3.0


def test_sec8_fused_decode_speedup():
    """End-to-end readout decode, inline: the fused GF(2^m), clustering
    and consensus kernels must be byte-identical to — and >= 2x faster
    than — their reference implementations (``REPRO_FUSED_KERNELS=0``,
    the seed-equivalent pipeline).

    Emits a per-stage wall-clock breakdown (cluster / consensus /
    syndrome+solve / orchestration) of both modes into
    ``BENCH_decoding.json``.
    """
    import os

    from repro.observability.stages import collect_stages, orchestration_seconds

    store, partition_name, blocks, raw_reads = _serving_readout()
    targets = {partition_name: blocks}
    reads = {partition_name: raw_reads}

    def run_mode(fused: bool) -> dict:
        previous = os.environ.get("REPRO_FUSED_KERNELS")
        os.environ["REPRO_FUSED_KERNELS"] = "1" if fused else "0"
        try:
            best = None
            for _ in range(2):
                started = time.perf_counter()
                with collect_stages() as stages:
                    payloads, failures = store.try_decode_blocks(targets, reads)
                seconds = time.perf_counter() - started
                if best is None or seconds < best["seconds"]:
                    best = {
                        "seconds": seconds,
                        "stages": dict(stages),
                        "payloads": payloads,
                        "failures": failures,
                    }
            return best
        finally:
            if previous is None:
                os.environ.pop("REPRO_FUSED_KERNELS", None)
            else:
                os.environ["REPRO_FUSED_KERNELS"] = previous

    reference = run_mode(fused=False)
    fused = run_mode(fused=True)

    assert not reference["failures"]
    byte_identical = (
        reference["payloads"] == fused["payloads"]
        and reference["failures"] == fused["failures"]
    )
    assert byte_identical

    fused_speedup = reference["seconds"] / fused["seconds"]
    meets_target = fused_speedup >= 2.0

    def stage_row(mode: dict) -> dict:
        stages = mode["stages"]
        return {
            "total_seconds": round(mode["seconds"], 4),
            "cluster_seconds": round(stages.get("cluster", 0.0), 4),
            "consensus_seconds": round(stages.get("consensus", 0.0), 4),
            "syndrome_solve_seconds": round(stages.get("syndrome_solve", 0.0), 4),
            "orchestration_seconds": round(
                orchestration_seconds(mode["seconds"], stages), 4
            ),
        }

    report(
        "Section 8 — inline readout decode (fused vs reference kernels)",
        [
            f"readout: {len(raw_reads)} reads, {len(blocks)} blocks",
            f"reference (REPRO_FUSED_KERNELS=0): {reference['seconds']:.3f}s",
            f"fused: {fused['seconds']:.3f}s",
            f"end-to-end speedup: {fused_speedup:.1f}x (acceptance: >= 2x)",
            f"byte-identical: {byte_identical}",
        ],
    )
    # The section keeps its name so the regression gate's paths
    # (``parallel_engine.fused_speedup`` ...) stay as they were.
    emit_bench_json(
        "decoding",
        "parallel_engine",
        {
            "reads": len(raw_reads),
            "blocks": len(blocks),
            "modes": {
                "reference_inline": stage_row(reference),
                "fused_inline": stage_row(fused),
            },
            "fused_speedup": round(fused_speedup, 2),
            "byte_identical": byte_identical,
            "meets_speedup_target": meets_target,
        },
    )
    assert meets_target
