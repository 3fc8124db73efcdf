"""Repository benchmark: the serving loop, QoS admission and wetlab decode.

Run from the repository root::

    python3 perfbench/run.py --workload serve-mixed --seed 2023 --seconds 25 --trace 0

Each pass builds a fresh store and trace from the seed (set-up), serves
the trace through ``ServicePipeline.run`` in this process (timed), and
checks every request's bytes against a reference computed outside the
timed region.  Passes repeat until ``--seconds`` of measurement are used.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics, timed from
outside by ``layers.py``.  The metric names and units come from
``BENCHMARK.json``; the last line of output is one JSON result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import repro
    from repro.exceptions import DnaStorageError
    from repro.observability.stages import collect_stages, orchestration_seconds
    from repro.service import ServicePipeline
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the repro package from {ROOT / 'src'}: {exc}")
if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: repro was imported from {repro.__file__}, not {ROOT / 'src'}")

from layers import LAYER_NAMES, LayerClock  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUPS_PER_RUN = 5
MIN_PASSES = 3
#: Kernel runs after every pass.
CALIBRATION_RUNS = 3
#: A round figure of the order of ``host.calibration_s`` on the 2-CPU host
#: the benchmark was tuned on; ``norm_requests_per_s`` is throughput scaled
#: to a host whose kernel takes this long.
REFERENCE_CALIBRATION_S = 0.1


@dataclass
class Pass:
    """What one pass leaves behind: timings, check results and the report's
    outputs (the report itself is dropped so later passes run on a heap
    of the same size)."""

    setup_s: float
    wall_s: float
    outputs: dict | None = None
    failed: int = 0
    notes: list = field(default_factory=list)
    clock: LayerClock | None = None
    stages: dict = field(default_factory=dict)


def calibration_kernel() -> int:
    """Fixed pure-Python work over a few megabytes of tuples, dicts and bytes.

    The serving loop allocates and walks many small objects, so the kernel
    does too: a cache-resident kernel slowed much less than the workload
    when other tenants loaded the host, and scaling by it made the spread
    worse, not better.
    """
    rng = random.Random(7)
    items = [(rng.random(), i, f"k{i}") for i in range(50_000)]
    index = {key: (value, i) for value, i, key in items}
    total = 0
    for _, i, key in items:
        total += index[key][1] ^ i
    items.sort()
    chunks = [bytes(range(i % 200, i % 200 + 48)) for i in range(20_000)]
    return total + len(b"".join(chunks))


def calibrate(times: list[float]) -> None:
    """Time :data:`CALIBRATION_RUNS` runs of :func:`calibration_kernel`."""
    for _ in range(CALIBRATION_RUNS):
        begin = perf_counter()
        calibration_kernel()
        times.append(perf_counter() - begin)


def run_pass(workload: Workload, seed: int, traced: bool) -> Pass:
    gc.collect()
    begin = perf_counter()
    prepared = workload.setup(seed)
    setup_s = perf_counter() - begin
    pipeline = ServicePipeline(
        prepared.store, config=prepared.config, readout=prepared.readout
    )
    clock = LayerClock() if traced else None
    stages: dict[str, float] = {}
    try:
        if clock is None:
            begin = perf_counter()
            report = pipeline.run(
                prepared.trace, prepared.policy, fidelity=prepared.fidelity
            )
            wall_s = perf_counter() - begin
        else:
            with clock.installed(), collect_stages() as stages:
                begin = perf_counter()
                report = pipeline.run(
                    prepared.trace, prepared.policy, fidelity=prepared.fidelity
                )
                wall_s = perf_counter() - begin
    except DnaStorageError as exc:
        # The wetlab path raises when a decoded payload differs from the
        # digital reference: every request of the pass counts as failed.
        failed = len(prepared.trace)
        return Pass(setup_s, perf_counter() - begin, failed=failed, notes=[str(exc)])
    failed, notes = workload.check(prepared, report)
    outputs = report_outputs(workload, report)
    return Pass(setup_s, wall_s, outputs, failed, notes, clock, dict(stages))


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def report_outputs(workload: Workload, report) -> dict[str, float]:
    """The report's outputs: simulated-clock figures and layer counters.

    A pure performance change leaves every one of them exactly unchanged;
    ``checksum`` and ``latency_digest`` fingerprint every request's bytes
    and simulated latency so passes over one seed can be compared.
    """
    reads = [item for item in report.completed if item.request.op == "read"]
    writes = [item for item in report.completed if item.request.op != "read"]
    tail = [
        item.latency_hours for item in reads if workload.tail_tenant(item.request.tenant)
    ]
    outcomes = len(report.completed) + len(report.failed)
    outputs = {
        "outcomes": float(outcomes),
        "checksum": float(report.checksum),
        "latency_digest": float(
            zlib.crc32(repr([item.latency_hours for item in report.completed]).encode())
        ),
        "read_p50_sim_h": percentile([item.latency_hours for item in reads], 0.5),
        "read_tail_sim_h": percentile(tail, workload.tail),
        "read_tail_samples": float(len(tail)),
        "seq_reads_per_read": report.sequenced_reads / len(reads),
        "failed_frac": len(report.failed) / outcomes,
        "service.qos.throttle_events_per_request": report.qos_throttled / outcomes,
        "service.cache.hit_rate": report.cache.hit_rate if report.cache else 0.0,
        "store.amplification_factor": report.amplification_factor,
        "wetlab.retry_cycles": float(report.retry_cycles),
        "wetlab.decode_failures": float(report.decode_failures),
        "wetlab.lane_utilization": report.lane_utilization,
    }
    outputs["write_p99_sim_h"] = (
        percentile([item.latency_hours for item in writes], 0.99) if writes else 0.0
    )
    return outputs


def layer_metrics(passes: list[Pass]) -> dict[str, float]:
    """Per-layer figures, averaged over the traced passes."""
    traced = [item for item in passes if item.clock is not None]
    untraced = [item for item in passes if item.clock is None]
    count = len(traced)
    metrics: dict[str, float] = {}
    for name in LAYER_NAMES:
        seconds = sum(item.clock.seconds[name] for item in traced) / count
        if name == "service.loop":
            metrics["service.loop.self_s"] = seconds
            continue
        metrics[f"{name}.s"] = seconds
        metrics[f"{name}.calls"] = sum(item.clock.calls[name] for item in traced) / count
    decode_s = metrics["store.try_decode_blocks.s"]
    stage_totals = {}
    for stage_name in ("cluster", "consensus", "syndrome_solve"):
        stage_totals[stage_name] = (
            sum(item.stages.get(stage_name, 0.0) for item in traced) / count
        )
        metrics[f"pipeline.{stage_name}.s"] = stage_totals[stage_name]
    metrics["pipeline.orchestration.s"] = orchestration_seconds(decode_s, stage_totals)
    traced_wall = sum(item.wall_s for item in traced) / count
    metrics["bench.traced_wall_s"] = traced_wall
    metrics["bench.layer_coverage"] = (
        sum(item.clock.total_seconds() for item in traced) / count / traced_wall
    )
    metrics["bench.trace_overhead"] = min(item.wall_s for item in traced) / min(
        item.wall_s for item in untraced
    )
    return metrics


def print_layer_shares(metrics: dict[str, float]) -> None:
    wall = metrics["bench.traced_wall_s"]
    rows = [("service.loop (self)", metrics["service.loop.self_s"])]
    rows += [
        (name, metrics[f"{name}.s"]) for name in LAYER_NAMES if name != "service.loop"
    ]
    print(f"layer shares of the traced run() wall time ({wall:.3f} s):")
    for name, seconds in sorted(rows, key=lambda row: -row[1]):
        print(f"  {name:36s} {seconds:9.4f} s  {seconds / wall:7.2%}")
    print(f"  {'sum':36s} {wall * metrics['bench.layer_coverage']:9.4f} s  "
          f"{metrics['bench.layer_coverage']:7.2%}")
    for stage_name in ("cluster", "consensus", "syndrome_solve", "orchestration"):
        seconds = metrics[f"pipeline.{stage_name}.s"]
        if seconds:
            print(f"  decode stage {stage_name:23s} {seconds:9.4f} process-s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]

    calibration_times: list[float] = []
    passes: list[Pass] = []
    started = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(workload, args.seed, traced))
        if len(passes) == 1:
            # Every pass has the same footprint; read the peak before the
            # calibration kernel's allocations can raise it.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calibrate(calibration_times)
        elapsed = perf_counter() - started
        last = passes[-1].setup_s + passes[-1].wall_s
        enough = len(passes) >= MIN_PASSES and not (
            args.trace and len(passes) % 2 == 1
        )
        if enough and elapsed + last > args.seconds:
            break
    setups = [item.setup_s for item in passes]
    while len(setups) < SETUPS_PER_RUN:
        begin = perf_counter()
        workload.setup(args.seed)
        setups.append(perf_counter() - begin)

    failed = sum(item.failed for item in passes)
    notes = sorted({note for item in passes for note in item.notes})
    served = [item for item in passes if item.outputs is not None]
    if len({(item.outputs["checksum"], item.outputs["latency_digest"]) for item in served}) > 1:
        notes.append("passes over the same seed disagree")
    # Contention from other tenants of a shared host only ever slows a
    # pass, so the fastest untraced pass and the fastest kernel run are the
    # steadiest estimates of the code's and the host's own speed.  The host
    # also drifts over minutes: on a shared 2-CPU host the fastest pass
    # moved by a fifth between runs (IQR over median), and scaling it by
    # the kernel time taken over the same minutes halved that spread.
    untraced = [item for item in served if item.clock is None]
    requests_per_s = max(
        (item.outputs["outcomes"] / item.wall_s for item in untraced), default=0.0
    )
    calibration_s = min(calibration_times)
    metrics: dict[str, float] = {
        "requests_per_s": requests_per_s,
        "norm_requests_per_s": requests_per_s * calibration_s / REFERENCE_CALIBRATION_S,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "host.calibration_s": calibration_s,
    }
    if served:
        metrics.update(served[0].outputs)
    traced_served = any(item.clock is not None for item in served)
    if args.trace and traced_served and untraced:
        metrics.update(layer_metrics(served))
        print_layer_shares(metrics)
        coverage = metrics["bench.layer_coverage"]
        if not 0.95 <= coverage <= 1.05:
            notes.append(f"layer self times cover {coverage:.1%} of the traced wall")

    print(f"{args.workload} seed={args.seed} passes={len(passes)} run walls (s): "
          + " ".join(f"{item.wall_s:.3f}" for item in passes))
    for name, value in sorted(metrics.items()):
        print(f"  {name:44s} {value:.10g}")
    for note in notes:
        print(f"  CHECK FAILED: {note}")
    correct = not notes and failed == 0 and bool(served)
    attempted = sum(item.outputs["outcomes"] for item in served) + sum(
        item.failed for item in passes if item.outputs is None
    )
    result = {
        "correct": correct,
        "attempted": max(int(attempted), 1),
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in wanted
            if entry["name"] in metrics
        },
    }
    missing = [entry["name"] for entry in wanted if entry["name"] not in metrics]
    if missing:
        print(f"  CHECK FAILED: metrics not measured: {missing}")
        result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
