"""Process-parallel decode engine: multi-worker readout decoding.

One wetlab cycle produces independent per-partition read batches (the
concatenated reads of the cycle's :class:`~repro.wetlab.readout.ReadoutUnit`
s, in access order), and decoding a batch — clustering, trace
reconstruction, Reed-Solomon — is pure CPU work on immutable inputs.  The
:class:`DecodeEngine` decodes those batches inline or on a pool of worker
processes:

* **Determinism.**  A stage task carries everything it depends on (a
  cluster shard's reads, a batch of cluster read groups, the pickled
  partition of a solve), stage tasks never share state, and the parent
  merges their results in a fixed order — so the decoded bytes, per-block
  reports and failure strings are byte-identical for *any* worker and
  shard count, including the inline ``workers=1`` path.  Sequencing
  randomness is seeded per readout unit upstream, so worker scheduling
  cannot perturb it either.
* **Worker resolution.**  An explicit ``workers`` argument wins, then the
  ``REPRO_DECODE_WORKERS`` environment variable, then the CPU count.
  ``workers=1`` decodes inline with no pool and no pickling — the serial
  path.
* **One pool scheduler.**  A multi-worker engine decomposes each readout
  into *stage tasks* — cluster shards
  (:func:`repro.pipeline.clustering.cluster_shard`), consensus batches
  (:func:`repro.pipeline.consensus.split_consensus_batches`) and the
  batched syndrome solve — scheduled by a :class:`StageProfile` (EWMA
  seconds-per-unit fed back from workers), so a hot partition's cluster
  shards interleave with other partitions' consensus work instead of
  head-of-line blocking one worker.  At one shard
  (``REPRO_CLUSTER_SHARDS`` unset) each readout is one cluster task and
  one consensus batch, and the profile keeps cheap solves in the parent.
  The stage pieces are exactly the serial path's phases.  Payloads travel
  as ordinary pickles; the distance backend crosses by name.
* **Robustness.**  A broken pool (a worker killed mid-cycle) falls back to
  decoding the remaining tasks inline rather than failing the cycle.

Workers report their per-stage wall-clock (cluster / consensus /
syndrome+solve) with each result; the engine folds those into the
caller's active :mod:`~repro.observability.stages` collector, so
benchmarks see one stage breakdown whatever the worker count.

Lane scheduling (wetlab time,
:meth:`repro.service.scheduler_qos.SharedLanePool.schedule`) and worker
scheduling (compute time, this module) stay separate axes: the first
decides when simulated chemistry finishes, the second how fast the host
decodes the resulting reads.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from typing import TYPE_CHECKING, Sequence

from repro import envflags
from repro.exceptions import DecodingError
from repro.observability.stages import collect_stages, record_stages, stage
from repro.observability.tracing import (
    Tracer,
    activate,
    current_tracer,
    maybe_wall_span,
    wall_now,
    worker_track,
)
from repro.pipeline.clustering import (
    DEFAULT_MAX_READ_DISTANCE,
    DEFAULT_MAX_SIGNATURE_ERRORS,
    DEFAULT_MIN_KMER_SIMILARITY,
    ClusterShard,
    ReadCluster,
    build_shard_payloads,
    merge_shard_clusters,
    resolve_cluster_shards,
    route_reads,
)
from repro.pipeline.consensus import split_consensus_batches
from repro.pipeline.distance import DistanceBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.partition import Partition
    from repro.pipeline.decoder import (
        BlockDecoder,
        DecodeReport,
        ReadoutCandidates,
        ReadoutPlan,
        RoutedReads,
    )

_WORKERS_ENV = "REPRO_DECODE_WORKERS"

#: A syndrome solve predicted to run at least this long goes to a worker;
#: cheaper solves run inline in the parent, where the submission +
#: pickling round-trip would cost more than the solve itself.  An
#: unprofiled solve goes to a worker once so the profile learns its rate.
_REMOTE_SOLVE_MIN_SECONDS = 0.05

#: Stage-collector name per staged-task kind (the solve kind feeds the
#: ``syndrome_solve`` stage the serial decoder reports).
_STAGE_OF_KIND = {
    "cluster": "cluster",
    "consensus": "consensus",
    "solve": "syndrome_solve",
}

#: The only type names allowed to cross the worker-process boundary —
#: the signature of :func:`_run_stage_task`, the pool's one entry point,
#: may reference nothing outside this set (reprolint rule RL008), and its
#: payloads and results carry nothing else.  Every non-builtin entry must
#: pickle deterministically: ``Partition`` (solve payloads) carries its
#: geometry by value and its ``GaloisField`` resolves through
#: ``GaloisField.cached`` (``__reduce__``), so workers share one
#: per-process table source instead of re-deriving exp/log tables per
#: task; ``Span`` records ride home with traced results.
PICKLE_BOUNDARY_TYPES = frozenset(
    {
        "Partition",
        "Span",
        "bool",
        "bytes",
        "dict",
        "float",
        "int",
        "list",
        "str",
        "tuple",
        "None",
    }
)


def resolve_worker_count(workers: int | None = None) -> int:
    """The effective worker count: argument, then env, then CPU count."""
    if workers is None:
        raw = envflags.read(_WORKERS_ENV).strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise DecodingError(
                    f"{_WORKERS_ENV} must be an integer, got {raw!r}"
                ) from None
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise DecodingError("decode worker count must be >= 1")
    return workers


@dataclass(frozen=True)
class DecodeTask:
    """One partition readout to decode.

    Attributes:
        partition: the partition whose blocks the reads encode (it carries
            primers, layout and ECC geometry; solve-stage tasks pickle it
            to a worker).
        reads: raw sequencing reads of the partition's readout units,
            concatenated in access order.
        blocks: target block numbers (``None`` = every written block).
        decoder_options: forwarded to
            :class:`~repro.pipeline.decoder.BlockDecoder` in the parent;
            workers receive only the clustering options, with the
            distance backend by name.
        label: display name used on trace spans (conventionally the
            partition's name; diagnostics only, never affects decoding).
    """

    partition: "Partition"
    reads: list[str]
    blocks: list[int] | None = None
    decoder_options: dict = field(default_factory=dict)
    label: str = ""


@dataclass
class DecodeOutcome:
    """The result of one :class:`DecodeTask`.

    Attributes:
        reports: per-block decode reports, as
            :meth:`BlockDecoder.decode_readout` returns them.
        stages: the task's stage timing breakdown (on the pool, the sum
            over the task's stage tasks).
        seconds: total wall-clock of the task's decode (on the pool,
            elapsed time from its first to its last stage).
    """

    reports: "dict[int, DecodeReport]"
    stages: dict[str, float]
    seconds: float


def _run_stage_task(
    kind: str,
    payload: tuple,
    options: dict,
    trace: bool | None = None,
    label: str = "",
) -> tuple:
    """Run one decode stage (the pool's worker entry point).

    ``kind`` selects the stage: ``"cluster"`` agglomerates one clustering
    shard (payload ``(reads, buckets)``), ``"consensus"`` reconstructs a
    batch of cluster strands (payload ``(groups, length)``), ``"solve"``
    batch-decodes encoding units (payload ``(partition, units)``).
    Returns ``(result, stages, seconds, spans)``.

    ``trace`` selects the span-propagation mode: ``None`` leaves the
    ambient tracer alone (an inline call — spans land directly in the
    caller's tracer), ``True`` runs under a fresh local tracer whose
    spans are returned for the parent to adopt (a worker of a traced
    run), and ``False`` explicitly sheds any tracer inherited across a
    ``fork`` (a worker of an untraced run).
    """
    stage_name = _STAGE_OF_KIND.get(kind)
    if stage_name is None:
        raise DecodingError(f"unknown decode stage kind {kind!r}")

    def execute():
        with stage(stage_name):
            if kind == "cluster":
                from repro.pipeline.clustering import cluster_shard

                reads, buckets = payload
                return cluster_shard(reads, buckets, **options)
            if kind == "consensus":
                from repro.pipeline.consensus import consensus_batch

                groups, length = payload
                return consensus_batch(
                    groups, length, backend=options.get("backend")
                )
            from repro.pipeline.decoder import try_decode_units_batch

            partition, units = payload
            return try_decode_units_batch(partition, units)

    begin = wall_now()
    if trace is None:
        with collect_stages() as stages:
            result = execute()
        return result, dict(stages), wall_now() - begin, []
    tracer = Tracer() if trace else None
    with activate(tracer):
        with collect_stages() as stages:
            if tracer is not None:
                with tracer.wall_span(
                    f"{kind}:{label or 'stage'}",
                    track=worker_track(),
                    kind=kind,
                ):
                    result = execute()
            else:
                result = execute()
    spans = tracer.spans if tracer is not None else []
    return result, dict(stages), wall_now() - begin, spans


class StageProfile:
    """EWMA seconds-per-unit per decode stage, fed back from workers.

    Units are stage-appropriate sizes (reads for clustering and
    consensus, encoding units for solves); the staged scheduler uses the
    predictions to submit the longest stage tasks first and to keep
    trivially small solves inline.  Predictions only shape *scheduling
    order*, never results, so a cold or wildly wrong profile still
    decodes byte-identically.
    """

    #: Weight of the newest observation (higher = adapts faster).
    alpha = 0.4

    def __init__(self) -> None:
        self._rates: dict[str, float] = {}

    def observe(self, stage_name: str, units: int, seconds: float) -> None:
        """Fold one completed stage task into the profile."""
        if seconds < 0.0:
            return
        rate = seconds / max(1, units)
        previous = self._rates.get(stage_name)
        if previous is None:
            self._rates[stage_name] = rate
        else:
            self._rates[stage_name] = previous + (rate - previous) * self.alpha

    def predict(self, stage_name: str, units: int) -> float | None:
        """Predicted seconds for ``units`` of a stage (None = no data yet)."""
        rate = self._rates.get(stage_name)
        if rate is None:
            return None
        return rate * max(1, units)

    def snapshot(self) -> dict[str, float]:
        """The current per-stage seconds-per-unit rates (diagnostics)."""
        return dict(self._rates)


@dataclass
class _StageSubmission:
    """One stage task queued for a submission wave."""

    task_index: int
    kind: str
    position: int
    units: int
    payload: tuple
    options: dict
    label: str


@dataclass
class _StagedTask:
    """Parent-side state of one :class:`DecodeTask` on the pool."""

    index: int
    task: DecodeTask
    decoder: "BlockDecoder"
    begin: float
    plan: "ReadoutPlan | None" = None
    routed: "RoutedReads | None" = None
    payloads: list[ClusterShard] = field(default_factory=list)
    shard_outputs: list = field(default_factory=list)
    shards_remaining: int = 0
    clusters: list[ReadCluster] = field(default_factory=list)
    strand_parts: list = field(default_factory=list)
    batches_remaining: int = 0
    collected: "ReadoutCandidates | None" = None
    stages: dict[str, float] = field(default_factory=dict)

    def fold(self, stages: dict[str, float]) -> None:
        for name, seconds in stages.items():
            self.stages[name] = self.stages.get(name, 0.0) + seconds


def _backend_name(backend: str | DistanceBackend | None) -> str | None:
    """A distance backend as it crosses the worker boundary: by name.

    Both backends are stateless, so the worker's
    :func:`~repro.pipeline.distance.get_distance_backend` resolves the
    name to an equivalent instance; an instance itself may hold an
    unpicklable module reference.
    """
    return backend.name if isinstance(backend, DistanceBackend) else backend


class DecodeEngine:
    """A reusable pool of decode workers.

    Args:
        workers: worker processes (``None`` = ``REPRO_DECODE_WORKERS``,
            then CPU count; ``1`` decodes inline).
        cluster_shards: intra-partition clustering shard count (``None``
            = ``REPRO_CLUSTER_SHARDS``, then 1): how many cluster tasks
            (and consensus batches) a pooled readout splits into.
            Results are byte-identical at any shard count.
    """

    def __init__(
        self,
        workers: int | None = None,
        cluster_shards: int | None = None,
    ) -> None:
        self.workers = resolve_worker_count(workers)
        self.cluster_shards = resolve_cluster_shards(cluster_shards)
        self.profile = StageProfile()
        self._executor: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Fork keeps worker startup cheap and inherits warm numpy /
            # Galois tables; platforms without it use their default.
            context = (
                get_context("fork")
                if "fork" in get_all_start_methods()
                else None
            )
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
        return self._executor

    def shutdown(self) -> None:
        """Stop the worker processes (the engine can be reused after)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, tasks: Sequence[DecodeTask]) -> list[DecodeOutcome]:
        """Decode every task, returning outcomes in task order.

        Results are byte-identical for any worker and shard count; stage
        timings are folded into the caller's active collector either way.
        """
        if not tasks:
            return []
        with maybe_wall_span(
            "decode_engine",
            tasks=len(tasks),
            workers=self.workers,
            shards=self.cluster_shards,
        ):
            if self.workers == 1:
                return [self._decode_inline(task) for task in tasks]
            return self._decode_staged(tasks)

    def _task_options(self, task: DecodeTask) -> dict:
        """Decoder options with the engine's shard count folded in."""
        if self.cluster_shards <= 1 or "cluster_shards" in task.decoder_options:
            return task.decoder_options
        return {**task.decoder_options, "cluster_shards": self.cluster_shards}

    def _decode_inline(self, task: DecodeTask) -> DecodeOutcome:
        from repro.pipeline.decoder import BlockDecoder

        with maybe_wall_span(
            f"decode:{task.label or 'task'}",
            blocks=len(task.blocks) if task.blocks is not None else None,
            reads=len(task.reads),
        ):
            begin = wall_now()
            with collect_stages() as stages:
                decoder = BlockDecoder(task.partition, **self._task_options(task))
                reports = decoder.decode_readout(task.reads, task.blocks)
            seconds = wall_now() - begin
        record_stages(stages)
        return DecodeOutcome(reports=reports, stages=stages, seconds=seconds)

    # ------------------------------------------------------------------
    # Staged decoding on the pool
    # ------------------------------------------------------------------
    def _timed_stage(self, state: _StagedTask, name: str, fn):
        """Run a parent-side stage piece under the stage collector."""
        begin = wall_now()
        with stage(name):
            result = fn()
        state.fold({name: wall_now() - begin})
        return result

    def _submission_cost(self, submission: _StageSubmission) -> float:
        predicted = self.profile.predict(
            _STAGE_OF_KIND[submission.kind], submission.units
        )
        return predicted if predicted is not None else float(submission.units)

    def _decode_staged(self, tasks: Sequence[DecodeTask]) -> list[DecodeOutcome]:
        """Decode tasks as interleaved cluster/consensus/solve stage tasks.

        An event loop over ``concurrent.futures.wait``: each completed
        stage task advances its owning readout's state machine (route →
        shard clustering → merge → consensus batches → collect → solve →
        finish), and every wave of new stage tasks is submitted longest-
        predicted-first, so one partition's hot cluster shards interleave
        with other partitions' consensus and solve work.  Completed
        futures are processed in submission order (RL003: never in set
        order), which — together with per-task positions — keeps every
        merge deterministic.
        """
        from repro.pipeline.decoder import BlockDecoder

        shards = self.cluster_shards
        outcomes: list[DecodeOutcome | None] = [None] * len(tasks)
        parent_tracer = current_tracer()
        # Workers on a ``fork`` context inherit the ambient tracer; send an
        # explicit flag so untraced runs shed it and traced runs record
        # into a fresh local tracer whose spans ride home with the result.
        trace_flag = parent_tracer is not None
        broken = False
        sequence = 0
        # future -> (task_index, kind, position, units, submit_seq)
        waiting: dict[Future, tuple[int, str, int, int, int]] = {}
        states: list[_StagedTask] = []
        pool = self._pool()

        def flush(wave: list[_StageSubmission]) -> None:
            nonlocal broken, sequence
            wave.sort(
                key=lambda sub: (
                    -self._submission_cost(sub), sub.task_index, sub.position
                )
            )
            for sub in wave:
                if broken:
                    return
                try:
                    future = pool.submit(
                        _run_stage_task,
                        sub.kind,
                        sub.payload,
                        sub.options,
                        trace_flag,
                        sub.label,
                    )
                except (BrokenProcessPool, RuntimeError):
                    broken = True
                    return
                waiting[future] = (
                    sub.task_index, sub.kind, sub.position, sub.units, sequence
                )
                sequence += 1

        wave: list[_StageSubmission] = []
        for index, task in enumerate(tasks):
            state = _StagedTask(
                index=index,
                task=task,
                decoder=BlockDecoder(task.partition, **task.decoder_options),
                begin=wall_now(),
            )
            states.append(state)
            state.plan = state.decoder.readout_plan(task.reads, task.blocks)
            wave.extend(self._staged_route(state, shards, outcomes))
        flush(wave)

        while waiting and not broken:
            done, _ = wait(list(waiting), return_when=FIRST_COMPLETED)
            wave = []
            for future in sorted(done, key=lambda f: waiting[f][4]):
                task_index, kind, position, units, _seq = waiting.pop(future)
                try:
                    result, stages, seconds, spans = future.result()
                except BrokenProcessPool:
                    broken = True
                    break
                state = states[task_index]
                state.fold(stages)
                record_stages(stages)
                if parent_tracer is not None and spans:
                    parent_tracer.adopt(spans)
                self.profile.observe(_STAGE_OF_KIND[kind], units, seconds)
                wave.extend(
                    self._staged_advance(state, kind, position, result, outcomes)
                )
            flush(wave)
        if broken:
            # A dead pool must not fail the cycle: start a fresh pool next
            # time and decode the interrupted tasks inline from scratch —
            # partial stage results are discarded so the fallback is
            # exactly the serial path.
            self.shutdown()
        return [
            outcome
            if outcome is not None
            else self._decode_inline(tasks[index])
            for index, outcome in enumerate(outcomes)
        ]

    def _staged_route(
        self,
        state: _StagedTask,
        shards: int,
        outcomes: list[DecodeOutcome | None],
    ) -> list[_StageSubmission]:
        """Route one readout's reads (sequential phase 1) and shard it."""
        decoder = state.decoder
        signature_start, signature_length = decoder._signature_window()

        def route() -> None:
            state.routed = route_reads(
                state.plan.on_prefix,
                signature_start=signature_start,
                signature_length=signature_length,
                max_signature_errors=DEFAULT_MAX_SIGNATURE_ERRORS,
                distance_backend=decoder.distance_backend,
            )
            state.payloads = build_shard_payloads(
                state.plan.on_prefix, state.routed.bucket_reads, shards
            )

        self._timed_stage(state, "cluster", route)
        if not state.payloads:
            state.shard_outputs = []
            return self._staged_after_cluster(state, outcomes)
        state.shard_outputs = [None] * len(state.payloads)
        state.shards_remaining = len(state.payloads)
        options = {
            "max_read_distance": decoder.max_read_distance,
            "min_kmer_similarity": DEFAULT_MIN_KMER_SIMILARITY,
            "distance_backend": _backend_name(decoder.distance_backend),
        }
        label = state.task.label or "task"
        return [
            _StageSubmission(
                task_index=state.index,
                kind="cluster",
                position=position,
                units=len(payload.reads),
                payload=(payload.reads, payload.buckets),
                options=options,
                label=f"{label}#{payload.shard}/{shards}",
            )
            for position, payload in enumerate(state.payloads)
        ]

    def _staged_advance(
        self,
        state: _StagedTask,
        kind: str,
        position: int,
        result,
        outcomes: list[DecodeOutcome | None],
    ) -> list[_StageSubmission]:
        """Fold one completed stage task; return the next submissions."""
        if kind == "cluster":
            state.shard_outputs[position] = result
            state.shards_remaining -= 1
            if state.shards_remaining:
                return []
            return self._staged_after_cluster(state, outcomes)
        if kind == "consensus":
            state.strand_parts[position] = result
            state.batches_remaining -= 1
            if state.batches_remaining:
                return []
            strands = [
                strand for part in state.strand_parts for strand in part
            ]
            return self._staged_after_consensus(state, strands, outcomes)
        self._staged_finish(state, result, outcomes)
        return []

    def _staged_after_cluster(
        self, state: _StagedTask, outcomes: list[DecodeOutcome | None]
    ) -> list[_StageSubmission]:
        """Merge shard outputs; fan the clusters out as consensus batches."""
        def merge() -> None:
            state.clusters = merge_shard_clusters(
                state.routed, state.shard_outputs
            )

        self._timed_stage(state, "cluster", merge)
        groups = [cluster.reads for cluster in state.clusters]
        if not groups:
            return self._staged_after_consensus(state, [], outcomes)
        batches = split_consensus_batches(groups, self.cluster_shards)
        state.strand_parts = [None] * len(batches)
        state.batches_remaining = len(batches)
        length = state.decoder._layout.strand_length
        label = state.task.label or "task"
        return [
            _StageSubmission(
                task_index=state.index,
                kind="consensus",
                position=position,
                units=sum(len(group) for group in chunk),
                payload=(chunk, length),
                options={"backend": None},
                label=f"{label}[{position + 1}/{len(batches)}]",
            )
            for position, chunk in enumerate(batches)
        ]

    def _staged_after_consensus(
        self,
        state: _StagedTask,
        strands: list[str],
        outcomes: list[DecodeOutcome | None],
    ) -> list[_StageSubmission]:
        """Collect candidates; solve remotely only when predictably big."""
        state.collected = state.decoder.collect_readout(
            state.plan, state.clusters, strands
        )
        units = state.collected.batch_units
        predicted = self.profile.predict("syndrome_solve", len(units))
        if units and (
            predicted is None or predicted >= _REMOTE_SOLVE_MIN_SECONDS
        ):
            return [
                _StageSubmission(
                    task_index=state.index,
                    kind="solve",
                    position=0,
                    units=len(units),
                    payload=(state.task.partition, units),
                    options={},
                    label=state.task.label or "task",
                )
            ]

        def solve() -> dict:
            from repro.pipeline.decoder import try_decode_units_batch

            return try_decode_units_batch(state.task.partition, units)

        begin = wall_now()
        decoded_units = self._timed_stage(state, "syndrome_solve", solve)
        self.profile.observe(
            "syndrome_solve", max(1, len(units)), wall_now() - begin
        )
        self._staged_finish(state, decoded_units, outcomes)
        return []

    def _staged_finish(
        self,
        state: _StagedTask,
        decoded_units: dict,
        outcomes: list[DecodeOutcome | None],
    ) -> None:
        """Assemble the task's reports (always in the parent)."""
        def finish() -> "dict[int, DecodeReport]":
            return state.decoder.finish_readout(
                state.plan, state.collected, decoded_units
            )

        reports = self._timed_stage(state, "syndrome_solve", finish)
        outcomes[state.index] = DecodeOutcome(
            reports=reports,
            stages=dict(state.stages),
            seconds=wall_now() - state.begin,
        )

    # ------------------------------------------------------------------
    # Sharded clustering as a standalone service (benchmarks, callers
    # that want clusters rather than decoded blocks)
    # ------------------------------------------------------------------
    def cluster_sharded(
        self,
        reads: list[str],
        *,
        signature_start: int,
        signature_length: int,
        max_signature_errors: int = DEFAULT_MAX_SIGNATURE_ERRORS,
        max_read_distance: int = DEFAULT_MAX_READ_DISTANCE,
        min_kmer_similarity: float = DEFAULT_MIN_KMER_SIMILARITY,
        distance_backend: str | DistanceBackend | None = None,
        shards: int | None = None,
    ) -> tuple[list[ReadCluster], list[dict]]:
        """Cluster one read batch with shard agglomeration on the pool.

        Byte-identical to
        :func:`repro.pipeline.clustering.cluster_reads` at any shard and
        worker count (it drives the same route/shard/merge primitives).
        Returns ``(clusters, shard_stats)`` where ``shard_stats`` holds
        one ``{shard, buckets, reads, seconds}`` row per non-empty shard,
        in shard order — the per-shard cluster-stage breakdown the
        decoding benchmark publishes.
        """
        shard_count = (
            self.cluster_shards if shards is None else resolve_cluster_shards(shards)
        )
        parent_tracer = current_tracer()
        trace_flag = parent_tracer is not None
        with maybe_wall_span(
            "cluster_sharded", shards=shard_count, reads=len(reads)
        ):
            routed = route_reads(
                reads,
                signature_start=signature_start,
                signature_length=signature_length,
                max_signature_errors=max_signature_errors,
                distance_backend=distance_backend,
            )
            payloads = build_shard_payloads(
                reads, routed.bucket_reads, shard_count
            )
            options = {
                "max_read_distance": max_read_distance,
                "min_kmer_similarity": min_kmer_similarity,
                "distance_backend": _backend_name(distance_backend),
            }
            outputs: list = [None] * len(payloads)
            seconds_of: list[float] = [0.0] * len(payloads)

            def keep(position: int, result, stages: dict, seconds: float) -> None:
                record_stages(stages)
                self.profile.observe(
                    "cluster", len(payloads[position].reads), seconds
                )
                outputs[position] = result
                seconds_of[position] = seconds

            if self.workers > 1 and len(payloads) > 1:
                pool = self._pool()
                futures: list[tuple[int, Future]] = []
                broken = False
                for position, payload in enumerate(payloads):
                    try:
                        futures.append(
                            (
                                position,
                                pool.submit(
                                    _run_stage_task,
                                    "cluster",
                                    (payload.reads, payload.buckets),
                                    options,
                                    trace_flag,
                                    f"shard#{payload.shard}/{shard_count}",
                                ),
                            )
                        )
                    except (BrokenProcessPool, RuntimeError):
                        broken = True
                        break
                for position, future in futures:
                    try:
                        result, stages, seconds, spans = future.result()
                    except BrokenProcessPool:
                        broken = True
                        break
                    if parent_tracer is not None and spans:
                        parent_tracer.adopt(spans)
                    keep(position, result, stages, seconds)
                if broken:
                    self.shutdown()
            # Inline whatever never ran (workers == 1, a single payload,
            # or a pool that broke mid-batch).
            for position, payload in enumerate(payloads):
                if outputs[position] is None:
                    result, stages, seconds, _ = _run_stage_task(
                        "cluster", (payload.reads, payload.buckets), options
                    )
                    keep(position, result, stages, seconds)
            clusters = merge_shard_clusters(routed, outputs)
            stats = [
                {
                    "shard": payload.shard,
                    "buckets": len(payload.buckets),
                    "reads": len(payload.reads),
                    "seconds": seconds,
                }
                for payload, seconds in zip(payloads, seconds_of)
            ]
            return clusters, stats


# ----------------------------------------------------------------------
# Shared engines
# ----------------------------------------------------------------------
_shared_engines: dict[tuple[int, int], DecodeEngine] = {}


def shared_engine(
    workers: int | None = None,
    cluster_shards: int | None = None,
) -> DecodeEngine:
    """A process-wide engine per resolved configuration.

    Worker pools are expensive to start, so every decode entry point
    (:meth:`ObjectStore.try_decode_blocks`, the serving pipeline) shares
    one engine per ``(workers, cluster_shards)`` resolution; the pools
    are torn down at interpreter exit.  Sharing also keeps the engine's
    :class:`StageProfile` warm across cycles.
    """
    key = (resolve_worker_count(workers), resolve_cluster_shards(cluster_shards))
    engine = _shared_engines.get(key)
    if engine is None:
        engine = DecodeEngine(workers=key[0], cluster_shards=key[1])
        _shared_engines[key] = engine
    return engine


@atexit.register
def _shutdown_shared_engines() -> None:  # pragma: no cover - exit hook
    for engine in _shared_engines.values():
        engine.shutdown()


__all__ = [
    "DecodeEngine",
    "DecodeOutcome",
    "DecodeTask",
    "StageProfile",
    "resolve_worker_count",
    "shared_engine",
]
