"""Tests for the process-parallel decode engine.

The engine's contract is strict determinism: decoded payloads, per-block
reports and failure strings must be byte-identical for every worker count
(1 = inline serial, N = process pool), at every clustering shard count,
for either distance backend (by name or as an instance), and with the
fused kernels on or off.  Everything here runs without numpy except the
tests that explicitly request the numpy distance backend or
wetlab-fidelity sequencing.
"""

import os
import pickle

import pytest

from repro.exceptions import DecodingError, ServiceError
from repro.pipeline import parallel
from repro.pipeline.distance import NumpyDistanceBackend, PythonDistanceBackend
from repro.pipeline.parallel import (
    DecodeEngine,
    DecodeTask,
    StageProfile,
    resolve_worker_count,
)
from repro.observability.stages import collect_stages, record_stages
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads.objects import object_corpus


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _distance_backends() -> list[str]:
    backends = ["python"]
    if _numpy_available():
        backends.append("numpy")
    return backends


def _distance_backend_specs() -> list[str]:
    """Each backend by name, then as an instance (``"<name>-instance"``)."""
    names = _distance_backends()
    return names + [f"{name}-instance" for name in names]


@pytest.fixture(scope="module")
def workload():
    """A two-partition store with digitally perfect reads (numpy-free).

    Each written partition contributes every strand three times — enough
    coverage for clustering and consensus without a sequencing simulator,
    so the engine's determinism is testable on the pure-Python stack.
    """
    volume = DnaVolume(
        config=VolumeConfig(partition_leaf_count=16, stripe_blocks=2, stripe_width=2)
    )
    store = ObjectStore(volume)
    corpus = object_corpus(
        {f"obj-{i}": volume.block_size * 3 for i in range(3)}, seed=7
    )
    for name, data in corpus.items():
        store.put(name, data)
    blocks: dict[str, list[int]] = {}
    reads: dict[str, list[str]] = {}
    for partition_name in volume.partition_names:
        partition = volume.partition(partition_name)
        written = partition.written_blocks()
        if not written:
            continue
        blocks[partition_name] = list(written)
        reads[partition_name] = [
            molecule.to_strand()
            for molecule in partition.all_molecules()
            for _ in range(3)
        ]
    assert len(blocks) >= 2, "the engine should get several tasks"
    return store, blocks, reads


def _tasks(store, blocks, reads) -> list[DecodeTask]:
    return [
        DecodeTask(
            partition=store.volume.partition(name),
            reads=reads[name],
            blocks=targets,
        )
        for name, targets in blocks.items()
    ]


def _backend_instance(name: str):
    return {"python": PythonDistanceBackend, "numpy": NumpyDistanceBackend}[name]()


def _distance_backend(spec: str):
    name, _, instance = spec.partition("-")
    return _backend_instance(name) if instance else name


@pytest.fixture
def restart_shared_pools():
    """Restarts the shared engines' pools, during and after the test.

    Pools fork lazily and their workers keep the environment of that
    moment; a test that flips a kernel flag restarts them so workers see
    the flag, and no later test decodes on workers forked under it.
    """
    yield parallel._shutdown_shared_engines
    parallel._shutdown_shared_engines()


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_WORKERS", "7")
        assert resolve_worker_count(3) == 3

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_WORKERS", "5")
        assert resolve_worker_count(None) == 5

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_DECODE_WORKERS", raising=False)
        assert resolve_worker_count(None) == (os.cpu_count() or 1)

    def test_rejects_non_integer_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_WORKERS", "many")
        with pytest.raises(DecodingError):
            resolve_worker_count(None)

    def test_rejects_zero_workers(self):
        with pytest.raises(DecodingError):
            resolve_worker_count(0)

    def test_service_config_validates_decode_workers(self):
        from repro.service import ServiceConfig

        with pytest.raises(ServiceError):
            ServiceConfig(decode_workers=0)
        assert ServiceConfig(decode_workers=2).decode_workers == 2

    def test_service_config_validates_cluster_shards(self):
        from repro.service import ServiceConfig

        with pytest.raises(ServiceError):
            ServiceConfig(decode_cluster_shards=0)
        assert ServiceConfig(decode_cluster_shards=4).decode_cluster_shards == 4


# ----------------------------------------------------------------------
# Byte-identity across worker counts and backends
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("distance_backend", _distance_backend_specs())
    def test_worker_counts_decode_identically(
        self, workload, monkeypatch, restart_shared_pools, distance_backend
    ):
        # Every pool shape (workers x cluster shards), with the fused
        # kernels on and off, decodes exactly like inline workers=1.  A
        # backend instance crosses the pool by name.
        store, blocks, reads = workload
        distance_backend = _distance_backend(distance_backend)
        for fused in ("1", "0"):
            monkeypatch.setenv("REPRO_FUSED_KERNELS", fused)
            restart_shared_pools()
            inline = store.try_decode_blocks(
                blocks, reads, workers=1, distance_backend=distance_backend
            )
            payloads, failures = inline
            assert not failures
            assert set(payloads) == {
                (name, block)
                for name, targets in blocks.items()
                for block in targets
            }
            for shards in (1, 4):
                for workers in (2, 4):
                    pooled = store.try_decode_blocks(
                        blocks,
                        reads,
                        workers=workers,
                        cluster_shards=shards,
                        distance_backend=distance_backend,
                    )
                    assert pooled == inline, (fused, shards, workers)

    @pytest.mark.parametrize("codec_backend", ["python", "numpy"])
    def test_codec_backends_decode_identically(self, workload, monkeypatch, codec_backend):
        if codec_backend == "numpy" and not _numpy_available():
            pytest.skip("numpy codec backend unavailable")
        store, blocks, reads = workload
        monkeypatch.setenv("REPRO_CODEC_BACKEND", codec_backend)
        tasks = _tasks(store, blocks, reads)
        # Fresh engines so the pooled workers fork *after* the env change
        # and resolve the same backend as the inline run.
        serial = DecodeEngine(workers=1)
        pooled = DecodeEngine(workers=2)
        try:
            inline = serial.decode(tasks)
            forked = pooled.decode(tasks)
        finally:
            pooled.shutdown()
        assert [outcome.reports for outcome in inline] == [
            outcome.reports for outcome in forked
        ]
        for outcome in inline:
            assert all(report.success for report in outcome.reports.values())

    def test_fused_and_reference_kernels_decode_identically(
        self, workload, monkeypatch
    ):
        store, blocks, reads = workload
        outputs = {}
        for flag in ("0", "1"):
            monkeypatch.setenv("REPRO_FUSED_KERNELS", flag)
            outputs[flag] = store.try_decode_blocks(blocks, reads, workers=1)
        assert outputs["0"] == outputs["1"]
        assert not outputs["1"][1]

    @pytest.mark.parametrize("passes", [1, 2])
    def test_sharded_staged_decode_is_byte_identical(self, workload, passes):
        # A cold stage profile sends an unprofiled syndrome solve to a
        # worker; once warm, the cheap solves run in the parent.  Either
        # schedule decodes exactly like inline workers=1.
        store, blocks, reads = workload
        tasks = _tasks(store, blocks, reads)
        inline = DecodeEngine(workers=1).decode(tasks)
        baseline = [outcome.reports for outcome in inline]
        assert all(
            report.success for reports in baseline for report in reports.values()
        )
        engine = DecodeEngine(workers=2, cluster_shards=4)
        try:
            for _ in range(passes):
                staged = engine.decode(tasks)
                assert [outcome.reports for outcome in staged] == baseline
        finally:
            engine.shutdown()

    def test_missing_partition_reads_fail_identically(self, workload):
        store, blocks, reads = workload
        partial = dict(reads)
        dropped = next(iter(partial))
        del partial[dropped]
        serial = store.try_decode_blocks(blocks, partial, workers=1)
        pooled = store.try_decode_blocks(blocks, partial, workers=2)
        assert serial == pooled
        for block in blocks[dropped]:
            assert (
                serial[1][(dropped, block)]
                == f"no reads provided for partition {dropped!r}"
            )


# ----------------------------------------------------------------------
# Robustness and stage scheduling
# ----------------------------------------------------------------------
class TestEngineInternals:
    def _assert_recovers_from_broken_pool(self, workload, shards):
        store, blocks, reads = workload
        tasks = _tasks(store, blocks, reads)
        engine = DecodeEngine(workers=2, cluster_shards=shards)
        try:
            expected = engine.decode(tasks)
            # Kill the pool out from under the engine: submissions now
            # raise, and every task must still decode (inline).
            engine._pool().shutdown(wait=True)
            recovered = engine.decode(tasks)
        finally:
            engine.shutdown()
        assert [outcome.reports for outcome in recovered] == [
            outcome.reports for outcome in expected
        ]
        inline = DecodeEngine(workers=1).decode(tasks)
        assert [outcome.reports for outcome in recovered] == [
            outcome.reports for outcome in inline
        ]

    def test_broken_pool_falls_back_inline(self, workload):
        # One shard: one cluster task and one consensus batch per readout.
        self._assert_recovers_from_broken_pool(workload, shards=1)

    def test_staged_broken_pool_falls_back_inline(self, workload):
        self._assert_recovers_from_broken_pool(workload, shards=4)

    def test_stage_profile_predicts_after_observation(self):
        profile = StageProfile()
        assert profile.predict("cluster", 100) is None
        profile.observe("cluster", 100, 1.0)
        assert profile.predict("cluster", 200) == pytest.approx(2.0)
        # EWMA: 0.1 + (0.3 - 0.1) * alpha, alpha = 0.4
        profile.observe("solve", 10, 1.0)
        profile.observe("solve", 10, 3.0)
        assert profile.predict("solve", 10) == pytest.approx(1.8)
        assert profile.snapshot()["solve"] == pytest.approx(0.18)
        profile.observe("solve", 10, -1.0)  # clock skew: ignored
        assert profile.snapshot()["solve"] == pytest.approx(0.18)

    def test_staged_decode_warms_the_stage_profile(self, workload):
        store, blocks, reads = workload
        for shards in (1, 4):
            engine = DecodeEngine(workers=2, cluster_shards=shards)
            try:
                engine.decode(_tasks(store, blocks, reads))
            finally:
                engine.shutdown()
            rates = engine.profile.snapshot()
            assert rates.get("cluster", 0.0) > 0.0, shards
            assert rates.get("consensus", 0.0) > 0.0, shards
            assert rates.get("syndrome_solve", 0.0) > 0.0, shards

    @pytest.mark.parametrize("distance_backend", _distance_backends())
    def test_cluster_sharded_takes_backend_instances(
        self, workload, distance_backend
    ):
        from repro.pipeline.clustering import cluster_reads
        from repro.pipeline.decoder import BlockDecoder

        store, blocks, reads = workload
        name = next(iter(blocks))
        decoder = BlockDecoder(store.volume.partition(name))
        start, length = decoder._signature_window()
        window = {"signature_start": start, "signature_length": length}
        expected = cluster_reads(
            reads[name], distance_backend=distance_backend, **window
        )
        engine = DecodeEngine(workers=2, cluster_shards=4)
        try:
            clusters, stats = engine.cluster_sharded(
                reads[name],
                distance_backend=_backend_instance(distance_backend),
                **window,
            )
        finally:
            engine.shutdown()
        assert [(c.signature, c.reads) for c in clusters] == [
            (c.signature, c.reads) for c in expected
        ]
        assert sum(stat["reads"] for stat in stats) == len(reads[name])

    def test_worker_stage_seconds_fold_into_parent_collector(self, workload):
        store, blocks, reads = workload
        with collect_stages() as stages:
            store.try_decode_blocks(blocks, reads, workers=2)
        assert stages.get("cluster", 0.0) > 0.0
        assert "consensus" in stages

    def test_record_stages_accumulates(self):
        with collect_stages() as stages:
            record_stages({"cluster": 1.0, "consensus": 0.5})
            record_stages({"cluster": 0.25})
        assert stages == {"cluster": 1.25, "consensus": 0.5}
        record_stages({"cluster": 9.0})  # no active collector: no-op

    def test_decode_task_pickles_with_shared_galois_tables(self, workload):
        store, blocks, reads = workload
        name = next(iter(blocks))
        task = DecodeTask(
            partition=store.volume.partition(name),
            reads=reads[name][:4],
            blocks=blocks[name],
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone.reads == task.reads
        assert clone.blocks == task.blocks


# ----------------------------------------------------------------------
# Retry cycles under workers > 1
# ----------------------------------------------------------------------
class TestRetryCycles:
    def _injector(self):
        first: list[tuple[int, tuple[str, int]]] = []

        def injector(cycle_id, attempt, key):
            if attempt == 1 and not first:
                first.append((cycle_id, key))
            return attempt == 1 and first[0] == (cycle_id, key)

        return injector

    def _run(self, fidelity: str, workers: int):
        from repro.service import ServiceConfig, ServicePipeline
        from repro.workloads import multi_tenant_trace

        volume = DnaVolume(
            config=VolumeConfig(
                partition_leaf_count=16, stripe_blocks=2, stripe_width=2
            )
        )
        store = ObjectStore(volume)
        corpus = object_corpus(
            {f"obj-{i}": volume.block_size * 2 for i in range(3)}, seed=9
        )
        for name, data in corpus.items():
            store.put(name, data)
        catalog = {name: len(data) for name, data in corpus.items()}
        trace = multi_tenant_trace(
            catalog, tenants=3, requests=8, duration_hours=6.0, seed=11
        )
        simulator = ServicePipeline(
            store,
            config=ServiceConfig(
                window_hours=0.5,
                reads_per_block=120,
                retry_budget=2,
                decode_workers=workers,
                decode_failure_injector=self._injector(),
            ),
        )
        return simulator.run(trace, "batched+cache", fidelity=fidelity)

    def test_injected_failure_retries_with_workers_configured(self):
        # Reference fidelity is numpy-free: the injected failure must ride
        # a retry cycle and recover with multi-worker decode configured.
        report = self._run("reference", workers=2)
        assert report.failed == ()
        assert report.retry_cycles >= 1
        assert report.decode_failures >= 1

    @pytest.mark.skipif(not _numpy_available(), reason="wetlab needs numpy")
    def test_wetlab_retry_cycle_decodes_through_the_pool(self):
        pooled = self._run("wetlab", workers=2)
        serial = self._run("wetlab", workers=1)
        assert pooled.failed == ()
        assert pooled.retry_cycles >= 1
        assert pooled.checksum == serial.checksum
