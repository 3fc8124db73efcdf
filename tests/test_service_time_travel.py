"""Time-travel reads and snapshot-backed ``compare()`` in the pipeline.

Covers the serving-layer half of the copy-on-write snapshot subsystem:

* ``ServiceRequest(op="read", as_of=...)`` serves historical object
  versions resolved against the pipeline's committed-state timeline;
* time-travel reads skip the per-object write barrier in both
  directions (they never wait for pending writes and never delay them);
* ``compare()`` runs every policy × fidelity combination from one
  snapshotted seed store with byte-identical per-request outcomes to the
  rebuild-per-policy path it replaces;
* ``multi_tenant_trace(time_travel_fraction=...)`` emits as_of reads and
  keeps default traces bit-identical.

Everything here runs without numpy (the wetlab-fidelity time-travel
integration self-skips); the suite must pass on the fallback backend.
"""

import zlib

import pytest

from repro.exceptions import ServiceError
from repro.service import POLICIES, ServiceConfig, ServicePipeline, ServiceRequest
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads import RequestEvent, multi_tenant_trace
from repro.workloads.objects import object_corpus


def build_store(objects=4, leaf_count=32):
    store = ObjectStore(
        DnaVolume(
            config=VolumeConfig(
                partition_leaf_count=leaf_count, stripe_blocks=2, stripe_width=2
            )
        )
    )
    block_size = store.volume.block_size
    corpus = object_corpus(
        {f"obj-{i}": block_size * (1 + i % 3) for i in range(objects)}, seed=7
    )
    for name, data in corpus.items():
        store.put(name, data)
    return store, {name: len(data) for name, data in corpus.items()}


def pipeline(store, **overrides):
    return ServicePipeline(store, config=ServiceConfig(**overrides))


class TestAsOfRequests:
    def test_as_of_only_valid_on_reads(self):
        with pytest.raises(ServiceError):
            ServiceRequest(
                request_id=0, tenant="t", object_name="o",
                op="update", payload=b"x", as_of=1.0,
            )
        with pytest.raises(ServiceError):
            ServiceRequest(
                request_id=0, tenant="t", object_name="o", as_of=-0.5
            )

    def test_nan_as_of_fails_alone(self):
        """A NaN as_of used to stop the timeline's sampling, so every other
        time-travel read in the run served the run's starting bytes."""

        def run(extra):
            store, _ = build_store()
            trace = [
                *extra,
                RequestEvent(
                    time_hours=0.1, tenant="w", object_name="obj-0",
                    op="update", payload=b"TIMETRAVEL",
                ),
                RequestEvent(
                    time_hours=40.0, tenant="r", object_name="obj-0", as_of=30.0
                ),
            ]
            return pipeline(store).run(trace, "batched"), store.get("obj-0")

        nan_read = RequestEvent(
            time_hours=0.0, tenant="n", object_name="obj-1", as_of=float("nan")
        )
        report, updated = run([nan_read])
        (failed,) = report.failed
        assert failed.tenant == "n" and "as_of" in failed.reason
        (read,) = [item for item in report.completed if item.request.tenant == "r"]
        alone, _ = run([])
        (expected,) = [item for item in alone.completed if item.request.tenant == "r"]
        assert read.checksum == expected.checksum == zlib.crc32(updated)

    def test_time_travel_read_sees_pre_update_version(self):
        store, _ = build_store()
        original = store.get("obj-0")
        sim = pipeline(store, window_hours=0.2)
        trace = [
            RequestEvent(time_hours=0.1, tenant="r", object_name="obj-0"),
            RequestEvent(
                time_hours=0.5, tenant="w", object_name="obj-0",
                op="update", payload=b"TIMETRAVEL",
            ),
            # Admitted long after the update committed: the live read
            # sees the new bytes, the as_of read the pre-update version.
            RequestEvent(time_hours=40.0, tenant="r", object_name="obj-0"),
            RequestEvent(
                time_hours=40.5, tenant="r", object_name="obj-0", as_of=0.2
            ),
        ]
        report = sim.run(trace, "batched", keep_data=True)
        assert report.failed == ()
        updated = bytearray(original)
        updated[0 : len(b"TIMETRAVEL")] = b"TIMETRAVEL"
        assert report.payloads[0] == original
        assert report.payloads[2] == bytes(updated)
        assert report.payloads[3] == original
        # The run released its timeline snapshots on the way out.
        assert store.volume.live_snapshots() == []

    def test_as_of_after_commit_sees_the_committed_write(self):
        store, _ = build_store()
        sim = pipeline(store, window_hours=0.2)
        trace = [
            RequestEvent(
                time_hours=0.5, tenant="w", object_name="obj-0",
                op="update", payload=b"COMMITTED",
            ),
            RequestEvent(
                # as_of far past the write's commit time: resolves to the
                # post-commit snapshot.
                time_hours=60.0, tenant="r", object_name="obj-0", as_of=50.0
            ),
        ]
        report = sim.run(trace, "batched", keep_data=True)
        assert report.failed == ()
        assert report.payloads[1][: len(b"COMMITTED")] == b"COMMITTED"

    def test_time_travel_read_does_not_wait_for_pending_write(self):
        """A live read admitted behind a write waits for its synthesis to
        commit; an as_of read of the same object is served from the
        immutable snapshot and completes long before the commit."""
        store, _ = build_store()
        sim = pipeline(store, window_hours=0.2, synthesis_setup_hours=48.0)
        trace = [
            RequestEvent(
                time_hours=0.1, tenant="w", object_name="obj-1",
                op="update", payload=b"SLOW",
            ),
            RequestEvent(time_hours=0.2, tenant="r", object_name="obj-1"),
            RequestEvent(
                time_hours=0.2, tenant="t", object_name="obj-1", as_of=0.05
            ),
        ]
        report = sim.run(trace, "batched")
        assert report.failed == ()
        by_id = {c.request.request_id: c for c in report.completed}
        commit = by_id[0].completion_hours
        assert commit >= 48.0
        assert by_id[1].completion_hours > commit  # live read waited
        assert by_id[2].completion_hours < commit  # historical read didn't

    def test_time_travel_read_of_deleted_object_still_serves(self):
        store, _ = build_store()
        original = store.get("obj-2")
        sim = pipeline(store, window_hours=0.2)
        trace = [
            RequestEvent(
                time_hours=0.3, tenant="w", object_name="obj-2", op="delete"
            ),
            RequestEvent(
                time_hours=30.0, tenant="r", object_name="obj-2", as_of=0.1
            ),
            RequestEvent(time_hours=30.1, tenant="r", object_name="obj-2"),
        ]
        report = sim.run(trace, "batched", keep_data=True)
        # The live read fails (object gone); the historical read serves.
        assert [f.request_id for f in report.failed] == [2]
        assert report.payloads[1] == original

    def test_time_travel_trace_is_deterministic(self):
        store, catalog = build_store()
        trace = multi_tenant_trace(
            catalog,
            tenants=4,
            requests=60,
            duration_hours=12.0,
            seed=11,
            update_fraction=0.1,
            time_travel_fraction=0.3,
        )
        sim = pipeline(store, window_hours=0.5)
        first = sim.compare(trace)
        second = sim.compare(trace)
        for policy in POLICIES:
            assert first[policy].checksum == second[policy].checksum
            assert first[policy].latency == second[policy].latency
            assert (
                first[policy].pcr_reactions == second[policy].pcr_reactions
            )


class TestCompareParity:
    def _mixed_trace(self, store):
        block_size = store.volume.block_size
        new_object = object_corpus({"fresh": 2 * block_size}, seed=99)["fresh"]
        return [
            RequestEvent(time_hours=0.1, tenant="r1", object_name="obj-0"),
            RequestEvent(time_hours=0.2, tenant="r2", object_name="obj-1"),
            RequestEvent(
                time_hours=0.3, tenant="w1", object_name="obj-0",
                op="update", payload=b"PARITY",
            ),
            RequestEvent(time_hours=0.4, tenant="r3", object_name="obj-0"),
            RequestEvent(
                time_hours=0.5, tenant="w2", object_name="fresh",
                op="put", payload=new_object,
            ),
            RequestEvent(time_hours=0.6, tenant="r4", object_name="fresh"),
            RequestEvent(
                time_hours=0.7, tenant="w3", object_name="obj-2", op="delete"
            ),
            RequestEvent(time_hours=25.0, tenant="r5", object_name="obj-2"),
            RequestEvent(
                time_hours=26.0, tenant="r6", object_name="obj-2", as_of=0.1
            ),
            RequestEvent(time_hours=27.0, tenant="r7", object_name="obj-0"),
        ]

    @staticmethod
    def _byte_fingerprint(report):
        """Per-request byte outcomes plus synthesis volume.

        This is the parity contract for traces carrying updates: a seed
        snapshot turns in-place patch slots into copy-on-write redirects,
        so the *physical layout* (PCR access counts, cycle latencies) may
        differ from an unsnapshotted store while every delivered byte,
        failure and synthesized strand is identical.
        """
        return (
            tuple(
                (
                    c.request.request_id,
                    c.byte_count,
                    c.checksum,
                    c.served_from_cache,
                    c.attempts,
                )
                for c in sorted(report.completed, key=lambda c: c.request.request_id)
            ),
            tuple((f.request_id, f.reason) for f in report.failed),
            report.synthesis_orders,
            report.synthesized_strands,
            report.synthesized_nucleotides,
            report.decoded_bytes,
            report.written_bytes,
            report.checksum,
        )

    @staticmethod
    def _full_fingerprint(report):
        """The whole report — the parity contract for read-only traces."""
        return (
            tuple(
                (
                    c.request.request_id,
                    c.completion_hours,
                    c.byte_count,
                    c.checksum,
                    c.served_from_cache,
                    c.attempts,
                )
                for c in report.completed
            ),
            tuple((f.request_id, f.reason) for f in report.failed),
            report.pcr_reactions,
            report.sequenced_reads,
            report.amplified_blocks,
            report.latency,
            report.makespan_hours,
            report.checksum,
        )

    def test_compare_matches_rebuild_path_byte_for_byte_mixed(self):
        """On a mixed trace, the snapshot-restore compare() reproduces the
        rebuild-per-policy path's per-request byte outcomes exactly."""
        seed_store, _ = build_store()
        trace = self._mixed_trace(seed_store)

        rebuild = {}
        for policy in POLICIES:
            fresh_store, _ = build_store()
            rebuild[policy] = pipeline(fresh_store, window_hours=0.5).run(
                trace, policy
            )

        snapshotted = pipeline(seed_store, window_hours=0.5).compare(trace)
        for policy in POLICIES:
            assert self._byte_fingerprint(
                snapshotted[policy]
            ) == self._byte_fingerprint(rebuild[policy]), policy

    def test_compare_matches_rebuild_path_fully_read_only(self):
        """On a read-only trace, compare() is a bit-for-bit drop-in for the
        rebuild path: identical latencies and wetlab accounting too."""
        seed_store, catalog = build_store()
        trace = multi_tenant_trace(
            catalog, tenants=5, requests=60, duration_hours=10.0, seed=17
        )
        rebuild = {}
        for policy in POLICIES:
            fresh_store, _ = build_store()
            rebuild[policy] = pipeline(fresh_store, window_hours=0.5).run(
                trace, policy
            )
        snapshotted = pipeline(seed_store, window_hours=0.5).compare(trace)
        for policy in POLICIES:
            assert self._full_fingerprint(
                snapshotted[policy]
            ) == self._full_fingerprint(rebuild[policy]), policy

    def test_compare_outcomes_identical_across_policies(self):
        """Per-object FIFO ordering makes every policy decode the same
        bytes even on mixed traces — compare() can now prove it.  (Time-
        travel reads are excluded here by construction: they observe the
        *committed* state at their timestamp, and commit schedules
        legitimately differ per policy.)"""
        store, catalog = build_store()
        trace = multi_tenant_trace(
            catalog,
            tenants=5,
            requests=80,
            duration_hours=10.0,
            seed=23,
            update_fraction=0.15,
            put_fraction=0.05,
        )
        reports = pipeline(store, window_hours=0.5).compare(trace)
        assert len({r.checksum for r in reports.values()}) == 1
        assert len({len(r.completed) for r in reports.values()}) == 1

    def test_compare_policy_fidelity_grid_keys(self):
        store, catalog = build_store(objects=2)
        trace = multi_tenant_trace(
            catalog, tenants=2, requests=6, duration_hours=2.0, seed=3
        )
        reports = pipeline(store).compare(
            trace, policies=("unbatched", "batched"), fidelities=("reference",)
        )
        assert sorted(reports) == ["batched", "unbatched"]
        with pytest.raises(ServiceError):
            pipeline(store).compare(trace, fidelities=())

    def test_compare_restores_seed_and_releases_snapshot_on_error(self):
        store, _ = build_store(objects=2)
        seed_bytes = {name: store.get(name) for name in store.names()}
        sim = pipeline(store)
        with pytest.raises(ServiceError):
            sim.compare([], policies=("batched",))  # empty trace
        assert store.volume.live_snapshots() == []
        for name, data in seed_bytes.items():
            assert store.get(name) == data


class TestTimeTravelTraceGeneration:
    def test_default_traces_carry_no_as_of(self):
        _, catalog = build_store()
        trace = multi_tenant_trace(
            catalog, tenants=3, requests=40, duration_hours=8.0, seed=5
        )
        assert all(event.as_of is None for event in trace)

    def test_fraction_emits_as_of_reads_only(self):
        _, catalog = build_store()
        trace = multi_tenant_trace(
            catalog,
            tenants=3,
            requests=200,
            duration_hours=8.0,
            seed=5,
            update_fraction=0.2,
            time_travel_fraction=0.5,
        )
        travellers = [event for event in trace if event.as_of is not None]
        assert travellers, "a 0.5 fraction must emit some as_of reads"
        for event in travellers:
            assert event.op == "read"
            assert 0.0 <= event.as_of < event.time_hours
        reads = [event for event in trace if event.op == "read"]
        share = len(travellers) / len(reads)
        assert 0.3 < share < 0.7

    def test_fraction_validated(self):
        _, catalog = build_store(objects=2)
        with pytest.raises(Exception):
            multi_tenant_trace(
                catalog, tenants=1, requests=1, time_travel_fraction=1.5
            )


class TestWetlabTimeTravel:
    def test_wetlab_fidelity_serves_historical_versions(self):
        """Historical blocks are physical strands still in the pool: an
        as_of read amplifies, sequences and decodes like any other access
        and must match the reference path byte for byte."""
        try:
            import numpy  # noqa: F401
        except ImportError:
            pytest.skip("wetlab fidelity requires numpy")
        store, _ = build_store(objects=3, leaf_count=16)
        original = store.get("obj-0")
        config = dict(window_hours=0.3, reads_per_block=150)
        trace = [
            RequestEvent(time_hours=0.1, tenant="r", object_name="obj-0"),
            RequestEvent(
                time_hours=0.5, tenant="w", object_name="obj-0",
                op="update", payload=b"WETLAB-TT",
            ),
            RequestEvent(time_hours=40.0, tenant="r", object_name="obj-0"),
            RequestEvent(
                time_hours=40.4, tenant="r", object_name="obj-0", as_of=0.2
            ),
        ]
        wetlab = pipeline(store, **config).run(
            trace, "batched", fidelity="wetlab", keep_data=True
        )
        assert wetlab.failed == ()
        assert wetlab.payloads[3] == original
        assert wetlab.payloads[2][: len(b"WETLAB-TT")] == b"WETLAB-TT"

    def test_compare_parity_at_wetlab_fidelity(self):
        try:
            import numpy  # noqa: F401
        except ImportError:
            pytest.skip("wetlab fidelity requires numpy")
        trace = [
            RequestEvent(time_hours=0.1, tenant="r1", object_name="obj-0"),
            RequestEvent(
                time_hours=0.2, tenant="w1", object_name="obj-1",
                op="update", payload=b"WET",
            ),
            RequestEvent(time_hours=0.3, tenant="r2", object_name="obj-1"),
            RequestEvent(time_hours=20.0, tenant="r3", object_name="obj-0"),
        ]
        rebuild_store, _ = build_store(objects=3, leaf_count=16)
        rebuild = pipeline(
            rebuild_store, window_hours=0.3, reads_per_block=150
        ).run(trace, "batched+cache", fidelity="wetlab")

        seed_store, _ = build_store(objects=3, leaf_count=16)
        snapshotted = pipeline(
            seed_store, window_hours=0.3, reads_per_block=150
        ).compare(trace, policies=("batched+cache",), fidelity="wetlab")
        report = snapshotted["batched+cache"]
        # Byte parity (the wetlab path also asserts every request's
        # checksum against the digital reference while serving); layout
        # metrics may differ because the update CoW-redirected.
        assert report.checksum == rebuild.checksum
        assert report.failed == rebuild.failed == ()
        assert report.synthesized_strands == rebuild.synthesized_strands
        assert len(report.completed) == len(rebuild.completed)
