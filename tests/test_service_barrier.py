"""Differential tests for the serving loop's per-object write barrier.

:class:`ObjectBarrier` replaced a per-object FIFO of mutable
``[kind, request_id, dispatched]`` triples that was rescanned on every
admission and rebuilt on every completion.  ``ReferenceFifo`` below keeps
that list-of-triples FIFO as the reference model: Hypothesis drives both
with the same operation sequences and every answer, and every release
order, must agree.  An end-to-end property then serves small random mixed
traces through every policy and checks each request's outcome against a
sequential model of the store: a read observes exactly the writes
admitted before it.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ServiceError
from repro.service import ServiceConfig, ServicePipeline, ServiceRequest
from repro.service.barrier import ObjectBarrier
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads import RequestEvent
from repro.workloads.objects import synthetic_object

OBJECTS = ("hot-0", "hot-1", "hot-2")


class ReferenceFifo:
    """The barrier as a per-object list of ``[kind, request_id,
    dispatched]`` triples, walked linearly on every question."""

    def __init__(self):
        self.fifo = {}
        self.held = {}

    def enter(self, request):
        self.fifo.setdefault(request.object_name, []).append(
            ["write" if request.is_write else "read", request.request_id, False]
        )
        if request.is_write or not self.write_ahead(request):
            return False
        self.held[request.request_id] = request
        return True

    def write_ahead(self, request):
        for kind, request_id, _ in self.fifo.get(request.object_name, ()):
            if request_id == request.request_id:
                return False
            if kind == "write":
                return True
        return False

    def leave(self, name, request_id):
        remaining = [e for e in self.fifo.get(name, ()) if e[1] != request_id]
        if remaining:
            self.fifo[name] = remaining
        else:
            self.fifo.pop(name, None)

    def mark_dispatched(self, request):
        for entry in self.fifo.get(request.object_name, ()):
            if entry[1] == request.request_id:
                entry[2] = True
                break

    def write_eligible(self, request):
        for kind, request_id, dispatched in self.fifo.get(request.object_name, ()):
            if request_id == request.request_id:
                return True
            if kind == "read" or dispatched:
                return False
        return False

    def release(self, name):
        released = []
        for kind, request_id, _ in list(self.fifo.get(name, ())):
            if kind == "write":
                break
            request = self.held.pop(request_id, None)
            if request is not None:
                released.append(request)
        return released


ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "leave", "dispatch", "release"]),
        st.integers(0, 2),
        st.integers(0, 63),
    ),
    max_size=80,
)


class TestAgainstReferenceFifo:
    @settings(max_examples=300, deadline=None)
    @given(objects=st.integers(1, 3), actions=ACTIONS)
    def test_same_answers_and_release_order(self, objects, actions):
        barrier, model = ObjectBarrier(), ReferenceFifo()
        outstanding = {}  # request id -> request, every entered operation
        dispatched = set()

        def check_state():
            """Both agree on every queued write's eligibility and on the
            totals, after every step."""
            for request in outstanding.values():
                if request.is_write and request.request_id not in dispatched:
                    assert barrier.write_eligible(request) == model.write_eligible(
                        request
                    )
            assert bool(barrier) == bool(model.fifo)
            assert barrier.pending() == (
                sum(len(entries) for entries in model.fifo.values()),
                len(model.held),
            )

        for step, (action, index, pick) in enumerate(actions):
            name = OBJECTS[index % objects]
            if action in ("read", "write"):
                request = ServiceRequest(
                    request_id=step,
                    tenant="t",
                    object_name=name,
                    op="read" if action == "read" else "delete",
                )
                outstanding[step] = request
                assert barrier.enter(request) == model.enter(request)
            elif action == "release":
                released = barrier.release(name)
                assert released == model.release(name)
            else:
                # Held reads leave only after their release, as in the loop.
                if action == "leave":
                    candidates = [r for r in outstanding if r not in model.held]
                else:
                    candidates = [
                        r
                        for r, request in outstanding.items()
                        if request.is_write and r not in dispatched
                    ]
                if not candidates:
                    continue
                request = outstanding[candidates[pick % len(candidates)]]
                if action == "leave":
                    del outstanding[request.request_id]
                    dispatched.discard(request.request_id)
                    barrier.leave(request.object_name, request.request_id)
                    model.leave(request.object_name, request.request_id)
                else:
                    dispatched.add(request.request_id)
                    barrier.mark_dispatched(request)
                    model.mark_dispatched(request)
            check_state()

        # Drain: every write leaves, every held read is released and leaves.
        for request_id in [r for r in outstanding if r not in model.held]:
            request = outstanding.pop(request_id)
            barrier.leave(request.object_name, request_id)
            model.leave(request.object_name, request_id)
        for name in OBJECTS:
            released = barrier.release(name)
            assert released == model.release(name)
            for request in released:
                barrier.leave(name, request.request_id)
                model.leave(name, request.request_id)
        check_state()
        assert not barrier

    def test_release_stops_at_the_first_outstanding_write(self):
        barrier = ObjectBarrier()

        def enter(request_id, op):
            request = ServiceRequest(
                request_id=request_id, tenant="t", object_name="obj", op=op
            )
            return request, barrier.enter(request)

        first_write, _ = enter(0, "delete")
        (r1, held1), (w2, _), (r3, held3) = (
            enter(1, "read"),
            enter(2, "delete"),
            enter(3, "read"),
        )
        assert held1 and held3
        assert barrier.write_eligible(first_write)
        assert not barrier.write_eligible(w2)  # behind the read r1
        barrier.mark_dispatched(first_write)
        assert barrier.release("obj") == []
        barrier.leave("obj", 0)
        assert barrier.release("obj") == [r1]
        barrier.leave("obj", 1)
        assert barrier.write_eligible(w2)
        barrier.leave("obj", 2)
        assert barrier.release("obj") == [r3]
        barrier.leave("obj", 3)
        assert not barrier and barrier.pending() == (0, 0)


# ----------------------------------------------------------------------
# End to end: served outcomes against a sequential store model
# ----------------------------------------------------------------------
BLOCK = 256
#: hot-2 starts absent, so reads fail and puts succeed until it exists.
SEED_OBJECTS = {
    "hot-0": synthetic_object(2 * BLOCK, seed=1),
    "hot-1": synthetic_object(3 * BLOCK, seed=2),
}
#: Update slots per block are 3 (``slots_per_block=4``); capping updates
#: per name keeps slot exhaustion, which the model does not track, away.
MAX_UPDATES_PER_OBJECT = 3


def seed_store():
    store = ObjectStore(
        DnaVolume(
            config=VolumeConfig(
                partition_leaf_count=32, stripe_blocks=2, stripe_width=2
            )
        )
    )
    for name, data in SEED_OBJECTS.items():
        store.put(name, data)
    return store


@st.composite
def mixed_traces(draw):
    names = OBJECTS[: draw(st.integers(1, 3))]
    updates = dict.fromkeys(names, 0)
    events = []
    now = 0.0
    for tick in range(draw(st.integers(1, 20))):
        # Same instant, same window, next window, or past a synthesis.
        now += draw(st.sampled_from([0.0, 0.1, 0.7, 13.0]))
        name = draw(st.sampled_from(names))
        op = draw(st.sampled_from(["read", "read", "read", "update", "put", "delete"]))
        if op == "update" and updates[name] >= MAX_UPDATES_PER_OBJECT:
            op = "read"
        if op == "read":
            event = RequestEvent(
                now, "t", name,
                offset=draw(st.integers(0, 3 * BLOCK)),
                length=draw(st.one_of(st.none(), st.integers(0, BLOCK))),
            )
        elif op == "update":
            updates[name] += 1
            event = RequestEvent(
                now, "t", name, op="update",
                offset=draw(st.integers(0, 3 * BLOCK)),
                payload=draw(st.binary(min_size=1, max_size=8)),
            )
        elif op == "put":
            event = RequestEvent(
                now, "t", name, op="put",
                payload=synthetic_object(draw(st.integers(1, 3 * BLOCK)), seed=tick),
            )
        else:
            event = RequestEvent(now, "t", name, op="delete")
        events.append(event)
    return events


def sequential_outcomes(trace):
    """Request id -> payload CRC32 (None = the request fails), applying the
    trace one request at a time in admission order."""
    objects = dict(SEED_OBJECTS)
    outcomes = {}
    ordered = sorted(trace, key=lambda event: event.time_hours)
    for request_id, event in enumerate(ordered):
        data = objects.get(event.object_name)
        outcome = None
        if event.op == "put":
            if data is None:
                objects[event.object_name] = event.payload
                outcome = zlib.crc32(event.payload)
        elif data is None:
            pass  # unknown object
        elif event.op == "delete":
            del objects[event.object_name]
            outcome = zlib.crc32(b"")
        elif event.op == "update":
            end = event.offset + len(event.payload)
            if end <= len(data):
                objects[event.object_name] = data[: event.offset] + event.payload + data[end:]
                outcome = zlib.crc32(event.payload)
        else:
            end = len(data) if event.length is None else event.offset + event.length
            if event.offset <= end <= len(data):
                outcome = zlib.crc32(data[event.offset : end])
        outcomes[request_id] = outcome
    return outcomes


class TestServedOutcomesMatchSequentialModel:
    def test_stranded_request_fails_the_run(self, monkeypatch):
        """A request still inside the barrier when the event heap drains
        never reached an outcome; run() raises instead of reporting it as
        neither served nor failed."""
        monkeypatch.setattr(ObjectBarrier, "release", lambda self, name: [])
        trace = [
            RequestEvent(0.1, "t", "hot-0", op="update", payload=b"x"),
            RequestEvent(0.2, "t", "hot-0"),  # held behind the update
        ]
        with pytest.raises(
            ServiceError,
            match=r"ended with 1 request\(s\) that never reached a terminal "
            r"outcome \(1 of them reads held behind a write\)",
        ):
            ServicePipeline(seed_store()).run(trace, "batched")

    @settings(max_examples=150, deadline=None)
    @given(trace=mixed_traces())
    def test_every_policy_serves_the_sequential_outcome(self, trace):
        expected = sequential_outcomes(trace)
        reports = ServicePipeline(
            seed_store(), config=ServiceConfig(window_hours=0.5)
        ).compare(trace)
        for policy, report in reports.items():
            served = {c.request.request_id: c.checksum for c in report.completed}
            failed = {f.request_id: None for f in report.failed}
            assert len(served) + len(failed) == len(trace), policy
            assert {**served, **failed} == expected, policy
