"""Per-object write barrier of the serving loop.

The paper logs every update as a patch that reads replay in version order
(Section 5.2), so the serving layer must give each object a linear
history: a read observes exactly the writes admitted before it, and a
write never overtakes an earlier read or write of its object.
:class:`ObjectBarrier` is that ordering state.  The pipeline enters every
read and write at admission and makes it leave at its terminal event
(read served or failed; write committed or rejected):

* a read waits (is *held*) while a write admitted before it is
  outstanding, and is released once every such write has left;
* a write is eligible for a synthesis order only when everything
  admitted before it on its object has left or is another queued write
  joining the same order — never past an outstanding read or a write
  already riding an uncommitted order.

Time-travel reads resolve against immutable snapshots and never enter.

Cost per operation, with ``k`` the operations outstanding on the object:
entering, leaving, the hold test and marking a write dispatched are
O(1); a release costs O(reads released); the write-eligibility test
walks the object's operations in admission order and stops at the first
entry that blocks or at the write itself, O(k) at worst.
"""

from __future__ import annotations

from collections import deque

from repro.service.requests import ServiceRequest


class _ObjectOrder:
    """One object's outstanding operations, in admission order."""

    __slots__ = ("ops", "writes", "held")

    def __init__(self) -> None:
        # request id -> whether the entry blocks a later write: True for
        # reads and for writes already riding a synthesis order, False
        # for writes still queued.
        self.ops: dict[int, bool] = {}
        # Outstanding writes: request id -> admission ticket.
        self.writes: dict[int, int] = {}
        # Held reads as (admission ticket, request).
        self.held: deque[tuple[int, ServiceRequest]] = deque()


class ObjectBarrier:
    """Admission-ordered read/write barrier over every object of a run."""

    def __init__(self) -> None:
        self._objects: dict[str, _ObjectOrder] = {}
        self._tickets = 0

    def __bool__(self) -> bool:
        """True while any operation is outstanding (O(1): an object's
        entry is dropped when its last operation leaves)."""
        return bool(self._objects)

    def enter(self, request: ServiceRequest) -> bool:
        """Admit ``request`` behind everything outstanding on its object.

        Returns True when ``request`` is a read that must wait for a write
        admitted before it; the barrier holds it until :meth:`release`
        hands it back.  Writes never wait here (see :meth:`write_eligible`).
        """
        state = self._objects.get(request.object_name)
        if state is None:
            state = self._objects[request.object_name] = _ObjectOrder()
        ticket = self._tickets
        self._tickets += 1
        if request.is_write:
            state.ops[request.request_id] = False
            state.writes[request.request_id] = ticket
            return False
        state.ops[request.request_id] = True
        if not state.writes:
            return False
        state.held.append((ticket, request))
        return True

    def leave(self, object_name: str, request_id: int) -> None:
        """Drop a request at its terminal event (a no-op for requests
        that never entered: time-travel reads, malformed events)."""
        state = self._objects.get(object_name)
        if state is None or state.ops.pop(request_id, None) is None:
            return
        state.writes.pop(request_id, None)
        if not state.ops:
            del self._objects[object_name]

    def mark_dispatched(self, request: ServiceRequest) -> None:
        """Record that an outstanding write rides a synthesis order: no
        later write of its object may dispatch until it commits."""
        self._objects[request.object_name].ops[request.request_id] = True

    def write_eligible(self, request: ServiceRequest) -> bool:
        """Can this queued write join a synthesis order now?

        True when every operation admitted before it on its object is a
        write still queued (the pipeline takes those first, into the same
        order).
        """
        for request_id, blocks in self._objects[request.object_name].ops.items():
            if request_id == request.request_id:
                return True
            if blocks:
                return False
        return False

    def release(self, object_name: str) -> list[ServiceRequest]:
        """Hand back, in admission order, the held reads of an object that
        no outstanding write precedes any more."""
        state = self._objects.get(object_name)
        if state is None or not state.held:
            return []
        first_write = next(iter(state.writes.values()), None)
        released = []
        held = state.held
        while held and (first_write is None or held[0][0] < first_write):
            released.append(held.popleft()[1])
        return released

    def pending(self) -> tuple[int, int]:
        """``(outstanding operations, held reads)`` over every object."""
        return (
            sum(len(state.ops) for state in self._objects.values()),
            sum(len(state.held) for state in self._objects.values()),
        )
