"""Request and completion records for the serving layer.

A :class:`ServiceRequest` is one tenant's operation against the object
store — a byte-range ``read``, a whole-object ``put``, an in-place
``update`` patch, or a ``delete``.  A :class:`CompletedRequest` is its
fully-served outcome, carrying the latency accounting the simulator
reports as the Section 7.4-style p50/p95/p99 numbers.  Payload bytes are
summarized as a CRC32 checksum so simulations over tens of thousands of
requests stay memory-bounded while still letting benchmarks prove that
every serving policy decoded identical bytes.

``ReadRequest`` remains as an alias of :class:`ServiceRequest` (whose
default operation is ``"read"``) for callers of the original read-only
serving layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ServiceError

#: Operations the serving pipeline accepts.
OPERATIONS = ("read", "put", "update", "delete")

#: Operations that mutate the store (queued into synthesis orders).
WRITE_OPERATIONS = ("put", "update", "delete")


@dataclass(frozen=True, slots=True)
class ServiceRequest:
    """One tenant operation admitted to the service front-end.

    Attributes:
        request_id: unique, monotonically assigned admission id.
        tenant: identifier of the issuing tenant.
        object_name: target object in the store catalog.
        offset / length: byte range of a ``read`` (``length=None`` reads
            to the end of the object); ``offset`` is also the patch
            position of an ``update``.
        arrival_hours: arrival time on the simulated clock.
        op: one of :data:`OPERATIONS`.
        payload: the bytes to write (``put``/``update`` only).
        as_of: optional historical timestamp (simulated hours) for a
            *time-travel read*: the object is served as of the committed
            store state at that time (resolved against the pipeline's
            snapshot timeline).  Reads only; historical state is
            immutable, so such reads neither wait for pending writes nor
            block them.
        priority: optional per-request QoS admission class (0 = most
            urgent), overriding the tenant profile's class when the
            pipeline runs with a :class:`~repro.service.scheduler_qos.
            QoSConfig`; ignored (and harmless) otherwise.
        deadline_hours: optional per-request completion budget from
            arrival (simulated hours), overriding the tenant profile's
            deadline; violations are counted, never dropped.
    """

    request_id: int
    tenant: str
    object_name: str
    offset: int = 0
    length: int | None = None
    arrival_hours: float = 0.0
    op: str = "read"
    payload: bytes | None = None
    as_of: float | None = None
    priority: int | None = None
    deadline_hours: float | None = None

    def __post_init__(self) -> None:
        if self.op not in OPERATIONS:
            raise ServiceError(
                f"unknown operation {self.op!r}; expected one of {OPERATIONS}"
            )
        if self.offset < 0:
            raise ServiceError("request offset must be non-negative")
        if self.length is not None and self.length < 0:
            raise ServiceError("request length must be non-negative (or None)")
        # Written so that NaN times fail too: NaN compares false both ways.
        if not self.arrival_hours >= 0:
            raise ServiceError("arrival_hours must be non-negative")
        if self.op in ("put", "update"):
            if not self.payload:
                raise ServiceError(f"{self.op} requests require a payload")
        elif self.payload is not None:
            raise ServiceError(f"{self.op} requests cannot carry a payload")
        if self.op in ("put", "delete") and (self.offset or self.length is not None):
            raise ServiceError(f"{self.op} requests address whole objects")
        if self.op == "update" and self.length is not None:
            # The patch extent is the payload itself; a length field
            # would be silently ignored, so reject it outright.
            raise ServiceError(
                "update requests are sized by their payload; length must be None"
            )
        if self.as_of is not None:
            if self.op != "read":
                raise ServiceError("as_of is only valid on read requests")
            if not self.as_of >= 0:
                raise ServiceError("as_of must be non-negative")
        if self.priority is not None and self.priority < 0:
            raise ServiceError("priority must be non-negative (0 = most urgent)")
        if self.deadline_hours is not None and not self.deadline_hours > 0:
            raise ServiceError("deadline_hours must be positive when set")

    @property
    def is_write(self) -> bool:
        """True for operations that mutate the store."""
        return self.op in WRITE_OPERATIONS


#: Backwards-compatible name for the read-only serving layer's requests.
ReadRequest = ServiceRequest


@dataclass(frozen=True, slots=True)
class CompletedRequest:
    """The served outcome of one request.

    Attributes:
        request: the originating request.
        completion_hours: simulated time the response (or write
            acknowledgment) was delivered.
        byte_count: decoded payload size (reads) or bytes written.
        checksum: CRC32 of the decoded/written payload.
        served_from_cache: True when every block came from the decoded
            block cache (no wetlab work charged).
        batch_id: the wetlab cycle (reads) or synthesis order (writes)
            that served the request, or ``None`` for pure cache hits.
        attempts: wetlab cycles this request rode, counting retries
            (1 = served by its first cycle).
    """

    request: ServiceRequest
    completion_hours: float
    byte_count: int
    checksum: int
    served_from_cache: bool
    batch_id: int | None
    attempts: int = 1

    @property
    def latency_hours(self) -> float:
        """Admission-to-delivery latency on the simulated clock."""
        return self.completion_hours - self.request.arrival_hours


@dataclass(frozen=True, slots=True)
class FailedRequest:
    """A request the service rejected without aborting anyone else.

    Malformed trace events (negative ranges, a negative or NaN arrival
    time), unknown objects, ranges past the object's end, writes that
    cannot apply (duplicate names, exhausted update slots) and reads whose
    blocks still fail to decode after the retry budget all fail
    *individually*: the offending request gets a rejection outcome and
    every other tenant's requests keep being served.

    Attributes:
        request_id: admission id the request would have been assigned.
        tenant / object_name / offset / length: the faulty event's fields,
            kept verbatim (the event may be too malformed to build a
            :class:`ServiceRequest` from).
        arrival_hours: arrival time on the simulated clock.
        reason: human-readable rejection reason.
        op: the attempted operation.
        failure_hours: time the failure was decided (equals
            ``arrival_hours`` for admission rejections; later for retry
            exhaustion and write apply failures).
        attempts: wetlab cycles attempted before giving up (0 when the
            request never reached the wetlab).
    """

    request_id: int
    tenant: str
    object_name: str
    offset: int
    length: int | None
    arrival_hours: float
    reason: str
    op: str = "read"
    failure_hours: float | None = None
    attempts: int = 0
