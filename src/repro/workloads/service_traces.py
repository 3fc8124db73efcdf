"""Multi-tenant request traces for the serving layer (``repro.service``).

The paper's scalability discussion (Sections 7.3–7.5 and 7.7.4) argues
that precise block access only pays off at scale if the wetlab work is
amortized over many requests; what it leaves open is what that request
stream looks like.  This module synthesizes one: many tenants issuing
operations against a shared object catalog, with Zipfian popularity over
both objects and tenants, so concurrent requests frequently overlap on
the same hot blocks — exactly the overlap the batch scheduler
deduplicates.

Beyond the i.i.d. baseline, traces can be made *realistic* along four
seeded, fully deterministic axes:

* **mixed operations** — a fraction of events are in-place ``update``
  patches or whole-object ``put`` s of brand-new objects, exercising the
  pipeline's synthesis orders and read-after-write ordering;
* **diurnal load** — arrival density follows a sinusoidal day/night
  profile instead of a flat Poisson rate;
* **bursty tenants** — a fraction of tenants issue requests only during
  their own on/off duty windows (on-off arrival processes);
* **size-correlated popularity** — popularity rank can be biased toward
  small objects (or large ones), instead of being assigned uniformly at
  random;
* **time-travel reads** — a fraction of reads carry an ``as_of``
  timestamp drawn from the trace's past, querying historical object
  versions through the store's copy-on-write snapshots
  (:mod:`repro.store.snapshots`).

With every knob at its default the generator reproduces the original
i.i.d. read-only traces byte for byte (same seed, same events).

Generation is pure Python and deterministic per seed (no numpy needed).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.exceptions import DnaStorageError
from repro.workloads.generator import ZipfSampler


@dataclass(frozen=True, slots=True)
class RequestEvent:
    """One operation in a generated arrival trace.

    Attributes:
        time_hours: arrival time, in simulated hours from trace start.
        tenant: identifier of the issuing tenant.
        object_name: name of the target object in the store catalog.
        offset / length: requested byte range of a read (``length=None``
            reads to the end of the object); ``offset`` is the patch
            position of an update.
        op: ``"read"`` (default), ``"put"``, ``"update"`` or ``"delete"``.
        payload: the bytes written (``put``/``update`` events only).
        as_of: optional historical timestamp of a time-travel read — the
            object is served as of the committed store state then.
        priority: optional per-request QoS admission class (0 = most
            urgent), forwarded onto the request when the pipeline runs
            with a :class:`~repro.service.scheduler_qos.QoSConfig`.
        deadline_hours: optional completion budget from arrival
            (simulated hours) for QoS deadline accounting.
    """

    time_hours: float
    tenant: str
    object_name: str
    offset: int = 0
    length: int | None = None
    op: str = "read"
    payload: bytes | None = None
    as_of: float | None = None
    priority: int | None = None
    deadline_hours: float | None = None


def _diurnal_arrivals(
    rng: random.Random,
    requests: int,
    duration_hours: float,
    amplitude: float,
    period_hours: float,
) -> list[float]:
    """Arrival times whose density follows ``1 + A·sin(2πt/period)``.

    Rejection sampling against the sinusoidal envelope: deterministic per
    RNG state, exact for any amplitude in [0, 1].
    """
    arrivals: list[float] = []
    peak = 1.0 + amplitude
    while len(arrivals) < requests:
        t = rng.random() * duration_hours
        density = 1.0 + amplitude * math.sin(2.0 * math.pi * t / period_hours)
        if rng.random() * peak <= density:
            arrivals.append(t)
    arrivals.sort()
    return arrivals


def _size_biased_ranks(
    rng: random.Random, catalog: dict[str, int], bias: float
) -> list[str]:
    """Object names ordered hot-first, popularity correlated with size.

    ``bias`` in [-1, 1]: positive favours *small* objects as the hot ones
    (the common object-store reality: metadata and thumbnails are hotter
    than archives), negative favours large ones, 0 is a uniform seeded
    shuffle.  Intermediate values blend a size rank with seeded noise.
    """
    names = list(catalog)
    if bias == 0.0:
        rng.shuffle(names)
        return names
    direction = 1.0 if bias > 0 else -1.0
    strength = abs(bias)
    # Normalized size rank in [0, 1] (ties broken by name for determinism).
    by_size = sorted(names, key=lambda name: (catalog[name], name))
    if direction < 0:
        by_size.reverse()
    size_rank = {name: index / max(len(names) - 1, 1) for index, name in enumerate(by_size)}
    keyed = [
        (strength * size_rank[name] + (1.0 - strength) * rng.random(), name)
        for name in names
    ]
    keyed.sort()
    return [name for _, name in keyed]


def multi_tenant_trace(
    catalog: dict[str, int],
    *,
    tenants: int,
    requests: int,
    duration_hours: float = 24.0,
    object_exponent: float = 1.1,
    tenant_exponent: float = 0.8,
    whole_object_fraction: float = 0.5,
    seed: int = 0,
    update_fraction: float = 0.0,
    put_fraction: float = 0.0,
    diurnal_amplitude: float = 0.0,
    diurnal_period_hours: float = 24.0,
    bursty_fraction: float = 0.0,
    burst_cycle_hours: float = 6.0,
    burst_duty: float = 0.25,
    size_popularity_bias: float = 0.0,
    time_travel_fraction: float = 0.0,
    aggressor_fraction: float = 0.0,
    aggressor_tenant: str = "aggressor",
) -> list[RequestEvent]:
    """Generate a multi-tenant Zipfian trace over an object catalog.

    Object popularity is a single global Zipfian over the catalog (with a
    seeded permutation — optionally size-biased — deciding which object
    is hot), shared by every tenant: hot objects are hot for everyone,
    which is what makes cross-tenant batching and caching effective.
    Tenant activity is a second, milder Zipfian.  Arrivals are i.i.d.
    uniform over the trace duration by default (the order statistics of a
    Poisson process conditioned on its count) or sinusoidally modulated
    when ``diurnal_amplitude`` is set.

    Args:
        catalog: mapping from object name to object size in bytes.
        tenants: number of distinct tenants issuing requests.
        requests: total number of events in the trace.
        duration_hours: span of the arrival window.
        object_exponent / tenant_exponent: Zipf skew parameters.
        whole_object_fraction: fraction of reads that read the whole
            object; the rest read a random sub-range.
        seed: RNG seed; the trace is fully deterministic per seed.
        update_fraction: fraction of events that are in-place ``update``
            patches (seeded payloads) against catalog objects.
        put_fraction: fraction of events that ``put`` brand-new objects
            (named ``put-NNNN``, sized like a random catalog object).
        diurnal_amplitude: 0 disables; up to 1.0 for a full day/night
            swing of the arrival density.
        diurnal_period_hours: period of the diurnal cycle.
        bursty_fraction: fraction of tenants that are on/off bursty.
        burst_cycle_hours: length of a bursty tenant's on+off cycle.
        burst_duty: fraction of the cycle a bursty tenant is active;
            each bursty tenant gets a seeded phase so bursts interleave.
        size_popularity_bias: -1..1; positive makes small objects hot,
            negative makes large objects hot, 0 keeps the seeded shuffle.
        time_travel_fraction: fraction of reads that are *time-travel*
            reads: they carry ``as_of`` drawn uniformly from the trace's
            past (before their own arrival), querying the object's
            historical version through the pipeline's snapshot timeline.
        aggressor_fraction: fraction of events reassigned to one extra
            *aggressor* tenant on top of the Zipfian mix — a single
            tenant issuing a flood of traffic, for QoS isolation studies.
        aggressor_tenant: name of the aggressor tenant.

    Returns:
        Request events sorted by arrival time.
    """
    if not catalog:
        raise DnaStorageError("catalog must contain at least one object")
    if any(size <= 0 for size in catalog.values()):
        raise DnaStorageError("catalog object sizes must be positive")
    if tenants <= 0 or requests < 0:
        raise DnaStorageError("tenants must be positive and requests >= 0")
    if duration_hours <= 0:
        raise DnaStorageError("duration_hours must be positive")
    if not 0.0 <= whole_object_fraction <= 1.0:
        raise DnaStorageError("whole_object_fraction must be in [0, 1]")
    if update_fraction < 0 or put_fraction < 0 or update_fraction + put_fraction > 1:
        raise DnaStorageError(
            "update_fraction and put_fraction must be non-negative and sum to <= 1"
        )
    if not 0.0 <= diurnal_amplitude <= 1.0:
        raise DnaStorageError("diurnal_amplitude must be in [0, 1]")
    if diurnal_period_hours <= 0:
        raise DnaStorageError("diurnal_period_hours must be positive")
    if not 0.0 <= bursty_fraction <= 1.0:
        raise DnaStorageError("bursty_fraction must be in [0, 1]")
    if burst_cycle_hours <= 0 or not 0.0 < burst_duty <= 1.0:
        raise DnaStorageError(
            "burst_cycle_hours must be positive and burst_duty in (0, 1]"
        )
    if not -1.0 <= size_popularity_bias <= 1.0:
        raise DnaStorageError("size_popularity_bias must be in [-1, 1]")
    if not 0.0 <= time_travel_fraction <= 1.0:
        raise DnaStorageError("time_travel_fraction must be in [0, 1]")
    if not 0.0 <= aggressor_fraction <= 1.0:
        raise DnaStorageError("aggressor_fraction must be in [0, 1]")
    if aggressor_fraction and not aggressor_tenant:
        raise DnaStorageError("aggressor_tenant must be non-empty")

    rng = random.Random(seed)
    names = _size_biased_ranks(rng, catalog, size_popularity_bias)
    object_sampler = ZipfSampler(len(names), exponent=object_exponent, rng=rng)
    tenant_sampler = ZipfSampler(tenants, exponent=tenant_exponent, rng=rng)
    tenant_names = [f"tenant-{index:03d}" for index in range(tenants)]
    rng.shuffle(tenant_names)

    bursty_phase: dict[str, float] = {}
    if bursty_fraction:
        # A seeded random subset of tenant *ranks* is on/off (sampling
        # positions, not a prefix: index i is the i-th hottest Zipf rank,
        # so a prefix would always make exactly the most active tenants
        # bursty); each gets its own seeded phase.
        for index in sorted(rng.sample(range(tenants), round(tenants * bursty_fraction))):
            bursty_phase[tenant_names[index]] = rng.random() * burst_cycle_hours

    def tenant_active(tenant: str, time_hours: float) -> bool:
        phase = bursty_phase.get(tenant)
        if phase is None:
            return True
        position = (time_hours + phase) % burst_cycle_hours
        return position < burst_cycle_hours * burst_duty

    if diurnal_amplitude:
        arrivals = _diurnal_arrivals(
            rng, requests, duration_hours, diurnal_amplitude, diurnal_period_hours
        )
    else:
        arrivals = sorted(rng.random() * duration_hours for _ in range(requests))

    mixed = bool(update_fraction or put_fraction)
    events: list[RequestEvent] = []
    put_counter = 0
    sizes = sorted(catalog.values())
    for time_hours in arrivals:
        name = names[object_sampler.sample()]
        tenant = tenant_names[tenant_sampler.sample()]
        if bursty_phase and not tenant_active(tenant, time_hours):
            # An off-duty bursty tenant would not have issued this
            # request; deterministically re-draw a few times, keeping the
            # stream's tenant mix Zipfian among *active* tenants, then
            # fall back to the hottest active rank.  (Only when every
            # tenant is simultaneously off-duty does the event keep the
            # last draw — the trace conditions on its total count.)
            for _ in range(8):
                tenant = tenant_names[tenant_sampler.sample()]
                if tenant_active(tenant, time_hours):
                    break
            else:
                for candidate in tenant_names:
                    if tenant_active(candidate, time_hours):
                        tenant = candidate
                        break
        if aggressor_fraction and rng.random() < aggressor_fraction:
            # Draw-gated (like every knob): with the knob off the RNG
            # stream — and so the whole trace — is bit-identical.
            tenant = aggressor_tenant
        size = catalog[name]
        op = "read"
        if mixed:
            draw = rng.random()
            if draw < update_fraction:
                op = "update"
            elif draw < update_fraction + put_fraction:
                op = "put"
        if op == "update":
            offset = rng.randrange(size)
            length = rng.randint(1, min(size - offset, max(size // 4, 1)))
            events.append(
                RequestEvent(
                    time_hours=time_hours,
                    tenant=tenant,
                    object_name=name,
                    offset=offset,
                    op="update",
                    payload=rng.randbytes(length),
                )
            )
            continue
        if op == "put":
            new_size = sizes[rng.randrange(len(sizes))]
            events.append(
                RequestEvent(
                    time_hours=time_hours,
                    tenant=tenant,
                    object_name=f"put-{put_counter:04d}",
                    op="put",
                    payload=rng.randbytes(new_size),
                )
            )
            put_counter += 1
            continue
        if rng.random() < whole_object_fraction or size == 1:
            offset, length = 0, None
        else:
            offset = rng.randrange(size)
            length = rng.randint(1, size - offset)
        as_of = None
        if (
            time_travel_fraction
            and time_hours > 0.0
            and rng.random() < time_travel_fraction
        ):
            # Query the committed state at a uniformly drawn past moment
            # (the knob is draw-gated, so the default trace stream stays
            # bit-identical to earlier generator versions).
            as_of = rng.random() * time_hours
        events.append(
            RequestEvent(
                time_hours=time_hours,
                tenant=tenant,
                object_name=name,
                offset=offset,
                length=length,
                as_of=as_of,
            )
        )
    return events


#: TenantQoS field names tenant_qos_profiles accepts in its overrides.
_QOS_PROFILE_FIELDS = (
    "weight",
    "rate_blocks_per_hour",
    "burst_blocks",
    "priority",
    "deadline_hours",
)


def tenant_qos_profiles(
    trace: list[RequestEvent],
    *,
    weight: float = 1.0,
    rate_blocks_per_hour: float | None = None,
    burst_blocks: float | None = None,
    priority: int = 1,
    deadline_hours: float | None = None,
    overrides: dict[str, dict[str, object]] | None = None,
) -> dict[str, dict[str, object]]:
    """QoS profile mappings for every tenant appearing in a trace.

    Builds the ``profiles`` argument of a
    :class:`~repro.service.scheduler_qos.QoSConfig`: one plain mapping
    per tenant (first-seen order), each carrying the baseline keyword
    values, with ``overrides`` replacing individual fields for named
    tenants — e.g. demoting a known aggressor to a low weight and a hard
    rate limit while every other tenant keeps the default profile.

    The result stays plain dicts (no service-layer import), so workload
    construction remains dependency-free; ``QoSConfig`` coerces them.

    Args:
        trace: the generated request events.
        weight / rate_blocks_per_hour / burst_blocks / priority /
            deadline_hours: baseline profile fields applied to every
            tenant (see :class:`~repro.service.scheduler_qos.TenantQoS`).
        overrides: per-tenant field replacements, keyed by tenant name;
            unknown field names are rejected.  Tenants named here but
            absent from the trace are still emitted (a profile for a
            tenant that never shows up is harmless).
    """
    base: dict[str, object] = {
        "weight": weight,
        "rate_blocks_per_hour": rate_blocks_per_hour,
        "burst_blocks": burst_blocks,
        "priority": priority,
        "deadline_hours": deadline_hours,
    }
    profiles: dict[str, dict[str, object]] = {}
    for event in trace:
        if event.tenant not in profiles:
            profiles[event.tenant] = dict(base)
    for tenant, fields in (overrides or {}).items():
        unknown = sorted(set(fields) - set(_QOS_PROFILE_FIELDS))
        if unknown:
            raise DnaStorageError(
                f"unknown TenantQoS fields in override for {tenant!r}: "
                f"{', '.join(unknown)} (expected {_QOS_PROFILE_FIELDS})"
            )
        profile = profiles.setdefault(tenant, dict(base))
        profile.update(fields)
    return profiles
