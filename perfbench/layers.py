"""Per-layer timing from outside the program.

The traced run wraps calls into each layer's public functions — class
methods and the module globals the caller looks them up through — with a
timer that charges every call its *self* time: its wall time minus the
time of wrapped calls nested inside it.  Self times of all layers
therefore add up to the wall time of the outermost wrapped call, which is
``ServicePipeline.run`` itself; its own self time is the serving loop's
(``service.loop``).  Nothing under ``src/`` changes, and untraced runs
install no wrapper at all.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

#: (layer name, owner import path, attribute).  Owners are classes whose
#: method is wrapped, or modules whose global the caller looks up.
LAYERS = (
    ("service.loop", "repro.service.simulator:ServicePipeline", "run"),
    ("service.qos.admit", "repro.service.scheduler_qos:QoSAdmission", "admit"),
    ("service.queue.take", "repro.service.queue:RequestQueue", "take"),
    ("service.queue.peek", "repro.service.queue:RequestQueue", "peek_op"),
    ("service.scheduler.schedule", "repro.service.queue:BatchScheduler", "schedule"),
    (
        "service.scheduler.request_blocks",
        "repro.service.queue:BatchScheduler",
        "request_blocks",
    ),
    (
        "service.scheduler.schedule_writes",
        "repro.service.queue:BatchScheduler",
        "schedule_writes",
    ),
    ("service.lanes.schedule", "repro.service.scheduler_qos:SharedLanePool", "schedule"),
    ("service.cache.get", "repro.service.cache:DecodedBlockCache", "get"),
    ("service.cache.contains", "repro.service.cache:DecodedBlockCache", "contains"),
    ("store.get", "repro.store.object_store:ObjectStore", "get"),
    ("store.update_blocks", "repro.store.object_store:ObjectStore", "update_blocks"),
    ("store.planner.plan", "repro.service.queue", "plan_partition_ranges"),
    ("store.planner.plan", "repro.service.simulator", "plan_partition_ranges"),
    (
        "store.try_decode_blocks",
        "repro.store.object_store:ObjectStore",
        "try_decode_blocks",
    ),
    (
        "wetlab.readout",
        "repro.wetlab.readout:WetlabReadout",
        "unit_reads_by_partition",
    ),
    ("wetlab.partition_pool", "repro.wetlab.readout:WetlabReadout", "partition_pool"),
    ("wetlab.pcr.amplify", "repro.wetlab.pcr:PCRSimulator", "amplify"),
    ("wetlab.sequence", "repro.wetlab.sequencing:Sequencer", "sequence"),
    ("codec.encode_batch", "repro.codec.matrix_unit:EncodingUnit", "encode_batch"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class LayerClock:
    """Self time and call count per layer, over the calls it wrapped."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(LAYER_NAMES, 0.0)
        self.calls = dict.fromkeys(LAYER_NAMES, 0)
        # One [child seconds] cell per wrapped call in progress.
        self._open: list[list[float]] = []

    def wrap(self, name: str, fn):
        open_calls = self._open
        seconds = self.seconds
        calls = self.calls

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            children = [0.0]
            open_calls.append(children)
            begin = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - begin
                open_calls.pop()
                seconds[name] += elapsed - children[0]
                calls[name] += 1
                if open_calls:
                    open_calls[-1][0] += elapsed

        return timed

    @contextmanager
    def installed(self) -> Iterator["LayerClock"]:
        """Wrap every layer for the block's extent, then restore the originals."""
        originals = []
        try:
            for name, path, attribute in LAYERS:
                owner = _owner(path)
                original = owner.__dict__[attribute]
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(name, original))
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    def total_seconds(self) -> float:
        return sum(self.seconds.values())
