"""The repository benchmark's layer table names code that still exists.

``perfbench/layers.py`` times each layer by replacing a method (or a
module global) found in its owner's own ``__dict__``; a deleted or
renamed one would otherwise surface only as a ``KeyError`` in a traced
benchmark run.  ``perfbench/run.py`` also imports two helpers from
``repro.observability.stages``.  The table is loaded by path, so this
check reads the benchmark without changing it.

A wrapped method the program stops calling would time nothing without
any error, so one readout is also run under the clock: each of its
units must still go through ``PCRSimulator.amplify`` and
``Sequencer.sequence`` once.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import repro.observability.stages as stages
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.wetlab.readout import WetlabReadout, plan_units
from repro.workloads.objects import object_corpus

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_layers()


@pytest.mark.parametrize(
    "name, path, attribute",
    LAYERS.LAYERS,
    ids=[f"{name}:{path}.{attribute}" for name, path, attribute in LAYERS.LAYERS],
)
def test_layer_is_defined_on_its_owner(name, path, attribute):
    assert attribute in vars(LAYERS._owner(path)), (
        f"layer {name!r} wraps {path}.{attribute}, which its owner no longer defines"
    )


@pytest.mark.parametrize("helper", ["collect_stages", "orchestration_seconds"])
def test_run_imports_resolve(helper):
    assert callable(getattr(stages, helper, None))
    assert helper in stages.__all__


def test_readout_runs_pcr_and_sequencing_once_per_unit():
    pytest.importorskip("numpy", exc_type=ImportError)
    store = ObjectStore(
        DnaVolume(
            config=VolumeConfig(partition_leaf_count=16, stripe_blocks=2, stripe_width=2)
        )
    )
    block_size = store.volume.block_size
    corpus = object_corpus({"obj-0": block_size * 2, "obj-1": block_size * 5}, seed=7)
    for name, data in corpus.items():
        store.put(name, data)
    plan = store.read_plan("obj-1")
    units = plan_units(plan)
    readout = WetlabReadout(store.volume, reads_per_block=10, seed=11)
    clock = LAYERS.LayerClock()
    with clock.installed():
        reads = readout.unit_reads_by_partition(plan, batch_seed=3)
    assert len(units) > 1
    assert clock.calls["wetlab.readout"] == 1
    assert clock.calls["wetlab.pcr.amplify"] == len(units)
    assert clock.calls["wetlab.sequence"] == len(units)
    assert sum(map(len, reads.values())) == 10 * sum(unit.block_count for unit in units)
