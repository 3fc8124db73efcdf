"""The repository benchmark's layer table names code that still exists.

``perfbench/layers.py`` times each layer by replacing a method (or a
module global) found in its owner's own ``__dict__``; a deleted or
renamed one would otherwise surface only as a ``KeyError`` in a traced
benchmark run.  ``perfbench/run.py`` also imports two helpers from
``repro.observability.stages``.  The table is loaded by path, so this
check reads the benchmark without changing it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import repro.observability.stages as stages

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
