"""perfbench's traced run wraps methods it names by hand; pin the names.

``perfbench/layers.py`` lists the surface verbs and the storage methods its
layer wrappers time.  A renamed verb or backend method would otherwise fail
only a traced benchmark run, so tier-1 checks every name against the
tables that declare them.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.platform import surface
from repro.platform.backends import StorageBackend

_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_surface_name_is_a_routed_verb(layers):
    routed = {verb.name for verb in surface.ROUTED}
    assert set(layers.SURFACE) <= routed, sorted(set(layers.SURFACE) - routed)


@pytest.mark.parametrize("table", ["BACKEND_WRITES", "BACKEND_READS"])
def test_every_backend_name_is_a_storage_method(layers, table):
    missing = [
        name for name in getattr(layers, table)
        if not callable(getattr(StorageBackend, name, None))
    ]
    assert missing == []
