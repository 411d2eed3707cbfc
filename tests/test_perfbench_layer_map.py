"""Every entry point the benchmark's layer split wraps must exist.

``perfbench/layers.py`` names the program's layer entry points by
string, so deleting or renaming one of them breaks only the traced
benchmark run.  This resolves each name without installing a wrapper.
"""

import importlib

import pytest

from perfbench import layers

ENTRIES = [
    (layer, module, path)
    for layer, entries in layers.LAYER_MAP.items()
    for module, path in entries
]


@pytest.mark.parametrize(
    "layer,module,path", ENTRIES, ids=[f"{m}:{p}" for _, m, p in ENTRIES]
)
def test_layer_entry_point_resolves(layer, module, path):
    owner, attr = layers._resolve(path, importlib.import_module(module))
    assert callable(getattr(owner, attr)), (layer, module, path)
