"""The names the benchmark's layer tracer rebinds or reads must exist.

``bench/layers.py`` wraps functions by (module, attribute) and reads cache
statistics; a renamed or removed name would only show in a traced benchmark
run. These tests load the tracer's tables, resolve every entry, and check that
no traced cache sits unused behind another cache.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from entroute.chainopt import Chain, optimize_chain

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(layers):
    for table in (layers.SPANS, layers.COUNTS, layers.CACHES):
        for module, attr, name in table:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_every_traced_cache_reports_and_clears(layers):
    for module, attr, name in layers.CACHES:
        cache = getattr(module, attr)
        assert hasattr(cache, "cache_info") and hasattr(cache, "cache_clear"), name


def test_every_traced_cache_hits_on_chains_sharing_a_fidelity(layers):
    # A traced cache that only ever misses, because another cache in front of
    # it answers first, would read a hit fraction of 0 on every workload.
    for name, module in list(sys.modules.items()):
        if name == "entroute" or name.startswith("entroute."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    for egr in (10, 20):
        optimize_chain(Chain(egrs=(egr,) * 4, fidelities=(0.93,) * 4))
    for module, attr, name in layers.CACHES:
        assert getattr(module, attr).cache_info().hits >= 1, name
