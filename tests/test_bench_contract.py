"""The names the benchmark's layer tracer rebinds or reads must exist.

``bench/layers.py`` wraps functions by (module, attribute) and reads cache
statistics; a renamed or removed name would only show in a traced benchmark
run. This test loads the tracer's tables and resolves every entry.
"""

import importlib.util
from pathlib import Path

import pytest

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
