"""The names that the benchmark harness in bench/ reaches into still exist in picstab.

``bench/spans.py`` wraps the functions in ``FUNCTIONS`` and the methods in
``METHODS`` for ``--trace 1``, and ``bench/worker.py`` reads the lru caches
and the PIM cache after each pass.  A rename or deletion here would break
those runs, so it fails this test first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


SPANS = _load_spans()


@pytest.mark.parametrize("mod, attr", [(f[0], f[1]) for f in SPANS.FUNCTIONS])
def test_traced_function_exists(mod, attr):
    assert callable(getattr(importlib.import_module(f"picstab.{mod}"), attr))


@pytest.mark.parametrize("mod, cls, attr", [m[:3] for m in SPANS.METHODS])
def test_traced_method_exists(mod, cls, attr):
    assert callable(getattr(getattr(importlib.import_module(f"picstab.{mod}"), cls), attr))


def test_caches_read_by_the_worker_exist():
    from picstab import exactlin, groups, modrep, picard

    for fn in (exactlin.fq_make, picard.t_group, groups.cyclic):
        assert callable(fn.cache_info), fn.__name__
    assert isinstance(len(modrep._PIM_CACHE), int)
