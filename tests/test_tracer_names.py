"""Every function the benchmark's tracer wraps by name still exists, so deleting or renaming one fails here
and not only in a traced benchmark run.  The names are read from bench/tracer.py's SPANNED and COUNTED tables."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def wrapped_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, name) for table in (tracer.SPANNED, tracer.COUNTED)
            for layer, names in table.items() for name in names]


@pytest.mark.parametrize("layer,name", wrapped_names())
def test_every_wrapped_name_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"nicecover.{layer}"), name, None))
