"""The benchmark's layer tracer (``bench/tracer.py``) finds every entry point
it wraps, so renaming one in ``src/`` fails here rather than dropping a layer
from the traced metrics."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_the_tracer_binds_every_entry_point():
    spec = importlib.util.spec_from_file_location("jordantp_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        module.install(tracer)
        assert tracer.missing == []
    finally:
        tracer.activate(False)
