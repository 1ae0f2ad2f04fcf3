"""The benchmark's layer tracer (``bench/tracer.py``) finds every entry point
it wraps, so renaming one in ``src/`` fails here rather than dropping a layer
from the traced metrics; and on the two verify workloads every call layer it
counts is reached, as the benchmark's traced gate requires."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("jordantp_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_binds_every_entry_point(tracer_module):
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        assert tracer.missing == []
    finally:
        tracer.activate(False)


# one request like each verify workload: a closed-form and a matrix family
VERIFY_REQUESTS = [["verify", "classical:4"], ["verify", "sym:4", "--suite", "all", "--trials", "2"]]


def test_every_call_layer_is_reached_on_the_verify_workloads(tracer_module):
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        import jordantp.cli  # main is looked up after install, so the traced one runs

        for request, argv in enumerate(VERIFY_REQUESTS):
            tracer.request_id = request
            with contextlib.redirect_stdout(io.StringIO()):
                assert jordantp.cli.main(argv) == 0
    finally:
        tracer.activate(False)
    for request, argv in enumerate(VERIFY_REQUESTS):
        metrics = tracer_module.layer_metrics(tracer_module.span_table(tracer, {request}), 1)
        unreached = [layer for layer in tracer_module.CALL_LAYERS
                     if metrics[f"{layer}.calls"][0] == 0]
        assert unreached == [], argv
