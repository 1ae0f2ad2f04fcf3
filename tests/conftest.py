import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jordantp
from jordantp import Tolerance, backends, get_model
from jordantp.reports import dump_canonical_json

ROOT = Path(__file__).resolve().parents[1]

ALL_MODEL_SPECS = [
    ("classical", 4, None),
    ("spin", 3, None),
    ("sym", 4, None),
    ("herm", 3, None),
    ("lpq", 2, 3.0),
    ("lpq", 2, 2.0),
]

SYMMETRIC_MODEL_SPECS = [
    ("classical", 4, None),
    ("spin", 3, None),
    ("sym", 4, None),
    ("herm", 3, None),
    ("lpq", 2, 2.0),
]


def load_module(path):
    """The module in the file at ``path``, relative to the repository root,
    run once and kept in ``sys.modules`` under the file's stem, as an import
    would: a dataclass looks its module up there while it is defined."""
    file = ROOT / path
    if file.stem not in sys.modules:
        spec = importlib.util.spec_from_file_location(file.stem, file)
        module = importlib.util.module_from_spec(spec)
        sys.modules[file.stem] = module
        spec.loader.exec_module(module)
    return sys.modules[file.stem]


def draw_element(model, rng, shape="any"):
    """The element the package's sampler draws from ``rng`` alone: row 0 of
    a one-generator stack, for the reference loops that draw one at a time."""
    from jordantp.spectral import _random_element

    return model.element(_random_element(model, [rng], shape)[0])


def fresh_env() -> dict:
    """The environment of a fresh interpreter that finds this checkout's
    ``jordantp`` first."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(jordantp.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def run_fresh(script, *args):
    """Run a Python script in a fresh interpreter that finds this checkout's
    ``jordantp`` first; returns the JSON value on its last stdout line."""
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=fresh_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# the benchmark's oracles, check-name contract and geom shapes; the tests
# read them and never edit them
workloads = load_module("bench/workloads.py")
# name -> (vertices, is a simplex).  By the paper's criterion exactly the
# simplices have affine minimal unit effects.
SHAPES = workloads.SHAPES
similar_copy = workloads._similar_copy

# name -> the affinity defect of each of its extreme points without probes:
# the largest residual of e_omega's vertex values from their least-squares
# affine fit, the same at every vertex of these shapes, and 0 on a simplex
AFFINITY_DEFECTS = {"triangle": 0.0, "tetrahedron": 0.0, "4-simplex": 0.0, "5-simplex": 0.0,
                    "square": 1.0 / 4.0, "pentagon": (3.0 - np.sqrt(5.0)) / 5.0,
                    "hexagon": 1.0 / 6.0, "cube": 1.0 / 2.0, "octahedron": 1.0 / 3.0}


def assert_all_pass(checks):
    failed = [c for c in checks if not c.passed]
    assert not failed, [f"{c.name}: defect={c.defect} tol={c.tolerance}" for c in failed]


def report_text(checks):
    """The checks as the report prints them: names, defects to the last bit
    and the sign of zero, tolerances, notes and witnesses."""
    return dump_canonical_json([check.to_json() for check in checks])


@pytest.fixture(autouse=True)
def cached_models_keep_their_class_methods():
    """After every test, no model in ``get_model``'s cache holds an instance
    attribute that shadows a method of its class: one left behind by a patch
    hides any later wrapper installed on the class.  Patch a cached model with
    ``monkeypatch.setitem(vars(model), name, fn)``, whose undo deletes it."""
    yield
    shadowing = [(key, name) for key, model in backends._CACHE.items()
                 for name in vars(model) if callable(getattr(type(model), name, None))]
    assert shadowing == []


@pytest.fixture
def tol():
    return Tolerance()


@pytest.fixture(params=ALL_MODEL_SPECS, ids=lambda s: f"{s[0]}:{s[1]}" + (f":{s[2]:g}" if s[2] else ""))
def any_model(request):
    kind, n, p = request.param
    return get_model(kind, n, p)


@pytest.fixture(params=SYMMETRIC_MODEL_SPECS, ids=lambda s: f"{s[0]}:{s[1]}" + (f":{s[2]:g}" if s[2] else ""))
def symmetric_model(request):
    kind, n, p = request.param
    return get_model(kind, n, p)


def random_projection(model, rank, rng):
    """Random rank-k projection element of a matrix model."""
    gauss = rng.normal(size=(model.n, model.n))
    if model.kind == "herm":
        gauss = gauss + 1j * rng.normal(size=(model.n, model.n))
    q, _ = np.linalg.qr(gauss)
    basis = q[:, :rank]
    return model.from_matrix(basis @ basis.conj().T)
