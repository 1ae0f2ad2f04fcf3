import json
import os
import subprocess
import sys

import numpy as np
import pytest

import jordantp
from jordantp import Tolerance, backends, get_model

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


def run_fresh(script, *args):
    """Run a Python script in a fresh interpreter that finds this checkout's
    ``jordantp`` first; returns the JSON value on its last stdout line."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(jordantp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _regular_polygon(k):
    angles = 2.0 * np.pi * np.arange(k) / k
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _simplex(d):
    return np.vstack([np.zeros(d), np.eye(d)])


# name -> (vertices, is a simplex); the shapes of the geom benchmark.  By the
# paper's criterion exactly the simplices have affine minimal unit effects.
POLYTOPE_SHAPES = {
    "triangle": (_simplex(2), True),
    "tetrahedron": (_simplex(3), True),
    "4-simplex": (_simplex(4), True),
    "5-simplex": (_simplex(5), True),
    "square": (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), False),
    "pentagon": (_regular_polygon(5), False),
    "hexagon": (_regular_polygon(6), False),
    "cube": (np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], float), False),
    "octahedron": (np.vstack([np.eye(3), -np.eye(3)]), False),
}


def similar_copy(vertices, rng):
    """Rotate, scale and translate: the affinity verdict is affine invariant."""
    d = vertices.shape[1]
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q * np.sign(np.diag(r))
    return rng.uniform(0.5, 2.0) * vertices @ q.T + rng.normal(size=d)


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
