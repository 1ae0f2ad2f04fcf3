"""Invariance gate for ``geom``: the extreme-point affinity property is
affine invariant, so moving, scaling, stretching or embedding a polytope must
not change its verdict.

The expected verdicts come from theory, as in the verdict gate: a simplex
passes (exit 0) and every other shape fails (exit 1).  The affinity defects
without probes are the closed forms of ``AFFINITY_DEFECTS``, up to what
rounding the mapped input can move them by.
"""

import json

import numpy as np
import pytest

from conftest import AFFINITY_DEFECTS, POLYTOPE_SHAPES
from jordantp import check_extreme_affinity, polytope_from_csv
from jordantp.cli import main


def _shifted(vertices, s):
    return vertices + s


def _scaled(vertices, s):
    return vertices * s


def _anisotropic(vertices, seed):
    # rotate, stretch each axis by 1e-2 to 1e2, rotate, move far away
    rng = np.random.default_rng(seed)
    d = vertices.shape[1]
    left, _ = np.linalg.qr(rng.normal(size=(d, d)))
    right, _ = np.linalg.qr(rng.normal(size=(d, d)))
    linear = left @ np.diag(10.0 ** rng.uniform(-2.0, 2.0, d)) @ right
    return vertices @ linear.T + rng.normal(size=d) * 10.0 ** rng.uniform(0.0, 6.0)


def _embedded(vertices, seed):
    # a random affine map into R^3: the polytope spans a tilted plane
    rng = np.random.default_rng(seed)
    return vertices @ rng.normal(size=(3, vertices.shape[1])).T + rng.normal(size=3)


MAPS = ([(_shifted, s) for s in (1e3, 1e6, 1e7, 1e8, 1e10)]
        + [(_scaled, s) for s in (1e-10, 1e-6, 1e6)]
        + [(_anisotropic, seed) for seed in range(3)])
PLANAR = ["triangle", "square"]


def _check(capsys, tmp_path, shape, transform, arg):
    vertices, simplex = POLYTOPE_SHAPES[shape]
    path = tmp_path / "shape.csv"
    np.savetxt(path, transform(vertices, arg), delimiter=",", fmt="%.17g")
    code = main(["geom", str(path), "--midpoint-samples", "16", "--seed", "0"])
    reports = json.loads(capsys.readouterr().out)
    assert code == (0 if simplex else 1)
    assert [r["omega_index"] for r in reports] == list(range(len(vertices)))
    assert all(r["passes"] for r in reports) == simplex
    # the bound, stated before the run: the input's rounding, eps times its
    # largest entry, in units of its thinnest spread (the smallest of the
    # shape's own singular values of the centred vertices), with the LP's
    # own rounding, times 8
    mapped = np.loadtxt(path, delimiter=",")
    spread = np.linalg.svd(mapped - mapped.mean(axis=0), compute_uv=False)
    thinnest = spread[np.linalg.matrix_rank(vertices[1:] - vertices[0]) - 1]
    eps = np.finfo(float).eps
    bound = 8.0 * eps * (1.0 + np.abs(mapped).max() / thinnest)
    defects = [r.affinity_defect for r in check_extreme_affinity(polytope_from_csv(path))]
    np.testing.assert_allclose(defects, AFFINITY_DEFECTS[shape], rtol=0, atol=bound)


@pytest.mark.parametrize("transform,arg", MAPS,
                         ids=[f"{t.__name__.strip('_')}-{a:g}" for t, a in MAPS])
@pytest.mark.parametrize("shape", list(POLYTOPE_SHAPES))
def test_geom_verdict_survives_affine_maps(capsys, tmp_path, shape, transform, arg):
    _check(capsys, tmp_path, shape, transform, arg)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", PLANAR)
def test_geom_verdict_survives_embedding_in_r3(capsys, tmp_path, shape, seed):
    _check(capsys, tmp_path, shape, _embedded, seed)


@pytest.mark.parametrize("shift", [1e6, 1e8])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", PLANAR)
def test_geom_verdict_survives_embedding_far_from_the_origin(capsys, tmp_path, shape, seed,
                                                             shift):
    # rounding the embedded coordinates at the shift's magnitude moves the
    # vertices off their plane; that noise must not count as a third axis
    _check(capsys, tmp_path, shape, lambda v, s: _shifted(_embedded(v, seed), s), shift)
