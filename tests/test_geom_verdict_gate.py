"""Verdict gate for ``geom``: a faster or leaner build must give the same
verdicts on the benchmark's polytopes.

The expected verdicts come from theory: a simplex passes the extreme-point
affinity property (exit 0) and every other shape fails it (exit 1).  Each
seed checks a random similar copy, since the verdict is affine invariant.
"""

import json

import numpy as np
import pytest

from conftest import POLYTOPE_SHAPES, similar_copy
from jordantp.cli import main

GATE_SEEDS = range(5)


@pytest.mark.parametrize("seed", GATE_SEEDS)
@pytest.mark.parametrize("shape", list(POLYTOPE_SHAPES))
def test_geom_theory_verdicts(capsys, tmp_path, shape, seed):
    vertices, simplex = POLYTOPE_SHAPES[shape]
    path = tmp_path / f"{shape}.csv"
    np.savetxt(path, similar_copy(vertices, np.random.default_rng(seed)), delimiter=",",
               fmt="%.17g")
    code = main(["geom", str(path), "--seed", str(seed)])
    reports = json.loads(capsys.readouterr().out)
    assert code == (0 if simplex else 1)
    assert [r["omega_index"] for r in reports] == list(range(len(vertices)))
    assert all(r["passes"] for r in reports) == simplex
