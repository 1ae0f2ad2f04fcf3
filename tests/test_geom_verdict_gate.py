"""Verdict gate for ``geom``: a faster or leaner build must give the same
verdicts on the benchmark's polytopes.

The benchmark's oracle (``bench/workloads.py``'s ``check_geom``) decides each
run from theory: a simplex passes the extreme-point affinity property (exit
0) and every other shape fails it (exit 1), with one report per vertex.  The
gate adds that the reports come in vertex order.  Each seed checks a random
similar copy, since the verdict is affine invariant.
"""

import json

import numpy as np
import pytest

from conftest import SHAPES, similar_copy, workloads
from jordantp.cli import main

GATE_SEEDS = range(5)


@pytest.mark.parametrize("seed", GATE_SEEDS)
@pytest.mark.parametrize("shape", list(SHAPES))
def test_geom_theory_verdicts(capsys, tmp_path, shape, seed):
    vertices, simplex = SHAPES[shape]
    path = tmp_path / f"{shape}.csv"
    np.savetxt(path, similar_copy(vertices, np.random.default_rng(seed)), delimiter=",",
               fmt="%.17g")
    code = main(["geom", str(path), "--seed", str(seed)])
    out = capsys.readouterr().out
    assert workloads.check_geom(len(vertices), simplex, code, out) is None
    assert [r["omega_index"] for r in json.loads(out)] == list(range(len(vertices)))
