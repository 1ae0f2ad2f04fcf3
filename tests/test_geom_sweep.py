"""``tools/geom_sweep.py`` counts ``geom`` exit codes per shape and
dimension over seeds of simplices and cubes in general position."""

import numpy as np
import pytest

from conftest import load_module


@pytest.fixture(scope="module")
def tool():
    return load_module("tools/geom_sweep.py")


def test_the_sweep_reads_the_theory_verdicts(tool):
    got = tool.sweep({"simplex": (2, 6), "cube": (3,)}, range(3))
    assert got == {"N": 3, "seeds": [0, 2], "stretch": 3.0, "shift": 1e6, "counts": {
        "simplex": {"2": {"0": 3}, "6": {"0": 3}}, "cube": {"3": {"1": 3}}}}


def test_the_shapes_are_placed_far_and_stretched(tool):
    simplex, cube = tool.base_shape("simplex", 3), tool.base_shape("cube", 4)
    assert simplex.shape == (4, 3) and cube.shape == (16, 4)
    placed = tool.placed(cube, 7)
    np.testing.assert_array_equal(placed, tool.placed(cube, 7))
    assert np.abs(placed.mean(axis=0)).max() > 1e4
    spread = np.linalg.svd(placed - placed.mean(axis=0), compute_uv=False)
    assert spread[0] / spread[-1] > 10.0
    assert tool.SEEDS == range(200) and tool.SHAPES == {"simplex": (2, 3, 4, 5, 6), "cube": (3, 4)}
