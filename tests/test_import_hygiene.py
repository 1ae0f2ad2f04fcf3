"""Import hygiene: a cold command loads only the layers it runs.

scipy.optimize is loaded only by the commands that solve an NNLS problem,
so a cold `spectral`, `tpmatrix` or `geom` call does not pay for it (the
LPs of `geom` are solved in numpy, with neither scipy.optimize nor
scipy.sparse); and the verify-side layers (suites, transition, self-dual
cones, logic, sampling) are loaded only by the commands that use them."""

import numpy as np
import pytest

from conftest import SHAPES, run_fresh

SCRIPT = """
import json, sys
from jordantp.cli import main

element, vertices = sys.argv[1:]
codes = [main(["spectral", "sym:3", element]), main(["tpmatrix", "lpq:2:3", "--random", "4"])]
scipy_loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
codes.append(main(["geom", vertices, "--midpoint-samples", "4"]))
print(json.dumps({"codes": codes, "scipy_loaded": scipy_loaded,
                  "optimize_after_geom": "scipy.optimize" in sys.modules,
                  "sparse_after_geom": "scipy.sparse" in sys.modules}))
"""

# run one command as `python -m jordantp.cli` does and list what it loaded
COLD_SCRIPT = """
import json, sys
from jordantp.cli import main

code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(sys.modules)}))
"""

VERIFY_LAYERS = {f"jordantp.{name}"
                 for name in ("suites", "transition", "selfdual", "logic", "spectral")}


@pytest.fixture
def element(tmp_path):
    path = tmp_path / "element.json"
    path.write_text("[1.0, 2.0, 3.0, 0.5, -0.5, 0.25]")
    return path


def test_spectral_and_tpmatrix_do_not_load_scipy(tmp_path, element):
    vertices = tmp_path / "tri.csv"
    np.savetxt(vertices, SHAPES["triangle"][0], delimiter=",")
    result = run_fresh(SCRIPT, element, vertices)
    assert result == {"codes": [0, 0, 0], "scipy_loaded": [], "optimize_after_geom": False,
                      "sparse_after_geom": False}


def test_a_cold_spectral_loads_no_verify_layer_and_no_sampling(element):
    result = run_fresh(COLD_SCRIPT, "spectral", "sym:3", element)
    assert result["code"] == 0
    loaded = set(result["loaded"])
    assert loaded & VERIFY_LAYERS == set()
    assert "numpy.random" not in loaded


@pytest.mark.parametrize("source", ["random", "atoms_file"])
def test_a_cold_tpmatrix_loads_only_the_transition_layer(tmp_path, source):
    # the transition layer computes and verifies nothing, so it needs neither
    # the logic nor the sampling layer; only --random draws from numpy.random
    if source == "random":
        args = ["--random", "4"]
    else:
        atoms = tmp_path / "atoms.json"
        atoms.write_text("[[1.0, 0.0], [0.6, 0.8]]")
        args = [str(atoms)]
    result = run_fresh(COLD_SCRIPT, "tpmatrix", "sym:2", *args)
    assert result["code"] == 0
    loaded = set(result["loaded"])
    assert "jordantp.transition" in loaded
    assert loaded & VERIFY_LAYERS == {"jordantp.transition"}
    assert ("numpy.random" in loaded) == (source == "random")


def test_a_cold_verify_loads_what_it_runs():
    result = run_fresh(COLD_SCRIPT, "verify", "classical:2", "--suite", "spectral",
                       "--trials", "2")
    assert result["code"] == 0
    assert VERIFY_LAYERS <= set(result["loaded"])
