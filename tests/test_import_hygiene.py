"""Import hygiene: scipy.optimize is loaded only by the commands that solve an
LP or an NNLS problem, so a cold `spectral` or `tpmatrix` call does not pay
for it."""

import json
import os
import subprocess
import sys

import numpy as np

import jordantp

SCRIPT = """
import json, sys
from jordantp.cli import main

element, vertices = sys.argv[1:]
codes = [main(["spectral", "sym:3", element]), main(["tpmatrix", "lpq:2:3", "--random", "4"])]
scipy_loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
codes.append(main(["geom", vertices, "--midpoint-samples", "4"]))
print(json.dumps({"codes": codes, "scipy_loaded": scipy_loaded,
                  "optimize_after_geom": "scipy.optimize" in sys.modules}))
"""


def test_spectral_and_tpmatrix_do_not_load_scipy(tmp_path):
    element = tmp_path / "element.json"
    element.write_text("[1.0, 2.0, 3.0, 0.5, -0.5, 0.25]")
    vertices = tmp_path / "tri.csv"
    np.savetxt(vertices, [[0, 0], [1, 0], [0, 1]], delimiter=",")
    src = os.path.dirname(os.path.dirname(os.path.abspath(jordantp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(element), str(vertices)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "scipy_loaded": [], "optimize_after_geom": True}
