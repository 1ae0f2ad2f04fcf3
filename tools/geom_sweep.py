"""Count ``geom`` exit codes on simplices and cubes in general position.

Each shape is rotated, its axes stretched by ``10 ** uniform(-3, 3)`` and
moved by 1e6 * N(0, 1), with ``numpy.random.default_rng(seed)`` for seeds
0-199: simplices (the origin and the unit vectors) for d = 2 to 6, and unit
cubes for d = 3 and 4.  Each polytope is written to a CSV with 17
significant digits and run through ``jordantp.cli.main(["geom", CSV])``
in-process, at 0 probes.  The theory's answer is exit 0 on a simplex and
exit 1 on a cube; exit 2 means the load refused the polytope and exit 3 is
an internal failure.  The tool prints one JSON object: per shape and d, the
number of seeds that gave each exit code.  Two checkouts are compared with
``diff``:

    python tools/geom_sweep.py > change.json
    python tools/geom_sweep.py --src ../parent/src > parent.json
    diff parent.json change.json

A full run takes about ten seconds on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(200)
SHAPES = {"simplex": (2, 3, 4, 5, 6), "cube": (3, 4)}
STRETCH, SHIFT = 3.0, 1e6


def base_shape(shape: str, d: int) -> np.ndarray:
    """The vertices of the unit d-simplex or the unit d-cube, one per row."""
    if shape == "simplex":
        return np.vstack([np.zeros(d), np.eye(d)])
    return np.array(list(itertools.product((0.0, 1.0), repeat=d)))


def placed(points: np.ndarray, seed: int) -> np.ndarray:
    """``points`` with their axes stretched, rotated and moved, from
    ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    d = points.shape[1]
    rotation = np.linalg.qr(rng.normal(size=(d, d)))[0]
    scales = 10.0 ** rng.uniform(-STRETCH, STRETCH, d)
    return (points * scales) @ rotation.T + SHIFT * rng.normal(size=d)


def geom_exit_code(vertices: np.ndarray, path: Path) -> int:
    """The exit code of ``geom`` on ``vertices``, its output discarded."""
    from jordantp.cli import main

    np.savetxt(path, vertices, delimiter=",", fmt="%.17g")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["geom", str(path)])


def sweep(shapes=SHAPES, seeds=SEEDS) -> dict:
    """The JSON object described above, over the given inputs: under
    ``counts``, per shape and d, the number of seeds by exit code."""
    counts: dict = {}
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "polytope.csv"
        for shape, dims in shapes.items():
            for d in dims:
                codes = Counter(str(geom_exit_code(placed(base_shape(shape, d), seed), path))
                                for seed in seeds)
                counts.setdefault(shape, {})[str(d)] = dict(sorted(codes.items()))
    return {"N": len(seeds), "seeds": [seeds[0], seeds[-1]], "stretch": STRETCH,
            "shift": SHIFT, "counts": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the directory holding the jordantp package to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    print(json.dumps(sweep(), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
