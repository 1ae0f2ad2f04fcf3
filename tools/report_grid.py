"""Digest what jordantp prints on a fixed grid of command lines, so that two
checkouts can be compared report by report.

Each command line runs in-process through ``jordantp.cli.main``.  For each
one a line is printed: the exit code, the SHA-256 of stdout with every
``"wall_time_ms": N`` field removed, the SHA-256 of stderr, and the argv.
Two checkouts report the same bytes exactly when their outputs are equal:

    python tools/report_grid.py > change.txt
    python tools/report_grid.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

The grid:

* ``verify --suite all`` on twelve specs at seeds 0-3 and trials 1, 8, 24
  and 130, and on the five families at 500 trials, seed 1 (197 lines);
* each suite alone on the twelve specs at trials 1, 8, 24, 130 and 260,
  seed 1 (300 lines);
* ``spectral`` of a Gaussian element, and ``tpmatrix --random`` 1 and 8 at
  seeds 0 and 1, on the twelve specs;
* ``geom`` on nine shapes (four simplices, five other polytopes) at
  ``--midpoint-samples`` 0 and 16, seed 1.

The input files of ``spectral`` and ``geom`` are written to a temporary
directory, shown as ``{dir}`` in the printed argv.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

SPECS = ("classical:1", "classical:4", "spin:2", "spin:3", "sym:2", "sym:4", "herm:2",
         "herm:3", "lpq:2:3", "lpq:2:40", "lpq:2:2", "lpq:3:1.5")
FAMILIES = ("sym:4", "herm:3", "classical:4", "spin:3", "lpq:2:3")
SUITES = ("axioms", "spectral", "logic", "tp", "selfdual")
WALL_TIME = re.compile(r'"wall_time_ms": \d+')
DIR = "{dir}"


def _polygon(k: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(k) / k
    return np.column_stack([np.cos(angles), np.sin(angles)])


SHAPES = {
    **{f"{d}-simplex": np.vstack([np.zeros(d), np.eye(d)]) for d in (2, 3, 4, 5)},
    "square": np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    "pentagon": _polygon(5),
    "hexagon": _polygon(6),
    "cube": np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], float),
    "octahedron": np.vstack([np.eye(3), -np.eye(3)]),
}


def commands() -> list[list[str]]:
    """The grid's command lines, input files named under ``{dir}``."""
    lines = [["verify", spec, "--suite", "all", "--seed", str(seed), "--trials", str(trials)]
             for spec in SPECS for seed in range(4) for trials in (1, 8, 24, 130)]
    lines += [["verify", spec, "--suite", "all", "--seed", "1", "--trials", "500"]
              for spec in FAMILIES]
    lines += [["verify", spec, "--suite", suite, "--seed", "1", "--trials", str(trials)]
              for spec in SPECS for suite in SUITES for trials in (1, 8, 24, 130, 260)]
    lines += [["spectral", spec, f"{DIR}/{spec}.json"] for spec in SPECS]
    lines += [["tpmatrix", spec, "--random", str(k), "--seed", str(seed)]
              for spec in SPECS for k in (1, 8) for seed in (0, 1)]
    lines += [["geom", f"{DIR}/{name}.csv", "--midpoint-samples", str(samples), "--seed", "1"]
              for name in SHAPES for samples in (0, 16)]
    return lines


def write_inputs(workdir: str) -> None:
    """The element of each spec and the vertices of each shape."""
    from jordantp.cli import parse_model_spec

    for k, spec in enumerate(SPECS):
        coords = np.random.default_rng(k).normal(size=parse_model_spec(spec).ambient_dim)
        Path(workdir, f"{spec}.json").write_text(json.dumps(coords.tolist()))
    for name, vertices in SHAPES.items():
        rows = [",".join(format(x, ".17g") for x in row) for row in vertices]
        Path(workdir, f"{name}.csv").write_text("\n".join(rows) + "\n")


def digest_line(argv: list[str], workdir: str) -> str:
    """Run one command line in-process and describe what it printed."""
    from jordantp.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace(DIR, workdir) for arg in argv])
    stdout = WALL_TIME.sub('"wall_time_ms"', out.getvalue())
    digests = (hashlib.sha256(text.encode()).hexdigest() for text in (stdout, err.getvalue()))
    return " ".join((str(code), *digests, *argv))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="the directory holding the jordantp package to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    with tempfile.TemporaryDirectory() as workdir:
        write_inputs(workdir)
        for line in commands():
            print(digest_line(line, workdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
