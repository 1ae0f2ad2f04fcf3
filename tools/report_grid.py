"""Digest what jordantp prints on a fixed grid of command lines, so that two
checkouts can be compared report by report.

Each command line runs in-process through ``jordantp.cli.main``.  For each
one a line is printed: the exit code, the SHA-256 of stdout with every
``"wall_time_ms": N`` field removed, the SHA-256 of stderr, and the argv.
Two checkouts report the same bytes exactly when their outputs are equal:

    python tools/report_grid.py > change.txt
    python tools/report_grid.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

Where outputs may drift by rounding, digests cannot tell a drift from a
changed answer.  ``--compare`` runs the grid on this checkout and on the one
in ``--src``, each in a fresh interpreter, and prints, for each command line
whose exit code, stdout or stderr differs, the two exit codes (``--src``'s
first), the largest absolute difference between corresponding numbers of
the two stdouts (``text`` where they differ in more than numbers, or the
stderrs differ) and the argv; then one summary line:

    python tools/report_grid.py --compare --src ../parent/src

The grid:

* ``verify --suite all`` on twelve specs at seeds 0-3 and trials 1, 8, 24
  and 130, and on the five families at 500 trials, seed 1 (197 lines);
* each suite alone on the twelve specs at trials 1, 8, 24, 130 and 260,
  seed 1 (300 lines);
* ``spectral`` of a Gaussian element, and ``tpmatrix --random`` 1 and 8 at
  seeds 0 and 1, on the twelve specs;
* ``geom`` on the benchmark's nine shapes (four simplices, five other
  polytopes) at ``--midpoint-samples`` 0 and 16, seed 1, and on a triangle
  and a square near the top of the doubles and a triangle of subnormal
  spread at 0;
* 23 bad inputs, each of which exits 2 with one ``error:`` line: malformed
  CSV and JSON files, JSON nested past numpy's 64 dimensions, atoms that are
  no atom parameters, out-of-range tolerances, model specs and seeds,
  tolerance keys a command does not read, an unwritable ``--out`` and an
  element whose spectrum overflows.

The input files are written to a temporary directory, shown as ``{dir}`` in
the printed argv and on stderr.  A leading ``KEY=VALUE`` word of a command
line sets an environment variable for that line, as in a shell.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

FAMILIES = ("sym:4", "herm:3", "classical:4", "spin:3", "lpq:2:3")
SUITES = ("axioms", "spectral", "logic", "tp", "selfdual")
WALL_TIME = re.compile(r'"wall_time_ms": \d+')
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN")
DIR = "{dir}"
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tools")]
try:
    from sweep import SPECS  # the twelve specs of the verdict sweep
    from workloads import SHAPES, _write_shape  # the benchmark's geom shapes
finally:
    del sys.path[:2]

# polytopes near the ends of the doubles: coordinates whose sum overflows,
# and a spread that is subnormal
EXTREME_SHAPES = {
    "triangle-1e308": np.array([[1e308, 0.0], [1.5e308, 1e308], [1.7e308, 0.0]]),
    "square-1e308": np.array([[1e308, 1e308], [1.7e308, 1e308], [1.7e308, 1.7e308],
                              [1e308, 1.7e308]]),
    "triangle-1e-310": SHAPES["triangle"][0] * 1e-310,
}

# the bad inputs' files, and their command lines
BAD_FILES = {
    "ragged.csv": "0,0\n1,0,0\n0,1\n",
    "junk.csv": "0,0\n1,junk\n0,1\n",
    "empty.csv": "",
    "interior.csv": "0\n1\n0.5\n",
    "ragged.json": "[1.0, [2.0, 3.0], 4.0]",
    "malformed.json": "[1.0, 2.0",
    "nested.json": "[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]",
    "nan.json": "[NaN, 0.0, 0.0]",
    "overflow.json": "[1e308, 1e308, 1e308]",
    "no_atoms.json": "[]",
    "herm_short.json": "[[1.0, 0.0, 0.0]]",
    "lpq_off_sphere.json": "[[1.0, 1.0]]",
    "spin_3d.json": "[[[1.0, 0.0], [0.0, 1.0]]]",
    "deep65.json": "[" * 65 + "1.0" + "]" * 65,
    "deep2000.json": "[" * 2000 + "1.0" + "]" * 2000,
}
BAD_INPUTS = [
    *[["geom", f"{DIR}/{name}.csv"] for name in ("ragged", "junk", "empty", "interior")],
    ["geom", f"{DIR}/triangle.csv", "--tol", "eig_cluster=1e-8"],
    *[["spectral", "spin:2", f"{DIR}/{name}.json"]
      for name in ("ragged", "malformed", "nested", "nan", "overflow", "deep65")],
    ["spectral", "spin:2", f"{DIR}/spin:2.json", "--tol", "check_tol=1e-8"],
    ["tpmatrix", "spin:2", f"{DIR}/no_atoms.json"],
    ["tpmatrix", "spin:2", "--random", "0"],
    ["tpmatrix", "herm:2", f"{DIR}/herm_short.json"],
    ["tpmatrix", "lpq:2:3", f"{DIR}/lpq_off_sphere.json"],
    ["tpmatrix", "spin:2", f"{DIR}/spin_3d.json"],
    ["tpmatrix", "spin:2", f"{DIR}/deep2000.json"],
    ["verify", "classical:2", "--trials", "1", "--tol", "check_tol=nan"],
    ["verify", "classical:2", "--trials", "1", "--out", f"{DIR}/missing/report.json"],
    ["verify", "sym:0", "--trials", "1"],
    ["verify", "classical:1.5", "--trials", "1"],
    ["JORDAN_TP_SEED=abc", "verify", "classical:2", "--trials", "1"],
]


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
    lines += [["geom", f"{DIR}/{name}.csv", "--midpoint-samples", "0"] for name in EXTREME_SHAPES]
    return lines + BAD_INPUTS


def write_inputs(workdir: str) -> None:
    """The element of each spec, the vertices of each shape and the files of
    the bad inputs."""
    from jordantp.cli import parse_model_spec

    for k, spec in enumerate(SPECS):
        coords = np.random.default_rng(k).normal(size=parse_model_spec(spec).ambient_dim)
        Path(workdir, f"{spec}.json").write_text(json.dumps(coords.tolist()))
    for name, (vertices, _) in SHAPES.items():
        _write_shape(workdir, name, vertices)
    for name, vertices in EXTREME_SHAPES.items():
        _write_shape(workdir, name, vertices)
    for name, text in BAD_FILES.items():
        Path(workdir, name).write_text(text)


def run_line(argv: list[str], workdir: str) -> tuple[int, str, str]:
    """Run one command line in-process, its leading ``KEY=VALUE`` words set
    in the environment: its exit code, its stdout with every wall time
    removed, and its stderr with ``workdir`` shown as ``{dir}``."""
    from jordantp.cli import main

    argv = [arg.replace(DIR, workdir) for arg in argv]
    env = {}
    while "=" in argv[0]:
        key, value = argv.pop(0).split("=", 1)
        env[key] = value
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        code = main(argv)
    return (code, WALL_TIME.sub('"wall_time_ms"', out.getvalue()),
            err.getvalue().replace(workdir, DIR))


def digest_line(argv: list[str], workdir: str) -> str:
    """Run one command line in-process and describe what it printed."""
    code, stdout, stderr = run_line(argv, workdir)
    digests = (hashlib.sha256(text.encode()).hexdigest() for text in (stdout, stderr))
    return " ".join((str(code), *digests, *argv))


def number_gap(before: str, after: str) -> float | None:
    """The largest absolute difference between corresponding numbers of two
    outputs, or None where they differ in more than their numbers."""
    if NUMBER.sub("#", before) != NUMBER.sub("#", after):
        return None
    pairs = [(a, b) for a, b in zip(NUMBER.findall(before), NUMBER.findall(after)) if a != b]
    return max((abs(float(a) - float(b)) for a, b in pairs), default=0.0)


def compare(base: list, change: list, lines: list[list[str]]) -> list[str]:
    """The report of ``--compare``: one line per command line whose outputs
    (exit code, stdout, stderr) differ, then the summary."""
    out, codes, texts, largest = [], 0, 0, 0.0
    for (code0, stdout0, stderr0), (code1, stdout1, stderr1), argv in zip(base, change, lines):
        if (code0, stdout0, stderr0) == (code1, stdout1, stderr1):
            continue
        gap = number_gap(stdout0, stdout1) if stderr0 == stderr1 else None
        codes += code0 != code1
        texts += gap is None
        largest = largest if gap is None else max(largest, gap)
        shown = "text" if gap is None else f"{gap:.3g}"
        out.append(" ".join((str(code0), str(code1), shown, *argv)))
    out.append(f"{len(out)} of {len(lines)} grid lines differ: {codes} in exit code, {texts} in "
               f"more than numbers; largest number difference {largest:.3g}")
    return out


def _outputs(src: str) -> list:
    """Exit code, stdout and stderr of every grid line, run on the package
    in ``src`` in a fresh interpreter."""
    script = (f"import sys; sys.path[:0] = [{src!r}, {str(Path(__file__).parent)!r}]\n"
              "import report_grid\n"
              "report_grid.print_outputs()\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def print_outputs() -> None:
    """Print the outputs of every grid line, one JSON list per line, with
    the input directory shown as ``{dir}``."""
    with tempfile.TemporaryDirectory() as workdir:
        write_inputs(workdir)
        for line in commands():
            code, stdout, stderr = run_line(line, workdir)
            print(json.dumps([code, stdout, stderr]), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(SRC),
                        help="the directory holding the jordantp package to run")
    parser.add_argument("--compare", action="store_true",
                        help="compare the numbers printed by this checkout and by --src")
    args = parser.parse_args(argv)
    if args.compare:
        for line in compare(_outputs(args.src), _outputs(str(SRC)), commands()):
            print(line, flush=True)
        return 0
    sys.path.insert(0, args.src)
    with tempfile.TemporaryDirectory() as workdir:
        write_inputs(workdir)
        for line in commands():
            print(digest_line(line, workdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
