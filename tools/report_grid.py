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
the two stdouts (``text`` where they differ in more than numbers) and the
argv; then one summary line:

    python tools/report_grid.py --compare --src ../parent/src

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
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SPECS = ("classical:1", "classical:4", "spin:2", "spin:3", "sym:2", "sym:4", "herm:2",
         "herm:3", "lpq:2:3", "lpq:2:40", "lpq:2:2", "lpq:3:1.5")
FAMILIES = ("sym:4", "herm:3", "classical:4", "spin:3", "lpq:2:3")
SUITES = ("axioms", "spectral", "logic", "tp", "selfdual")
WALL_TIME = re.compile(r'"wall_time_ms": \d+')
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN")
DIR = "{dir}"
SRC = Path(__file__).resolve().parents[1] / "src"


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


def run_line(argv: list[str], workdir: str) -> tuple[int, str, str]:
    """Run one command line in-process: its exit code, its stdout with every
    wall time removed, and its stderr."""
    from jordantp.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace(DIR, workdir) for arg in argv])
    return code, WALL_TIME.sub('"wall_time_ms"', out.getvalue()), err.getvalue()


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
        gap = number_gap(stdout0, stdout1)
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
            print(json.dumps([code, stdout, stderr.replace(workdir, DIR)]), flush=True)


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
