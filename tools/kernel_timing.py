"""Time the matrix backends' batch spectral kernel, ``decompose_batch`` and
``eigenvalues_batch``, on fixed stacks, with one BLAS thread.

Each stack mixes the rows the suites send to the kernel: random elements,
logic elements (projections) of every rank, complements unit - e of atoms e,
and the unit, in turn, so that most rows have degenerate eigenspaces.  The
stacks are drawn from a fixed seed, at 8 and 260 rows.  Each time is the
best of ``--repeat`` runs of 20 calls, in microseconds per call.  The tool
prints one JSON object.  Two checkouts are compared by running it on
each, on the same host (git ignores ``BENCH_*.json``):

    python tools/kernel_timing.py > BENCH_kernel_change.json
    python tools/kernel_timing.py --src ../parent/src > BENCH_kernel_parent.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import timeit
from pathlib import Path

if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy is first imported

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SPECS = ("sym:4", "herm:3")
ROWS = (8, 260)
CALLS = 20


def kernel_stack(model, rows: int, seed: int = 2312) -> np.ndarray:
    """The (rows, d) stack described above."""
    rng = np.random.default_rng(seed)
    n, unit = model.n, model.order_unit_coords()
    out = []
    for k in range(rows):
        gauss = rng.normal(size=(n, n))
        if model.kind == "herm":
            gauss = gauss + 1j * rng.normal(size=(n, n))
        q = np.linalg.qr(gauss)[0]
        kind = k % (n + 2)  # 0 random, 1 to n - 1 logic of that rank, n unit - e, n + 1 unit
        if kind == 0:
            out.append(model.matrix_coords(gauss + gauss.conj().T))
        elif kind < n:
            out.append(model.matrix_coords(q[:, :kind] @ q[:, :kind].conj().T))
        elif kind == n:
            out.append(unit - model.matrix_coords(q[:, :1] @ q[:, :1].conj().T))
        else:
            out.append(unit)
    return np.array(out)


def timings(specs=SPECS, rows=ROWS, repeat: int = 7) -> dict:
    """The JSON object described above: by spec, stack rows and kernel, the
    best time per call in µs."""
    from jordantp import Tolerance
    from jordantp.cli import parse_model_spec

    tol, out = Tolerance(), {}
    for spec in specs:
        model = parse_model_spec(spec)
        for count in rows:
            stack = kernel_stack(model, count)
            for kernel in ("decompose_batch", "eigenvalues_batch"):
                timer = timeit.Timer(lambda: getattr(model, kernel)(stack, tol))
                best = min(timer.repeat(repeat=repeat, number=CALLS)) / CALLS
                out.setdefault(spec, {}).setdefault(str(count), {})[f"{kernel}_us"] = \
                    round(best * 1e6, 1)
    return {"numpy": np.__version__, "repeat": repeat, "us_per_call": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the directory holding the jordantp package to run")
    parser.add_argument("--spec", action="append", help="a model spec (default: sym:4, herm:3)")
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    print(json.dumps(timings(tuple(args.spec or SPECS), repeat=args.repeat), indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
