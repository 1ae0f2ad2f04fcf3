"""Host-speed normalisation for the benchmark's times.

A shared host runs the same code at different speeds over time: on a 2-core
host the same pure-Python loop was seen to settle for tens of seconds at one
speed and then at another about 1.45 times slower, and a verify request
slowed by up to 1.8 times with it.  A run's median wall time then tells how
busy the neighbours were more than how fast the program is.

So the benchmark runs a fixed reference probe before every timed sample and
after the last, and scales each sample by the reference's duration on the
host's fast state over the mean of the probes just before and after it.
That reads the sample as seconds on a host in that state.  The probes do the
kinds of work jordantp does but run none of it, so a change to jordantp
moves the samples and not the probes, and shows in full.  The wall-clock
values are kept and printed beside the normalised ones.

The host's speed also changes within seconds.  In five runs of each
workload, scaling by the median of the nine nearest probes left the spread
of the run medians at up to 0.11 of their median, and scaling by the two
adjacent probes at up to 0.053 (0.46 unscaled).

There are two references, for two kinds of work:

* ``WARM`` runs in the benchmark's own process: interpreter work on small
  objects, and small numpy and LAPACK calls.  It scales requests served
  in-process.
* ``FRESH`` starts a fresh interpreter that imports numpy.  It scales set-up
  and the ``cli-cold`` requests, which are fresh interpreters that mostly
  import.  ``WARM`` tracked those worse than no normalising at all.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_PY_STEPS = 10000
_NP_STEPS = 100
_MATRIX = np.array([[2.0, 0.5, -0.3, 0.1],
                    [0.5, 1.0, 0.2, -0.4],
                    [-0.3, 0.2, -1.5, 0.6],
                    [0.1, -0.4, 0.6, 0.3]])


def _warm_probe() -> float:
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(_PY_STEPS):
        pair = (i & 63, float(i) * 0.5)
        table[pair[0]] = pair
        acc += pair[1]
    vec = _MATRIX[0]
    for _ in range(_NP_STEPS):
        weights, frame = np.linalg.eigh(_MATRIX)
        vec = (frame * weights) @ (frame.T @ vec)
        acc += float(np.dot(vec, vec)) + float(np.abs(vec).max())
    elapsed = time.perf_counter() - start
    if acc != acc:  # keeps the work from being skipped; never true
        raise ArithmeticError("reference probe produced NaN")
    return elapsed


def _fresh_probe() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Reference:
    """A probe, and its duration on a 2-core x86-64 host (Python 3.11,
    numpy 2.4, OpenBLAS on one thread) in its fast state; only the scale of
    the normalised times depends on that duration."""

    probe: Callable[[], float]
    seconds: float

    def normalise(self, samples: list[float], probes: list[float]) -> list[float]:
        """Scale ``samples[i]`` by ``probes[i]`` and ``probes[i + 1]``, the
        probes taken just before and just after it."""
        return [sample * 2.0 * self.seconds / (before + after)
                for sample, before, after in zip(samples, probes, probes[1:])]


WARM = Reference(_warm_probe, 0.0032)
FRESH = Reference(_fresh_probe, 0.135)
