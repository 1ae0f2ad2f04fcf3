"""Verdict gate: a faster or leaner build must give the same verdicts and the
same check names on every conftest model spec.

The benchmark's oracle (``bench/workloads.py``'s ``check_verify``) decides
each run from theory: every symmetric family passes every check, and lpq:2:3
(a non-Euclidean ball) fails exactly ``tp.symmetry``; every report carries
the canonical check names.  The gate adds that the names come sorted, once
each.
"""

import json

import pytest

from conftest import ALL_MODEL_SPECS, workloads
from jordantp.cli import main

GATE_SEEDS = range(5)
GATE_TRIALS = "8"


def _spec(kind, n, p):
    return f"{kind}:{n}" + (f":{p:g}" if p else "")


@pytest.mark.parametrize("seed", GATE_SEEDS)
@pytest.mark.parametrize("spec", [_spec(*s) for s in ALL_MODEL_SPECS])
def test_theory_verdicts(capsys, spec, seed):
    code = main(["verify", spec, "--suite", "all", "--seed", str(seed),
                 "--trials", GATE_TRIALS])
    out = capsys.readouterr().out
    assert workloads.check_verify(spec, code, out) is None
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == sorted(set(names))
