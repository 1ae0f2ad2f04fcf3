"""Count how often a ``verify --suite all`` verdict disagrees with the theory,
check by check, over many seeds.

Each run calls ``run_suite(model, "all", seed, trials)`` in-process, on the
twelve specs below at seeds 0-299 and trials 1, 8 and 24.  The theory is the
verdict oracle of ``bench/workloads.py``: every check passes, except
``tp.symmetry`` on an lpq model whose transition probability is not
symmetric (n >= 2 and p != 2), which fails.  For each (spec, trials, check)
the tool counts the seeds on which the check failed where the theory says
it passes (``wrong_fail``), and the seeds on which it passed where the
theory says it fails (``wrong_pass``).  It prints one JSON object: those
counts, N (the seeds per count), and 3/N, the 95% upper bound on the rate
of a disagreement never seen in N seeds (the rule of three), which holds
for every zero count.  Two checkouts are compared with ``diff``:

    python tools/sweep.py > change.json
    python tools/sweep.py --src ../parent/src > parent.json
    diff parent.json change.json

A full run takes a few minutes on one core.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPECS = ("classical:1", "classical:4", "spin:2", "spin:3", "sym:2", "sym:4", "herm:2",
         "herm:3", "lpq:2:3", "lpq:2:40", "lpq:2:2", "lpq:3:1.5")
SEEDS = range(300)
TRIALS = (1, 8, 24)

sys.path.insert(0, str(ROOT / "bench"))
try:
    from workloads import _spec_is_symmetric  # the benchmark's verdict oracle
finally:
    sys.path.remove(str(ROOT / "bench"))


def theory_fails(spec: str) -> set[str]:
    """The checks the theory says fail on ``spec``."""
    return set() if _spec_is_symmetric(spec) else {"tp.symmetry"}


def sweep(specs=SPECS, seeds=SEEDS, trials=TRIALS) -> dict:
    """The JSON object described above, over the given inputs.  Under
    ``counts``, each spec and trial count holds the number of checks in a
    report and, by check, the nonzero counts of wrong failures and of wrong
    passes; a check not listed disagreed with the theory on no seed."""
    from jordantp.cli import parse_model_spec
    from jordantp.suites import run_suite

    counts: dict = {}
    for spec in specs:
        model, fails = parse_model_spec(spec), theory_fails(spec)
        for n in trials:
            wrong: dict = {"wrong_fail": {}, "wrong_pass": {}}
            for seed in seeds:
                checks = run_suite(model, "all", seed, n).checks
                for check in checks:
                    if check.passed == (check.name in fails):
                        tally = wrong["wrong_pass" if check.passed else "wrong_fail"]
                        tally[check.name] = tally.get(check.name, 0) + 1
            counts.setdefault(spec, {})[str(n)] = {"checks": len(checks), **wrong}
    return {"N": len(seeds), "seeds": [seeds[0], seeds[-1]], "trials": list(trials),
            "zero_count_bound": 3 / len(seeds), "counts": counts}


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
