"""``tools/sweep.py`` counts, check by check, the seeds on which a
``verify --suite all`` verdict disagrees with the benchmark's theory
oracle, in both directions."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "sweep.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("jordantp_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_sweep_finds_the_theory_verdicts_on_two_specs(tool):
    got = tool.sweep(("sym:2", "lpq:2:3"), range(2), (1,))
    assert got == {"N": 2, "seeds": [0, 1], "trials": [1], "zero_count_bound": 1.5, "counts": {
        "sym:2": {"1": {"checks": 64, "wrong_fail": {}, "wrong_pass": {}}},
        "lpq:2:3": {"1": {"checks": 63, "wrong_fail": {}, "wrong_pass": {}}}}}


def test_the_sweep_counts_disagreements_both_ways(tool, monkeypatch):
    # an oracle with the symmetric and the asymmetric spec swapped
    monkeypatch.setattr(tool, "theory_fails",
                        lambda spec: {"tp.symmetry"} if spec == "sym:2" else set())
    counts = tool.sweep(("sym:2", "lpq:2:3"), range(2), (1,))["counts"]
    assert counts["sym:2"]["1"]["wrong_pass"] == {"tp.symmetry": 2}
    assert counts["lpq:2:3"]["1"]["wrong_fail"] == {"tp.symmetry": 2}
    assert counts["sym:2"]["1"]["wrong_fail"] == counts["lpq:2:3"]["1"]["wrong_pass"] == {}


def test_the_oracle_is_the_benchmarks(tool):
    assert tool.theory_fails("lpq:2:40") == tool.theory_fails("lpq:3:1.5") == {"tp.symmetry"}
    assert all(tool.theory_fails(spec) == set() for spec in
               ("classical:1", "spin:3", "sym:4", "herm:3", "lpq:2:2"))
    assert len(tool.SPECS) == 12 and tool.SEEDS == range(300) and tool.TRIALS == (1, 8, 24)
