"""``tools/kernel_timing.py`` times the matrix backends' batch kernels on
fixed stacks whose rows cover every cluster pattern the suites send."""

import json

import numpy as np

from conftest import load_module
from jordantp import Tolerance, get_model


def test_the_stack_holds_every_kind_of_row():
    tool = load_module("tools/kernel_timing.py")
    model = get_model("sym", 4)
    stack = tool.kernel_stack(model, 8)
    eigs = np.round(model.eigenvalues_batch(stack, Tolerance()), 9) + 0.0
    # random, logic of ranks 1-3, unit - e, unit, then random and rank 1 again
    for row, ones in {1: 1, 2: 2, 3: 3, 4: 3, 5: 4, 7: 1}.items():
        assert eigs[row].tolist() == [1.0] * ones + [0.0] * (4 - ones)
    assert len(set(eigs[0].tolist())) == 4 and len(set(eigs[6].tolist())) == 4
    assert np.array_equal(tool.kernel_stack(model, 8), stack)


def test_one_spec_at_one_repeat(capsys):
    tool = load_module("tools/kernel_timing.py")
    assert tool.main(["--spec", "herm:2", "--repeat", "1"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["repeat"] == 1 and got["numpy"] == np.__version__
    times = got["us_per_call"]
    assert list(times) == ["herm:2"] and list(times["herm:2"]) == ["8", "260"]
    for row in times["herm:2"].values():
        assert list(row) == ["decompose_batch_us", "eigenvalues_batch_us"]
        assert all(t > 0 for t in row.values())
