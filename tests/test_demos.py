"""Smoke test: every narrative walkthrough in ``demos/`` runs to the end."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert [path.stem for path in DEMOS] == [
        "polytope_geometry", "quantum_logic_lattice", "selfdual_cones",
        "spectral_decomposition", "transition_asymmetry"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
