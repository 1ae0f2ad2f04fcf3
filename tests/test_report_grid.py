"""``tools/report_grid.py`` prints, for each command line of its grid, the
exit code and the digests of what the command printed, so that two
checkouts can be compared by diffing its output; with ``--compare`` it
prints, for each line that differs, both exit codes and the largest gap
between corresponding numbers."""

import hashlib
import os
import re

import pytest

from conftest import load_module
from jordantp.cli import main


@pytest.fixture(scope="module")
def grid():
    return load_module("tools/report_grid.py")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_grid_holds_each_command_line_once(grid):
    lines = [" ".join(argv) for argv in grid.commands()]
    assert len(lines) == len(set(lines))
    # the verify grid, each suite alone, spectral, tpmatrix, geom on the
    # benchmark's shapes and on three extreme ones, and the bad inputs
    assert len(lines) == 197 + 300 + 12 + 48 + 18 + 3 + 23


def test_two_command_lines_print_their_exit_codes_and_digests(grid, tmp_path, capsys):
    grid.write_inputs(str(tmp_path))
    # a report, whose wall time the digest leaves out
    argv = ["verify", "classical:2", "--suite", "spectral", "--trials", "2"]
    line = grid.digest_line(argv, str(tmp_path))
    assert grid.digest_line(argv, str(tmp_path)) == line
    assert main(argv) == 0
    report = re.sub(r'"wall_time_ms": \d+', '"wall_time_ms"', capsys.readouterr().out)
    assert line == " ".join(["0", _sha(report), _sha(""), *argv])
    # a usage error: exit 2, nothing on stdout and the message on stderr,
    # the input directory shown as {dir}
    argv = ["spectral", "spin:2", "{dir}/missing.json"]
    code, out, err, *rest = grid.digest_line(argv, str(tmp_path)).split(" ")
    assert (code, out, rest) == ("2", _sha(""), argv)
    assert main(["spectral", "spin:2", f"{tmp_path}/missing.json"]) == 2
    assert err == _sha(capsys.readouterr().err.replace(str(tmp_path), "{dir}"))


def test_a_leading_assignment_sets_the_environment_of_its_line(grid, tmp_path, monkeypatch):
    monkeypatch.delenv("JORDAN_TP_SEED", raising=False)
    argv = ["verify", "classical:2", "--suite", "spectral", "--trials", "2"]
    code, out, err = grid.run_line(["JORDAN_TP_SEED=17", *argv], str(tmp_path))
    assert (code, err) == (0, "") and '"seed": 17,' in out
    assert "JORDAN_TP_SEED" not in os.environ
    assert grid.run_line(["JORDAN_TP_SEED=abc", *argv], str(tmp_path)) == (
        2, "", "error: invalid literal for int() with base 10: 'abc'\n")


def test_compare_reports_exit_codes_and_the_largest_number_gap(grid):
    report = '[{"affinity_defect": 1.0000000000000002e-16, "passes": true, "values": [0, 1]}]\n'
    drifted = '[{"affinity_defect": 2.5e-16, "passes": true, "values": [0, 1.0]}]\n'
    assert grid.number_gap(report, report) == 0.0
    assert grid.number_gap(report, drifted) == pytest.approx(1.5e-16, rel=1e-9)
    assert grid.number_gap(report, report.replace("true", "false")) is None
    lines = [["geom", "a.csv"], ["geom", "b.csv"], ["geom", "c.csv"], ["spectral", "x"],
             ["spectral", "y"]]
    base = [(0, report, ""), (0, report, ""), (1, report, ""), (0, "[1, 2]\n", ""),
            (2, "", "error: no\n")]
    change = [(0, report, ""), (0, drifted, ""), (1, report.replace("true", "false"), ""),
              (2, "", "error: no\n"), (2, "", "error: other\n")]
    assert grid.compare(base, change, lines) == [
        "0 0 1.5e-16 geom b.csv",
        "1 1 text geom c.csv",
        "0 2 text spectral x",
        "2 2 text spectral y",
        "4 of 5 grid lines differ: 1 in exit code, 3 in more than numbers; "
        "largest number difference 1.5e-16",
    ]
