"""``tools/report_grid.py`` prints, for each command line of its grid, the
exit code and the digests of what the command printed, so that two
checkouts can be compared by diffing its output."""

import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

from jordantp.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_grid.py"


@pytest.fixture(scope="module")
def grid():
    spec = importlib.util.spec_from_file_location("jordantp_report_grid", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_grid_holds_each_command_line_once(grid):
    lines = [" ".join(argv) for argv in grid.commands()]
    assert len(lines) == len(set(lines))
    # the verify grid, each suite alone, spectral, tpmatrix and geom
    assert len(lines) == 197 + 300 + 12 + 48 + 18


def test_two_command_lines_print_their_exit_codes_and_digests(grid, tmp_path, capsys):
    grid.write_inputs(str(tmp_path))
    # a report, whose wall time the digest leaves out
    argv = ["verify", "classical:2", "--suite", "spectral", "--trials", "2"]
    line = grid.digest_line(argv, str(tmp_path))
    assert grid.digest_line(argv, str(tmp_path)) == line
    assert main(argv) == 0
    report = re.sub(r'"wall_time_ms": \d+', '"wall_time_ms"', capsys.readouterr().out)
    assert line == " ".join(["0", _sha(report), _sha(""), *argv])
    # a usage error: exit 2, nothing on stdout and the message on stderr
    argv = ["spectral", "spin:2", "{dir}/missing.json"]
    code, out, err, *rest = grid.digest_line(argv, str(tmp_path)).split(" ")
    assert (code, out, rest) == ("2", _sha(""), argv)
    assert main(["spectral", "spin:2", f"{tmp_path}/missing.json"]) == 2
    assert err == _sha(capsys.readouterr().err)
