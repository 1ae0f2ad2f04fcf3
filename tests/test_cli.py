import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import SHAPES, fresh_env, load_module
from jordantp import PolytopeStateSpace, check_extreme_affinity
from jordantp.backends import parse_model_spec
from jordantp.cli import main
from jordantp.reports import format_double
from jordantp.transition import tp_matrix_from_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": X', text)


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "herm:2", "--suite", "spectral",
                           "--seed", "42", "--trials", "50")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["model"] == {"kind": "herm", "n": 2}
    assert report["seed"] == 42


def test_verify_determinism_byte_identical(capsys):
    args = ("verify", "herm:3", "--suite", "all", "--seed", "42", "--trials", "40")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert strip_wall_time(out1) == strip_wall_time(out2)


def test_verify_checks_sorted_canonically(capsys):
    _, out, _ = run_cli(capsys, "verify", "classical:3", "--suite", "all",
                        "--seed", "1", "--trials", "30")
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == sorted(names)


def test_verify_lpq_symmetry_fails_exit_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "lpq:2:3", "--suite", "tp",
                           "--seed", "7", "--trials", "60")
    assert code == 1
    report = json.loads(out)
    failed = {c["name"]: c for c in report["checks"] if not c["passed"]}
    assert "tp.symmetry" in failed
    assert failed["tp.symmetry"]["defect"] > 0.01
    skipped = [c for c in report["checks"] if c.get("skipped")]
    assert skipped, "inner-product checks must be reported as skipped, not dropped"
    assert all(c.get("note") for c in skipped)


def test_verify_lpq_near_one_exponent_warns_nothing(capsys):
    # the overflow test of LpQubitModel.pnorms raises no RuntimeWarning, which
    # the test configuration turns into an error and the CLI into exit 3
    code, out, err = run_cli(capsys, "verify", "lpq:3:1.001", "--suite", "all",
                             "--trials", "60", "--seed", "0")
    assert (code, err) == (1, "")
    assert [c["name"] for c in json.loads(out)["checks"] if not c["passed"]] == ["tp.symmetry"]


def test_verify_malformed_model_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", "nosuch:3")
    assert code == 2
    assert "error" in err


def test_verify_bad_tol_exit_two(capsys):
    assert run_cli(capsys, "verify", "herm:2", "--tol", "bogus=1")[0] == 2
    assert run_cli(capsys, "verify", "herm:2", "--tol", "check_tol")[0] == 2


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "classical:2", "--suite", "logic",
                           "--seed", "0", "--trials", "20", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,passed,defect,tolerance,skipped"
    assert all(line.count(",") == 4 for line in lines[1:])


def test_verify_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "spin:2", "--suite", "axioms",
                           "--seed", "3", "--trials", "30", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["passed"] is True


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("JORDAN_TP_SEED", "17")
    _, out, _ = run_cli(capsys, "verify", "classical:2", "--suite", "spectral",
                        "--trials", "10")
    assert json.loads(out)["seed"] == 17


def test_negative_seed_exit_two(capsys):
    assert run_cli(capsys, "verify", "classical:2", "--seed", "-4")[0] == 2


def test_spectral_command(capsys, tmp_path):
    element = tmp_path / "element.json"
    element.write_text("[3.0, -1.0]")
    code, out, _ = run_cli(capsys, "spectral", "classical:2", str(element))
    assert code == 0
    payload = json.loads(out)
    assert [p["eigenvalue"] for p in payload["pairs"]] == [3.0, -1.0]
    assert payload["reconstruction_residual"] <= 1e-9


def test_spectral_command_unit(capsys, tmp_path):
    element = tmp_path / "unit.json"
    element.write_text("[1.0, 0.0, 0.0]")
    code, out, _ = run_cli(capsys, "spectral", "spin:2", str(element))
    payload = json.loads(out)
    assert code == 0
    assert all(p["eigenvalue"] == 1.0 for p in payload["pairs"])


def test_spectral_command_random_herm(capsys, tmp_path):
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    mat = 0.5 * (mat + mat.conj().T)
    from jordantp import get_model
    coords = get_model("herm", 3).matrix_coords(mat)
    element = tmp_path / "h.json"
    element.write_text(json.dumps(list(coords)))
    code, out, _ = run_cli(capsys, "spectral", "herm:3", str(element))
    assert code == 0
    assert json.loads(out)["reconstruction_residual"] <= 1e-9


def test_spectral_malformed_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"not\": \"an array\"}")
    assert run_cli(capsys, "spectral", "classical:2", str(bad))[0] == 2
    short = tmp_path / "short.json"
    short.write_text("[1.0]")
    assert run_cli(capsys, "spectral", "classical:2", str(short))[0] == 2


@pytest.mark.parametrize("coords", [[1e308, -1e308, 1e308], [1.5e308, 1.5e308, 0.0]])
def test_spectral_near_overflow(capsys, tmp_path, coords):
    # the eigenvalues (+-sqrt(2)e308, and 1.5e308 twice) are finite doubles;
    # their gap and their cluster sum are not
    element = tmp_path / "big.json"
    element.write_text(json.dumps(coords))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "spectral", "sym:2", str(element))
    assert (code, err) == (0, "")
    a, b, c = coords
    expected = np.linalg.eigvalsh(np.array([[a, c], [c, b]]))[::-1]
    payload = json.loads(out)
    np.testing.assert_allclose([p["eigenvalue"] for p in payload["pairs"]], expected,
                               rtol=1e-14, atol=0)
    assert payload["reconstruction_residual"] <= 1e-14 * np.max(np.abs(expected))


def test_spin_spectral_near_overflow(capsys, tmp_path):
    # |x| = sqrt(2)e308 is a finite double although |x|^2 is not
    element = tmp_path / "big.json"
    element.write_text(json.dumps([0.0, 1e308, 1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "spectral", "spin:2", str(element))
    assert (code, err) == (0, "")
    radius = math.hypot(1e308, 1e308)
    payload = json.loads(out)
    assert [p["eigenvalue"] for p in payload["pairs"]] == [radius, -radius]
    assert payload["reconstruction_residual"] <= 1e-14 * radius


@pytest.mark.parametrize("scale", [1e308, 1e-250])
def test_lpq_spectral_extreme_scale(capsys, tmp_path, scale):
    # |f|_q = 2^(2/3) * scale is a finite nonzero double although scale^q
    # overflows (1e308) or underflows to zero (1e-250)
    element = tmp_path / "extreme.json"
    element.write_text(json.dumps([0.0, scale, scale]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "spectral", "lpq:2:3", str(element))
    assert (code, err) == (0, "")
    radius = 2.0 ** (2.0 / 3.0) * scale
    payload = json.loads(out)
    np.testing.assert_allclose([p["eigenvalue"] for p in payload["pairs"]], [radius, -radius],
                               rtol=1e-14, atol=0)
    assert payload["reconstruction_residual"] <= 1e-14 * radius


@pytest.mark.parametrize("spec, top", [("spin:2", 1.0 + math.sqrt(2.0)),
                                       ("lpq:2:3", 1.0 + 2.0 ** (2.0 / 3.0))])
def test_spectral_overflow_names_the_eigenvalue(capsys, tmp_path, spec, top):
    # the input is finite, but its top eigenvalue t + r is not a double
    element = tmp_path / "overflow.json"
    element.write_text(json.dumps([1e308, 1e308, 1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "spectral", spec, str(element))
    assert (code, out) == (2, "")
    assert err == (f"error: eigenvalue 0 (largest first) of the element is {top:.6f}e+308, "
                   "outside the range of a double\n")


def test_internal_failure_exit_three(capsys, tmp_path, monkeypatch):
    # a degenerate spectrum reaches the deterministic-basis step of the kernel
    from jordantp.backends import matrices

    def broken(projectors, ranks):
        raise RuntimeError("projector basis extraction failed")

    monkeypatch.setattr(matrices, "_eigenspace_bases", broken)
    element = tmp_path / "unit.json"
    element.write_text("[1.0, 1.0, 0.0]")
    code, out, err = run_cli(capsys, "spectral", "sym:2", str(element))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "projector basis extraction failed" in err


@pytest.mark.parametrize("module,suite",
                         [("suites", "logic"), ("suites", "axioms"), ("logic", "logic")])
def test_a_sampled_element_outside_the_logic_exits_three(capsys, monkeypatch, module, suite):
    # the suites draw their logic elements themselves, so an element that
    # fails the logic test is an internal fault, not the user's input
    import importlib

    monkeypatch.setattr(importlib.import_module(f"jordantp.{module}"), "logic_rows",
                        lambda eigs, tol: np.zeros(len(eigs), dtype=bool))
    code, out, err = run_cli(capsys, "verify", "sym:2", "--suite", suite, "--trials", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not in the quantum logic" in err


@pytest.mark.parametrize("suite", ["all", "axioms", "tp"])
def test_a_kernel_fault_on_atoms_exits_three(capsys, monkeypatch, suite):
    # no command reads atom coordinates, so atoms that fail the atom test are
    # the library's own: a kernel fault, not the user's mistake
    from jordantp.backends.matrices import SymMatrixModel

    frames = SymMatrixModel._frames

    def shifted(self, stack, tol):
        values, atoms = frames(self, stack, tol)
        return values, atoms + 1e-7

    monkeypatch.setattr(SymMatrixModel, "_frames", shifted)
    code, out, err = run_cli(capsys, "verify", "sym:4", "--suite", suite, "--trials", "24")
    assert (code, out) == (3, "")
    assert err == "error: internal failure: NotAtomError: matrix atoms are rank-one projections\n"


@pytest.mark.parametrize("eig_cluster", ["1e-16", "1e-20"])
@pytest.mark.parametrize("spec,failing", [("sym:4", []), ("herm:3", []), ("spin:3", []),
                                          ("classical:4", []), ("lpq:2:3", ["tp.symmetry"])])
def test_an_eig_cluster_below_rounding_decides_no_logic_verdict(capsys, spec, failing,
                                                                eig_cluster):
    # the logic test and the meet threshold read eig_cluster as at least the
    # rounding of a logic element: a tighter cutoff neither rejects the
    # suites' own logic elements nor warns on an exact meet
    from jordantp.logic import MeetThresholdWarning

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", MeetThresholdWarning)
        code, out, err = run_cli(capsys, "verify", spec, "--suite", "all", "--trials", "24",
                                 "--seed", "1", "--tol", f"eig_cluster={eig_cluster}")
    assert (code, err, caught) == (1 if failing else 0, "", [])
    assert [c["name"] for c in json.loads(out)["checks"] if not c["passed"]] == failing


def test_geom_triangle_exit_zero(capsys, tmp_path):
    path = tmp_path / "tri.csv"
    np.savetxt(path, SHAPES["triangle"][0], delimiter=",")
    code, out, _ = run_cli(capsys, "geom", str(path), "--midpoint-samples", "8")
    assert code == 0
    reports = json.loads(out)
    assert all(r["passes"] for r in reports)


def test_geom_square_exit_one_with_its_fit_residual(capsys, tmp_path):
    path = tmp_path / "sq.csv"
    np.savetxt(path, SHAPES["square"][0], delimiter=",")
    code, out, _ = run_cli(capsys, "geom", str(path), "--midpoint-samples", "0")
    assert code == 1
    reports = json.loads(out)
    assert not any(r["passes"] for r in reports)
    # e_0's vertex values (1, 0, 0, 0) are 1/4 (1, -1, 1, -1) off their affine fit
    assert reports[0]["affinity_defect"] == pytest.approx(0.25, abs=1e-6)
    code, out, _ = run_cli(capsys, "geom", str(path), "--midpoint-samples", "8", "--seed", "3")
    assert code == 1
    want = check_extreme_affinity(PolytopeStateSpace(np.loadtxt(path, delimiter=",")),
                                  midpoint_samples=8, seed=3)
    assert json.loads(out) == [r.to_json() for r in want]


def test_a_closed_stdout_keeps_the_verdict(tmp_path):
    # `geom square.csv | head -c 0`: the reader is gone before the report is
    # written, which says nothing about the input, so the exit code is the
    # verdict's and stderr stays empty
    path = tmp_path / "square.csv"
    np.savetxt(path, SHAPES["square"][0], delimiter=",")
    proc = subprocess.Popen([sys.executable, "-m", "jordantp.cli", "geom", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")


def test_geom_pentagon_exit_one(capsys, tmp_path):
    path = tmp_path / "pent.csv"
    np.savetxt(path, SHAPES["pentagon"][0], delimiter=",")
    assert run_cli(capsys, "geom", str(path), "--midpoint-samples", "8")[0] == 1


def test_geom_negative_samples_exit_two(capsys, tmp_path):
    path = tmp_path / "tri.csv"
    np.savetxt(path, SHAPES["triangle"][0], delimiter=",")
    code, out, err = run_cli(capsys, "geom", str(path), "--midpoint-samples", "-3")
    assert (code, out) == (2, "")
    assert "midpoint_samples" in err


def test_geom_malformed_exit_two(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,junk\n2.0,3.0\n")
    assert run_cli(capsys, "geom", str(path))[0] == 2


def test_geom_empty_csv_prints_one_error_line(capsys, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "geom", str(path))
    assert (code, out) == (2, "")
    assert err == "error: a polytope needs at least two vertices\n"


def test_tpmatrix_orthogonal_atoms_identity(capsys, tmp_path):
    atoms = tmp_path / "atoms.json"
    atoms.write_text(json.dumps([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]))
    code, out, _ = run_cli(capsys, "tpmatrix", "herm:2", str(atoms))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "e0,e1"
    row = [float(x) for x in lines[1].split(",")]
    assert row == [1.0, 0.0]
    assert lines[-1].startswith("# symmetry_defect = ")


def test_tpmatrix_hadamard_entries(capsys, tmp_path):
    s = 1.0 / np.sqrt(2.0)
    atoms = tmp_path / "atoms.json"
    atoms.write_text(json.dumps([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                                 [s, 0.0, s, 0.0]]))
    code, out, _ = run_cli(capsys, "tpmatrix", "herm:2", str(atoms))
    assert code == 0
    rows = [[float(x) for x in line.split(",")]
            for line in out.strip().split("\n")[1:4]]
    assert rows[0][2] == pytest.approx(0.5, abs=1e-12)
    assert rows[2][0] == pytest.approx(0.5, abs=1e-12)


def test_tpmatrix_random_lpq_asymmetric(capsys):
    code, out, _ = run_cli(capsys, "tpmatrix", "lpq:2:3", "--random", "5", "--seed", "3")
    assert code == 0
    defect = float(out.strip().split("= ")[-1])
    assert defect > 1e-3


@pytest.mark.parametrize("spec", ["sym:4", "herm:3", "classical:4", "spin:3", "lpq:2:3",
                                  "lpq:2:40", "lpq:3:1.5", "classical:1", "sym:1"])
def test_tpmatrix_random_table_is_the_per_element_draws(capsys, spec):
    # the K atoms are one stack drawn from one generator: the table the
    # loop of K one-row draws gives, byte for byte
    model = parse_model_spec(spec)
    rng = np.random.default_rng(11)
    matrix = tp_matrix_from_params(model, [model.random_atom_param(rng) for _ in range(7)])
    want = f"{matrix.to_csv()}# symmetry_defect = {format_double(matrix.symmetry_defect())}\n"
    assert run_cli(capsys, "tpmatrix", spec, "--random", "7", "--seed", "11") == (0, want, "")


def test_tpmatrix_non_atom_exit_two(capsys, tmp_path):
    atoms = tmp_path / "bad.json"
    atoms.write_text(json.dumps([[0.5, 0.0, 0.5, 0.0]]))  # not normalized
    assert run_cli(capsys, "tpmatrix", "herm:2", str(atoms))[0] == 2


@pytest.mark.parametrize("param", [1.5, -0.5, True, [1]])
def test_tpmatrix_classical_non_integer_index_exit_two(capsys, tmp_path, param):
    atoms = tmp_path / "atoms.json"
    atoms.write_text(json.dumps([param]))
    code, out, err = run_cli(capsys, "tpmatrix", "classical:2", str(atoms))
    assert code == 2 and out == ""
    assert "basis index must be an integer" in err


def test_tpmatrix_classical_integral_float_index(capsys, tmp_path):
    atoms = tmp_path / "atoms.json"
    atoms.write_text(json.dumps([0, 1.0]))
    code, out, _ = run_cli(capsys, "tpmatrix", "classical:2", str(atoms))
    assert code == 0
    assert out.split("\n")[1:3] == ["1,0", "0,1"]


@pytest.mark.parametrize("command,spec,data,entry", [
    ("spectral", "spin:2", [{"a": 1}, 1, 2], "[0]"),
    ("tpmatrix", "spin:2", [[1, {"a": 1}]], "[0][1]"),
    ("tpmatrix", "classical:2", [{"a": 1}], "[0]"),
    ("spectral", "classical:2", [1.0, None], "[1]"),
    ("tpmatrix", "spin:2", [[1, 10 ** 400]], "[0][1]")])
def test_a_non_numeric_json_entry_exits_two(capsys, tmp_path, command, spec, data, entry):
    # numpy's float conversion raised TypeError (or OverflowError on an
    # integer beyond a double), which read as an internal failure, exit 3,
    # and read a null as NaN; the entry is now named
    path = tmp_path / "entries.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, command, spec, str(path))
    assert (code, out) == (2, "")
    what = "element file" if command == "spectral" else "atoms file"
    assert err.startswith(f"error: {what} entry {entry} ")


def test_tpmatrix_requires_source(capsys):
    assert run_cli(capsys, "tpmatrix", "herm:2")[0] == 2


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing the model argument
    assert exc.value.code == 2


def test_verify_classical_logic_suite_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "classical:4", "--suite", "logic",
                           "--seed", "0", "--trials", "40")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_tpmatrix_takes_no_tolerance():
    with pytest.raises(SystemExit) as exc:
        main(["tpmatrix", "spin:2", "--random", "2", "--tol", "check_tol=1e-6"])
    assert exc.value.code == 2


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    from jordantp import cli

    assert cli.build_parser() is cli.build_parser()
    seen = []
    parse_tol = cli._parse_tol

    def recording(items, keys):
        seen.append(list(items))
        return parse_tol(items, keys)

    monkeypatch.setattr(cli, "_parse_tol", recording)
    for extra in (["--tol", "check_tol=1e-8"], []):
        code, _, _ = run_cli(capsys, "verify", "classical:2", "--suite", "spectral",
                             "--trials", "2", *extra)
        assert code == 0
    # the append action's default list is not shared between calls
    assert seen == [["check_tol=1e-8"], []]


# The exit-code table: the error line of each of the grid's bad inputs, in
# its order.  Each exits 2 with nothing on stdout and this one "error:" line
# on stderr, the grid's input directory shown as "{dir}".
GRID = load_module("tools/report_grid.py")
BAD_INPUT_MESSAGES = [
    "the number of columns changed from 2 to 3 at row 2; "
    "use `usecols` to select a subset and avoid this error",
    "could not convert string 'junk' to float64 at row 1, column 2.",
    "a polytope needs at least two vertices",
    "vertex 2 is not extreme (inside the hull of the others)",
    "unknown tolerance key 'eig_cluster'; known: ('check_tol',)",
    "element file array is ragged",
    "Expecting ',' delimiter: line 1 column 10 (char 9)",
    "expected 3 coordinates, got shape (3, 2)",
    "element file entry [0] is not a finite double",
    "eigenvalue 0 (largest first) of the element is 2.414214e+308, outside the range of a double",
    "element file is nested 65 deep, past numpy's 64 dimensions",
    "unknown tolerance key 'check_tol'; known: ('eig_cluster',)",
    "need at least one atom",
    "need at least one atom",
    "atom parameter must be a vector in dimension 2",
    "boundary point must lie on the unit l^p sphere",
    "atom parameter must be a vector",
    "atoms file is nested 2000 deep, past numpy's 64 dimensions",
    "check_tol must lie strictly in (0, 1e-3), got nan",
    "[Errno 2] No such file or directory: '{dir}/missing/report.json'",
    "matrix model needs n >= 1",
    "model size must be an integer, got '1.5'",
    "invalid literal for int() with base 10: 'abc'",
]


@pytest.fixture(scope="module")
def grid_inputs(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("grid"))
    GRID.write_inputs(workdir)
    return workdir


@pytest.mark.parametrize("argv,message",
                         list(zip(GRID.BAD_INPUTS, BAD_INPUT_MESSAGES, strict=True)),
                         ids=[" ".join(argv) for argv in GRID.BAD_INPUTS])
def test_a_bad_input_exits_two_with_one_error_line(grid_inputs, argv, message):
    assert GRID.run_line(argv, grid_inputs) == (2, "", f"error: {message}\n")


def _eigh_fails(monkeypatch):
    def eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)


def _frames_mutant(change):
    def patch(monkeypatch):
        from jordantp.backends.matrices import SymMatrixModel

        frames = SymMatrixModel._frames
        monkeypatch.setattr(SymMatrixModel, "_frames",
                            lambda self, stack, tol: change(*frames(self, stack, tol)))
    return patch


def _nan_top(values, atoms):
    values = values.copy()
    values[:, 0] = np.nan
    return values, atoms


KERNEL_FAULTS = {
    "eigh raises": (_eigh_fails, "LinAlgError: Eigenvalues did not converge"),
    "NaN eigenvalue": (_frames_mutant(_nan_top),
                       "FloatingPointError: eigenvalue 0 (largest first) of the element is NaN"),
    "atoms one coordinate short": (_frames_mutant(lambda values, atoms: (values, atoms[..., :-1])),
                                   "DimensionMismatchError: expected 6 coordinates, got shape "
                                   "(4, 5)"),
}


@pytest.mark.parametrize("fault,command", [("eigh raises", "verify"), ("eigh raises", "spectral"),
                                           ("NaN eigenvalue", "verify"),
                                           ("NaN eigenvalue", "spectral"),
                                           ("atoms one coordinate short", "verify")])
def test_a_kernel_fault_exits_three(capsys, tmp_path, monkeypatch, fault, command):
    # numpy's LinAlgError and the kernel's own faults are ValueErrors or
    # JordanTpErrors that no input check raised: they exited 2, as if the
    # user had erred
    patch, message = KERNEL_FAULTS[fault]
    element = tmp_path / "element.json"
    element.write_text("[1.0, 0.5, 0.25]")
    argv = (["verify", "sym:3", "--trials", "4"] if command == "verify"
            else ["spectral", "sym:2", str(element)])
    patch(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: internal failure: {message}\n"
