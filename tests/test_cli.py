import json
import math
import re
import warnings

import numpy as np
import pytest

from jordantp import PolytopeStateSpace, check_extreme_affinity
from jordantp.cli import main


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

    def broken(vecs):
        raise RuntimeError("projector basis extraction failed")

    monkeypatch.setattr(matrices, "_eigenspace_bases", broken)
    element = tmp_path / "unit.json"
    element.write_text("[1.0, 1.0, 0.0]")
    code, out, err = run_cli(capsys, "spectral", "sym:2", str(element))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "projector basis extraction failed" in err


@pytest.mark.parametrize("module,suite", [("suites", "logic"), ("transition", "axioms")])
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


def test_geom_triangle_exit_zero(capsys, tmp_path):
    path = tmp_path / "tri.csv"
    np.savetxt(path, [[0, 0], [1, 0], [0, 1]], delimiter=",")
    code, out, _ = run_cli(capsys, "geom", str(path), "--midpoint-samples", "8")
    assert code == 0
    reports = json.loads(out)
    assert all(r["passes"] for r in reports)


def test_geom_square_exit_one_with_centroid_gap(capsys, tmp_path):
    path = tmp_path / "sq.csv"
    np.savetxt(path, [[0, 0], [1, 0], [1, 1], [0, 1]], delimiter=",")
    code, out, _ = run_cli(capsys, "geom", str(path), "--midpoint-samples", "0")
    assert code == 1
    reports = json.loads(out)
    assert not any(r["passes"] for r in reports)
    # e_0(centre) - mean e_0(v_i) = 1/2 - 1/4
    assert reports[0]["affinity_defect"] == pytest.approx(0.25, abs=1e-6)
    code, out, _ = run_cli(capsys, "geom", str(path), "--midpoint-samples", "8", "--seed", "3")
    assert code == 1
    want = check_extreme_affinity(PolytopeStateSpace(np.loadtxt(path, delimiter=",")),
                                  midpoint_samples=8, seed=3)
    assert json.loads(out) == [r.to_json() for r in want]


def test_geom_pentagon_exit_one(capsys, tmp_path):
    path = tmp_path / "pent.csv"
    verts = [[np.cos(2 * np.pi * k / 5), np.sin(2 * np.pi * k / 5)] for k in range(5)]
    np.savetxt(path, verts, delimiter=",")
    assert run_cli(capsys, "geom", str(path), "--midpoint-samples", "8")[0] == 1


def test_geom_negative_samples_exit_two(capsys, tmp_path):
    path = tmp_path / "tri.csv"
    np.savetxt(path, [[0, 0], [1, 0], [0, 1]], delimiter=",")
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

    def recording(items):
        seen.append(list(items))
        return parse_tol(items)

    monkeypatch.setattr(cli, "_parse_tol", recording)
    for extra in (["--tol", "check_tol=1e-8"], []):
        code, _, _ = run_cli(capsys, "verify", "classical:2", "--suite", "spectral",
                             "--trials", "2", *extra)
        assert code == 0
    # the append action's default list is not shared between calls
    assert seen == [["check_tol=1e-8"], []]
