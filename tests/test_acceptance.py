"""Acceptance criteria for the library, one test per criterion.

Each test prints a single pass/fail line with the measured defects, then
asserts at the stated tolerance.  Derived regression baselines (the l^p
asymmetry and nonlinearity magnitudes, the pentagon defect) are frozen in
the companion unit tests.
"""

import itertools
import json
import re
import time

import numpy as np
import pytest
import scipy.linalg

from jordantp import (
    SpectralSelfDualCone,
    Tolerance,
    check_inner_product,
    cone_contains,
    get_model,
    information_capacity_empirical,
    join,
    linearity_defect,
    meet,
    moreau_decompose,
    order_norm,
    orthocomplement,
    recover_order_unit,
    self_duality_report,
    symmetry_defect,
    transition_prob,
    verify_certainty_order,
    verify_unity_resolution,
    PolytopeStateSpace,
    check_extreme_affinity,
)
from jordantp.convexgeom import _e_omega_lp
from jordantp.cli import main as cli_main
from jordantp.spectral import trial_rng
from conftest import SHAPES, draw_element, random_projection

TOL = Tolerance()

RECONSTRUCTION_MODELS = [
    ("classical", 8, None),
    ("spin", 8, None),
    ("sym", 6, None),
    ("herm", 4, None),
    ("lpq", 4, 1.5),
    ("lpq", 4, 2.0),
    ("lpq", 4, 3.0),
]

SYMMETRIC_BACKENDS = [
    ("classical", 4, None),
    ("spin", 3, None),
    ("sym", 4, None),
    ("herm", 3, None),
    ("lpq", 2, 2.0),
]


def _report(num, name, passed, detail):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def _models(specs):
    return [get_model(k, n, p) for k, n, p in specs]


def test_criterion_01_02_spectral_reconstruction_and_cone_consistency():
    worst_recon = 0.0
    worst_frame = 0.0
    oversize = 0
    mismatches = 0
    norm_defect = 0.0
    start = time.monotonic()
    for model in _models(RECONSTRUCTION_MODELS):
        unit = model.order_unit_coords()
        for k in range(1000):
            rng = trial_rng(k, 0)
            a = draw_element(model, rng).coords
            eigs, atoms = model.decompose_coords(a, TOL)
            recon = sum(s * atom for s, atom in zip(eigs, atoms))
            resid = np.abs(model.decompose_coords(recon - a, TOL)[0])
            worst_recon = max(worst_recon, float(resid.max()))
            frame = sum(atoms) - unit
            frame_norm = np.abs(model.decompose_coords(frame, TOL)[0])
            worst_frame = max(worst_frame, float(frame_norm.max()))
            if len(eigs) > model.info_capacity:
                oversize += 1
            # criterion 2: cone membership and norm agree with the spectrum
            member = bool(eigs.min() >= -TOL.cone_slack)
            if member != cone_contains(model, model.element(a), TOL):
                mismatches += 1
            norm_defect = max(norm_defect, abs(
                order_norm(model, model.element(a), TOL) - float(np.max(np.abs(eigs)))))
    elapsed = time.monotonic() - start
    _report(1, "spectral reconstruction",
            worst_recon <= 1e-9 and worst_frame <= 1e-9 and oversize == 0 and elapsed < 10.0,
            f"recon={worst_recon:.3e} frame={worst_frame:.3e} oversize={oversize} "
            f"time={elapsed:.1f}s over {len(RECONSTRUCTION_MODELS)}x1000 samples")
    _report(2, "norm/cone consistency",
            mismatches == 0 and norm_defect == 0.0,
            f"mismatches={mismatches} norm_defect={norm_defect:.3e}")


def test_criterion_03_tp_symmetry_dichotomy():
    worst_symmetric = 0.0
    for model in _models(SYMMETRIC_BACKENDS):
        worst_symmetric = max(worst_symmetric, symmetry_defect(model, 7, 200))
    asym = symmetry_defect(get_model("lpq", 2, 3.0), 7, 200)
    _report(3, "transition probability symmetry dichotomy",
            worst_symmetric <= 1e-9 and asym > 0.01,
            f"symmetric backends defect={worst_symmetric:.3e}, lpq(2,3) defect={asym:.6f}")


def test_criterion_04_qubit_tp_formula():
    model = get_model("herm", 2)
    worst = 0.0
    for k in range(500):
        rng = trial_rng(4, k)
        eta1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        eta2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        eta1 /= np.linalg.norm(eta1)
        eta2 /= np.linalg.norm(eta2)
        got = transition_prob(model, model.atom(eta1), model.atom(eta2))
        worst = max(worst, abs(got - abs(np.vdot(eta1, eta2)) ** 2))
    _report(4, "qubit transition probability formula", worst <= 1e-10,
            f"max |P - |<eta1|eta2>|^2| = {worst:.3e} over 500 pairs")


def _range_intersection(model, p, q):
    n = model.n
    stacked = np.vstack([np.eye(n) - model.to_matrix(p), np.eye(n) - model.to_matrix(q)])
    basis = scipy.linalg.null_space(stacked, rcond=1e-10)
    return basis @ basis.conj().T


def test_criterion_05_lattice_laws():
    worst_bound = 0.0
    worst_demorgan = 0.0
    worst_orthomodular = 0.0
    worst_difference = 0.0
    worst_oracle = 0.0
    for kind, n in (("sym", 4), ("herm", 3)):
        model = get_model(kind, n)
        unit = model.order_unit()
        for k in range(500):
            rng = trial_rng(5, k)
            p = random_projection(model, int(rng.integers(1, n)), rng)
            q = random_projection(model, int(rng.integers(1, n)), rng)
            lo = meet(model, p, q).value
            hi = join(model, p, q).value
            for mid in (p, q):
                worst_bound = max(worst_bound, -float(model.eigenvalues(mid - lo).min()))
                worst_bound = max(worst_bound, -float(model.eigenvalues(hi - mid).min()))
            # De Morgan duality between the two lattice operations
            dual = unit - meet(model, unit - p, unit - q).value
            worst_demorgan = max(worst_demorgan, order_norm(model, dual - hi))
            worst_oracle = max(worst_oracle, float(np.max(np.abs(
                model.to_matrix(lo) - _range_intersection(model, p, q)))))
            # comparable pair from a shared frame for the orthomodular law
            frame = [model.atom(prm) for prm in model.random_frame_params(rng)]
            keep = rng.integers(0, 2, size=n).astype(bool)
            keep[int(rng.integers(n))] = True
            sub = keep & rng.integers(0, 2, size=n).astype(bool)
            qq = model.zero()
            pp = model.zero()
            for flag_q, flag_p, atom in zip(keep, sub, frame):
                if flag_q:
                    qq = qq + atom
                if flag_p:
                    pp = pp + atom
            rec = join(model, pp, meet(model, qq, orthocomplement(model, pp).value))
            worst_orthomodular = max(worst_orthomodular, order_norm(model, rec.value - qq))
            diff = meet(model, qq, orthocomplement(model, pp).value)
            worst_difference = max(worst_difference,
                                   order_norm(model, (qq - pp) - diff.value))
    worst = max(worst_bound, worst_demorgan, worst_orthomodular, worst_difference)
    _report(5, "lattice laws",
            worst <= 1e-8 and worst_oracle <= 1e-8,
            f"bounds={worst_bound:.2e} demorgan={worst_demorgan:.2e} "
            f"orthomodular={worst_orthomodular:.2e} difference={worst_difference:.2e} "
            f"oracle={worst_oracle:.2e} over 500 pairs x {{sym:4, herm:3}}")


def test_criterion_06_inner_product_and_self_duality():
    worst = 0.0
    detail = []
    for model in _models(SYMMETRIC_BACKENDS):
        checks = (check_inner_product(model, 6, 500, TOL)
                  + self_duality_report(SpectralSelfDualCone(model), 6, 150, TOL))
        for c in checks:
            assert c.passed, f"{model.kind}: {c.name} defect={c.defect}"
            if c.name.startswith(("ip.", "norms.")):
                worst = max(worst, c.defect)
        detail.append(model.kind)
    _report(6, "inner product and self-duality", worst <= 1e-9,
            f"max ip/norm defect={worst:.3e} on {'/'.join(detail)}")


def test_criterion_07_selfdual_cone_suite():
    worst = 0.0
    for kind, n, p in [("classical", 4, None), ("spin", 3, None),
                       ("sym", 3, None), ("herm", 3, None), ("lpq", 3, 2.0)]:
        model = get_model(kind, n, p)
        cone = SpectralSelfDualCone(model)
        for k in range(120):
            rng = trial_rng(7, k)
            a = cone.random_element(rng)
            pair = moreau_decompose(cone, a, TOL)
            worst = max(worst, order_norm(model, (pair.a_plus - pair.a_minus) - a))
            worst = max(worst, abs(cone.inner(pair.a_plus, pair.a_minus)))
            assert cone.contains(pair.a_plus, TOL) and cone.contains(pair.a_minus, TOL)
        unit = recover_order_unit(cone, 7)
        worst = max(worst, order_norm(model, unit - model.order_unit()))
        for c in (verify_unity_resolution(cone, 7, 60, TOL)
                  + verify_certainty_order(cone, 7, 60, TOL)
                  + self_duality_report(cone, 7, 40, TOL)):
            assert c.passed, f"{kind}: {c.name} defect={c.defect}"
    _report(7, "self-dual cone suite", worst <= 1e-9,
            f"max moreau/unit defect={worst:.3e} across the five backends")


def test_criterion_08_polytope_geometry():
    passing_defect = 0.0
    for name in ("triangle", "tetrahedron", "4-simplex"):
        reports = check_extreme_affinity(PolytopeStateSpace(SHAPES[name][0]), TOL,
                                         midpoint_samples=32)
        assert all(r.passes for r in reports)
        passing_defect = max(passing_defect, max(r.affinity_defect for r in reports))

    square = PolytopeStateSpace(SHAPES["square"][0])
    square_reports = check_extreme_affinity(square, TOL, midpoint_samples=32)
    assert not any(r.passes for r in square_reports)
    # the centre halves the diagonal whose ends e_w sends to 0
    square_defect = 0.0
    for w in range(4):
        at_ends = _e_omega_lp(square, w, square.vertices[[(w + 1) % 4, (w + 3) % 4]])
        at_centre = _e_omega_lp(square, w, square.vertices.mean(axis=0)[None])[0]
        square_defect = max(square_defect, at_centre - at_ends.mean())

    pentagon = PolytopeStateSpace(
        [[np.cos(2 * np.pi * k / 5 + np.pi / 2), np.sin(2 * np.pi * k / 5 + np.pi / 2)]
         for k in range(5)])
    pentagon_reports = check_extreme_affinity(pentagon, TOL, midpoint_samples=32)
    pentagon_defect = max(r.affinity_defect for r in pentagon_reports)
    assert not any(r.passes for r in pentagon_reports)

    disk = get_model("lpq", 2, 2.0)
    rng = np.random.default_rng(8)
    endpoints_exact = all(
        disk.transition_from_params(-w, w) == 0.0 and disk.transition_from_params(w, w) == 1.0
        for w in (disk.random_atom_param(rng) for _ in range(20)))

    _report(8, "polytope geometry",
            passing_defect <= 1e-9 and abs(square_defect - 0.5) <= 1e-6
            and pentagon_defect > 1e-6 and endpoints_exact,
            f"simplex defect={passing_defect:.2e} square={square_defect:.9f} "
            f"pentagon={pentagon_defect:.6f} disk endpoints exact={endpoints_exact}")


def test_criterion_09_information_capacity():
    cases = [
        (get_model("classical", 5), 5),
        (get_model("spin", 2), 2),
        (get_model("spin", 5), 2),
        (get_model("spin", 8), 2),
        (get_model("sym", 4), 4),
        (get_model("herm", 3), 3),
        (get_model("lpq", 2, 3.0), 2),
        (get_model("lpq", 4, 1.5), 2),
    ]
    results = [(m.kind, information_capacity_empirical(m, 9, 6), want) for m, want in cases]
    ok = all(got == want for _, got, want in results)
    _report(9, "information capacity", ok,
            " ".join(f"{kind}={got}/{want}" for kind, got, want in results))


def test_criterion_10_jordan_product_diagnostic():
    jordan = {
        "classical": linearity_defect(get_model("classical", 4), 10, 100),
        "spin": linearity_defect(get_model("spin", 3), 10, 100),
        "sym": linearity_defect(get_model("sym", 3), 10, 100),
        "herm": linearity_defect(get_model("herm", 3), 10, 100),
    }
    lpq4 = linearity_defect(get_model("lpq", 2, 4.0), 42, 100)
    _report(10, "polarized product linearity diagnostic",
            max(jordan.values()) <= 1e-8 and lpq4 > 1e-3,
            f"jordan max={max(jordan.values()):.2e} lpq(2,4)={lpq4:.4f}")


def test_criterion_11_cli_determinism_and_exit_codes(tmp_path, capsys):
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    code1 = cli_main(["verify", "herm:3", "--suite", "all", "--seed", "42",
                      "--out", str(out1)])
    code2 = cli_main(["verify", "herm:3", "--suite", "all", "--seed", "42",
                      "--out", str(out2)])
    strip = lambda text: re.sub(r'"wall_time_ms": \d+', "", text)
    identical = strip(out1.read_text()) == strip(out2.read_text())

    fail_code = cli_main(["verify", "lpq:2:3", "--suite", "tp", "--seed", "7",
                          "--out", str(tmp_path / "fail.json")])
    fail_report = json.loads((tmp_path / "fail.json").read_text())
    symmetry_failed = any(c["name"] == "tp.symmetry" and not c["passed"]
                          for c in fail_report["checks"])
    usage_code = cli_main(["verify", "not-a-model"])
    capsys.readouterr()

    _report(11, "CLI determinism and exit codes",
            identical and code1 == 0 and code2 == 0 and fail_code == 1
            and symmetry_failed and usage_code == 2,
            f"identical={identical} pass_exit={code1} fail_exit={fail_code} "
            f"usage_exit={usage_code}")
