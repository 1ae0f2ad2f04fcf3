import numpy as np
import pytest

from jordantp import (
    ConeProjectionError,
    GeneratorSelfDualCone,
    SpectralSelfDualCone,
    TransitionProbabilityViolation,
    UnsupportedModelError,
    generator_cone_from_csv,
    get_model,
    is_atom_sd,
    moreau_decompose,
    order_norm,
    peel_positive,
    peel_spectral,
    random_element,
    recover_order_unit,
    self_duality_report,
    verify_induced_axioms,
    verify_unity_resolution,
)
from jordantp.selfdual import verify_certainty_order as sd_certainty_order


def _assert_all_pass(checks):
    failed = [c for c in checks if not c.passed]
    assert not failed, [f"{c.name}: defect={c.defect} tol={c.tolerance}" for c in failed]


@pytest.fixture(params=["classical:4", "spin:3", "sym:3", "herm:3", "lpq:3:2"])
def cone(request):
    kind, n, *rest = request.param.split(":")
    model = get_model(kind, int(n), float(rest[0]) if rest else None)
    return SpectralSelfDualCone(model)


def square_cone():
    # cone over a square: contained in its dual but not equal to it
    gens = 0.5 * np.array([
        [1.0, 1.0, np.sqrt(2.0)],
        [1.0, -1.0, np.sqrt(2.0)],
        [-1.0, 1.0, np.sqrt(2.0)],
        [-1.0, -1.0, np.sqrt(2.0)],
    ])
    return GeneratorSelfDualCone(gens)


SELF_DUALITY_CHECKS = {f"selfdual.{name}" for name in (
    "forward", "reverse", "membership_agreement", "negative_witness",
    "cone_pairings_nonnegative", "dual_vectors_in_cone")}


def rotated_orthant(n=4, seed=0):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return GeneratorSelfDualCone(q.T)


# ---------------------------------------------------------------------------
# Moreau decomposition
# ---------------------------------------------------------------------------


def test_moreau_classical_example():
    cone = SpectralSelfDualCone(get_model("classical", 2))
    pair = moreau_decompose(cone, cone.model.element([2.0, -3.0]))
    np.testing.assert_allclose(pair.a_plus.coords, [2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(pair.a_minus.coords, [0.0, 3.0], atol=1e-12)


def test_moreau_sym_example():
    m = get_model("sym", 2)
    cone = SpectralSelfDualCone(m)
    pair = moreau_decompose(cone, m.from_matrix(np.diag([1.0, -1.0])))
    np.testing.assert_allclose(m.to_matrix(pair.a_plus), np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(m.to_matrix(pair.a_minus), np.diag([0.0, 1.0]), atol=1e-12)


def test_moreau_spin_derived():
    # (0,(1,0)) has eigenvalues +1 and -1 with atoms (1, +-(1,0))/2
    m = get_model("spin", 2)
    cone = SpectralSelfDualCone(m)
    pair = moreau_decompose(cone, m.element([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(pair.a_plus.coords, [0.5, 0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(pair.a_minus.coords, [0.5, -0.5, 0.0], atol=1e-12)


def test_moreau_invariants(cone, tol):
    for seed in range(25):
        a = random_element(cone.model, seed)
        pair = moreau_decompose(cone, a, tol)
        assert cone.contains(pair.a_plus, tol)
        assert cone.contains(pair.a_minus, tol)
        assert abs(cone.inner(pair.a_plus, pair.a_minus)) <= tol.check_tol
        assert order_norm(cone.model, (pair.a_plus - pair.a_minus) - a) <= tol.check_tol
        # uniqueness surrogate: re-decomposing reproduces the pair
        again = moreau_decompose(cone, pair.a_plus - pair.a_minus, tol)
        assert order_norm(cone.model, again.a_plus - pair.a_plus) <= tol.check_tol
        assert order_norm(cone.model, again.a_minus - pair.a_minus) <= tol.check_tol


def test_moreau_generator_cone(tol):
    gcone = rotated_orthant()
    rng = np.random.default_rng(1)
    for _ in range(25):
        x = rng.normal(size=4)
        pair = moreau_decompose(gcone, x, tol)
        np.testing.assert_allclose(pair.a_plus - pair.a_minus, x, atol=1e-9)
        assert abs(gcone.inner(pair.a_plus, pair.a_minus)) <= 1e-9
        assert gcone.contains(pair.a_plus, tol)
        assert gcone.contains(pair.a_minus, tol)


def test_moreau_orthogonal_parts_lemma(cone, tol):
    # if <a1 + a2 | b> = 0 with everything positive, both parts pair to zero
    for seed in range(10):
        a = random_element(cone.model, seed)
        pair = moreau_decompose(cone, a, tol)
        if order_norm(cone.model, pair.a_minus) < 1e-3:
            continue
        parts = peel_positive(cone, pair.a_plus, tol=tol)
        for part in parts:
            assert abs(cone.inner(part.coefficient * part.atom, pair.a_minus)) <= tol.check_tol


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


def test_is_atom_examples():
    m = get_model("sym", 3)
    cone = SpectralSelfDualCone(m)
    rng = np.random.default_rng(2)
    frame = m.random_frame_params(rng)
    assert is_atom_sd(cone, m.atom(frame[0]))
    # orthogonal projections scaled to unit self-pairing are decomposable
    combo = m.element((m.atom_coords(frame[0]) + m.atom_coords(frame[1])) / np.sqrt(2.0))
    assert abs(cone.inner(combo, combo) - 1.0) <= 1e-12
    assert not is_atom_sd(cone, combo)


def test_is_atom_classical():
    cone = SpectralSelfDualCone(get_model("classical", 3))
    assert is_atom_sd(cone, cone.model.element([1.0, 0.0, 0.0]))
    assert not is_atom_sd(cone, cone.model.element([0.5, 0.5, 0.0]))


def test_is_atom_generator_cone():
    gcone = rotated_orthant()
    atom = gcone.extreme_generators()[0]
    assert is_atom_sd(gcone, atom)
    assert not is_atom_sd(gcone, 2.0 * atom)
    mix = (gcone.extreme_generators()[0] + gcone.extreme_generators()[1]) / np.sqrt(2.0)
    assert not is_atom_sd(gcone, mix)


def test_extreme_generator_detection():
    # the middle ray of three coplanar generators is not extreme
    gens = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cone2 = GeneratorSelfDualCone(gens)
    ext = cone2.extreme_generators()
    assert len(ext) == 2
    for row in ext:
        assert min(np.linalg.norm(row - np.array([1.0, 0.0])),
                   np.linalg.norm(row - np.array([0.0, 1.0]))) <= 1e-12


# ---------------------------------------------------------------------------
# peeling
# ---------------------------------------------------------------------------


def test_peel_atom_is_single(cone):
    rng = np.random.default_rng(3)
    e = cone.random_atom(rng)
    peeled = peel_positive(cone, e)
    assert len(peeled) == 1
    assert peeled[0].coefficient == pytest.approx(1.0, abs=1e-9)


def test_peel_classical_example():
    cone = SpectralSelfDualCone(get_model("classical", 3))
    peeled = peel_positive(cone, cone.model.element([2.0, 1.0, 0.0]))
    got = sorted((p.coefficient, tuple(np.round(p.atom.coords))) for p in peeled)
    assert got == [(1.0, (0.0, 1.0, 0.0)), (2.0, (1.0, 0.0, 0.0))]


def test_peel_matches_eigendecomposition(cone, tol):
    # coefficient multisets agree with the dense eigensolver route
    for seed in range(12):
        a = random_element(cone.model, seed)
        peeled = peel_spectral(cone, a, tol=tol)
        coeffs = np.sort([p.coefficient for p in peeled])
        eigs = np.sort(cone.model.eigenvalues(a, tol))
        width = max(len(coeffs), len(eigs))
        coeffs = np.sort(np.pad(coeffs, (0, width - len(coeffs))))
        eigs = np.sort(np.pad(eigs, (0, width - len(eigs))))
        np.testing.assert_allclose(coeffs, eigs, atol=1e-8)
        recon = sum(p.coefficient * cone.as_vec(p.atom) for p in peeled)
        np.testing.assert_allclose(recon, a.coords, atol=1e-8)
        for i in range(len(peeled)):
            for j in range(i + 1, len(peeled)):
                assert abs(cone.inner(peeled[i].atom, peeled[j].atom)) <= 1e-7


def test_peel_positive_coefficients(cone, tol):
    for seed in range(8):
        a = random_element(cone.model, seed, "positive")
        for part in peel_positive(cone, a, tol=tol):
            assert part.coefficient > 0
    for seed in range(8):
        b = random_element(cone.model, seed, "unit_interval")
        for part in peel_positive(cone, b, tol=tol):
            assert -tol.check_tol <= part.coefficient <= 1.0 + tol.check_tol


def test_peel_generator_cone():
    gcone = rotated_orthant(3, seed=5)
    ext = gcone.extreme_generators()
    vec = 2.0 * ext[0] + 0.5 * ext[1]
    peeled = peel_positive(gcone, vec)
    coeffs = sorted(p.coefficient for p in peeled)
    np.testing.assert_allclose(coeffs, [0.5, 2.0], atol=1e-9)


def test_peel_custom_oracle():
    # a hand-rolled oracle (argmax coordinate split) drives the same recursion
    cone = SpectralSelfDualCone(get_model("classical", 4))

    def oracle(x, tol):
        coords = cone.as_vec(x)
        support = np.flatnonzero(np.abs(coords) > 1e-12)
        if len(support) <= 1:
            return None
        head = np.zeros_like(coords)
        head[support[0]] = coords[support[0]]
        return cone.wrap(head), cone.wrap(coords - head)

    a = cone.model.element([3.0, 1.0, 0.0, 2.0])
    peeled = peel_positive(cone, a, atom_oracle=oracle)
    np.testing.assert_allclose(sorted(p.coefficient for p in peeled), [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# order-unit recovery and cone properties
# ---------------------------------------------------------------------------


def test_recover_order_unit_matches_backend(cone, tol):
    got = recover_order_unit(cone, 11, 5, tol)
    assert order_norm(cone.model, got - cone.model.order_unit()) <= 1e-9


def test_recover_order_unit_explicit_families():
    m = get_model("herm", 2)
    cone = SpectralSelfDualCone(m)
    fam1 = [m.atom(np.array([1.0, 0.0])), m.atom(np.array([0.0, 1.0]))]
    eta = np.array([1.0, 1.0]) / np.sqrt(2.0)
    zeta = np.array([1.0, -1.0]) / np.sqrt(2.0)
    fam2 = [m.atom(eta), m.atom(zeta)]
    got = recover_order_unit(cone, 0, [fam1, fam2])
    np.testing.assert_allclose(m.to_matrix(got), np.eye(2).astype(complex), atol=1e-12)


def test_recover_order_unit_rotated_frames_sym3():
    cone = SpectralSelfDualCone(get_model("sym", 3))
    got = recover_order_unit(cone, 21, 6)
    np.testing.assert_allclose(cone.model.to_matrix(got), np.eye(3), atol=1e-9)


def test_recover_order_unit_flags_disagreement():
    # families drawn from a cone that cannot resolve unity: scaled orthant rays
    gens = np.diag([1.0, 2.0, 4.0])  # rows not unit-normalized on purpose
    cone = GeneratorSelfDualCone(gens)
    fam1 = [gens[0] / 1.0, gens[1] / 2.0, gens[2] / 4.0]
    fam2 = [2.0 * fam1[0], fam1[1], fam1[2]]
    with pytest.raises(TransitionProbabilityViolation):
        recover_order_unit(cone, 0, [fam1, fam2])


def test_unity_resolution_and_certainty(cone, tol):
    _assert_all_pass(verify_unity_resolution(cone, 13, 40, tol))
    _assert_all_pass(sd_certainty_order(cone, 14, 40, tol))


def test_self_duality_report_spectral(cone, tol):
    _assert_all_pass(self_duality_report(cone, 15, 40, tol))


def test_induced_axioms_chain_spectral(cone, tol):
    checks = verify_induced_axioms(cone, 16, 30, tol)
    assert all(c.name.startswith("chain.") for c in checks)
    _assert_all_pass(checks)


def test_generator_cone_chain_rotated_orthant(tol):
    gcone = rotated_orthant()
    _assert_all_pass(verify_unity_resolution(gcone, 1, 30, tol))
    _assert_all_pass(sd_certainty_order(gcone, 2, 30, tol))
    report = self_duality_report(gcone, 3, 30, tol)
    assert {c.name for c in report} == SELF_DUALITY_CHECKS
    _assert_all_pass(report)
    _assert_all_pass(verify_induced_axioms(gcone, 4, 30, tol))


def test_square_cone_not_self_dual(tol):
    checks = self_duality_report(square_cone(), 5, 60, tol)
    by_name = {c.name: c for c in checks}
    assert set(by_name) == SELF_DUALITY_CHECKS
    assert by_name["selfdual.forward"].passed                    # K inside K*
    assert by_name["selfdual.cone_pairings_nonnegative"].passed  # K inside K*
    assert not by_name["selfdual.dual_vectors_in_cone"].passed   # K* not inside K


def test_generator_cone_csv_round_trip(tmp_path):
    path = tmp_path / "orthant.csv"
    np.savetxt(path, np.eye(3), delimiter=",")
    cone = generator_cone_from_csv(path)
    assert cone.ambient_dim == 3
    assert cone.contains(np.array([1.0, 2.0, 0.0]))
    assert not cone.contains(np.array([-1.0, 0.0, 0.0]))
    pair = moreau_decompose(cone, np.array([2.0, -3.0, 1.0]))
    np.testing.assert_allclose(pair.a_plus, [2.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(pair.a_minus, [0.0, 3.0, 0.0], atol=1e-12)


def test_spectral_cone_requires_symmetry():
    with pytest.raises(UnsupportedModelError):
        SpectralSelfDualCone(get_model("lpq", 2, 3.0))


def test_projection_failure_is_diagnosed():
    cone = square_cone()
    # the split oracle demands a cone element and reports the residual
    outside = np.array([1.0, 0.0, -5.0])
    with pytest.raises(ConeProjectionError):
        cone.split_orthogonal(outside)


def test_oblique_cone_fails_unity_resolution(tol):
    # a simplicial cone with non-orthogonal extreme rays has only singleton
    # orthogonal atom families, which cannot share one sum or resolve unity
    gens = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.6, 0.8]])
    cone = GeneratorSelfDualCone(gens)
    checks = verify_unity_resolution(cone, 3, 30, tol)
    assert not all(c.passed for c in checks)


def test_failed_unit_recovery_is_explained(monkeypatch, tol):
    from jordantp import suites

    model = get_model("classical", 3)
    check = "unit.recovered_from_families"
    by_name = {c.name: c for c in suites.selfdual_suite(model, 0, 4, tol)}
    assert by_name[check].passed and by_name[check].note is None

    def fails(cone, seed, families, tol):
        raise TransitionProbabilityViolation("families disagree")

    monkeypatch.setattr(suites, "recover_order_unit", fails)
    by_name = {c.name: c for c in suites.selfdual_suite(model, 0, 4, tol)}
    assert by_name[check].defect == float("inf")
    assert by_name[check].note == "TransitionProbabilityViolation: families disagree"
