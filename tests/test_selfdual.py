import warnings

import numpy as np
import pytest

from conftest import assert_all_pass
from jordantp import (
    ConeProjectionError,
    DimensionMismatchError,
    Element,
    GeneratorSelfDualCone,
    SpectralSelfDualCone,
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
    symmetry_defect,
    verify_atom_state_uniqueness,
    verify_certainty_order,
    verify_unity_resolution,
)


@pytest.fixture(params=["classical:4", "spin:3", "sym:3", "herm:3", "lpq:3:2"])
def cone(request):
    kind, n, *rest = request.param.split(":")
    model = get_model(kind, int(n), float(rest[0]) if rest else None)
    return SpectralSelfDualCone(model)


def square_cone(scale=1.0):
    # cone over a square: contained in its dual but not equal to it
    gens = 0.5 * scale * np.array([
        [1.0, 1.0, np.sqrt(2.0)],
        [1.0, -1.0, np.sqrt(2.0)],
        [-1.0, 1.0, np.sqrt(2.0)],
        [-1.0, -1.0, np.sqrt(2.0)],
    ])
    return GeneratorSelfDualCone(gens)


SELF_DUALITY_CHECKS = {f"selfdual.{name}" for name in (
    "forward", "reverse", "membership_agreement", "negative_witness",
    "cone_pairings_nonnegative", "dual_vectors_in_cone")}


def rotated_orthant(n=4, seed=0, scale=1.0):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return GeneratorSelfDualCone(scale * q.T)


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
    e = cone.random_atom_param(rng)
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


def test_peel_spectral_generator_cone_elements():
    # on a cone element the Moreau minus part plus - x is rounding noise; it
    # must be skipped, not peeled into atoms relative to its own norm
    gcone = rotated_orthant()
    gens = gcone.extreme_generators()
    rng = np.random.default_rng(3)
    for k in range(200):
        x = rng.uniform(0.0, 2.0, size=4) @ gens if k % 2 else rng.normal(size=4)
        peeled = peel_spectral(gcone, x)
        recon = sum((p.coefficient * p.atom for p in peeled), np.zeros(4))
        np.testing.assert_allclose(recon, x, rtol=0, atol=1e-9)
        for p in peeled:
            assert gcone.inner(p.atom, x) == pytest.approx(p.coefficient, abs=1e-9)


def test_generator_frames_skip_a_part_that_is_rounding_noise(tol):
    # on a rotated orthant the projection of -g, for an extreme generator g,
    # is about 2e-16 rather than 0; the frame skips it as peel_spectral
    # does, so each of the 800 rows +-g is one atom, as on the plain orthant
    counts = []
    for seed in range(200):
        cone = rotated_orthant(2, seed)
        ext = cone.extreme_generators()
        values, _ = cone.frames(np.concatenate((ext, -ext)), tol)
        counts += np.count_nonzero(values, axis=1).tolist()
    assert counts == [1] * 800


def _kernel_forbidden(*args, **kwargs):
    raise AssertionError("an independent oracle reached the spectral kernel")


def test_oracles_do_not_use_the_spectral_kernel(any_model, monkeypatch, tol):
    # peeling and membership check the kernel, so they must run without it
    positives = [random_element(any_model, seed, "positive") for seed in range(6)]
    positives.append(any_model.atom(any_model.random_atom_param(np.random.default_rng(1))))
    monkeypatch.setattr(np.linalg, "eigh", _kernel_forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", _kernel_forbidden)
    # the public entry points and the two stack kernels behind all four
    for name in ("decompose_coords", "eigenvalues_coords", "_frames", "_eigenvalues"):
        monkeypatch.setitem(vars(any_model), name, _kernel_forbidden)
    for a in positives:
        assert any_model.cone_oracle(a.coords, tol.cone_slack)
        heads, rests, single = any_model.split_orthogonal_batch(a.coords[np.newaxis], tol)
        if not single[0]:
            np.testing.assert_allclose(heads[0] + rests[0], a.coords, rtol=0, atol=1e-9)


@pytest.mark.parametrize("kind, n", [("sym", 4), ("herm", 3), ("sym", 6), ("herm", 5)])
def test_peel_coefficients_match_eigvalsh_to_rounding(kind, n):
    # degenerate spectra, 1e-9 gaps and scales from 1e-6 to 1e6
    model = get_model(kind, n)
    cone = SpectralSelfDualCone(model)
    rng = np.random.default_rng(n)
    for k in range(30):
        spectrum = rng.uniform(0.05, 1.0, size=n)
        if k % 3 == 0:
            spectrum[: n // 2 + 1] = spectrum[0]
        elif k % 3 == 1:
            spectrum = spectrum[0] + 1e-9 * np.arange(n)
        spectrum *= 10.0 ** rng.uniform(-6.0, 6.0)
        gauss = rng.normal(size=(n, n))
        if kind == "herm":
            gauss = gauss + 1j * rng.normal(size=(n, n))
        frame, _ = np.linalg.qr(gauss)
        a = model.from_matrix((frame * spectrum) @ frame.conj().T)
        eigs = np.sort(np.linalg.eigvalsh(model.to_matrix(a)))
        coeffs = np.sort([p.coefficient for p in peel_positive(cone, a)])
        coeffs = np.sort(np.pad(coeffs, (len(eigs) - len(coeffs), 0)))
        assert np.max(np.abs(coeffs - eigs)) <= 1e-12 * eigs[-1], (k, coeffs, eigs)


# ---------------------------------------------------------------------------
# order-unit recovery and cone properties
# ---------------------------------------------------------------------------


def test_recover_order_unit_matches_backend(cone, tol):
    got = recover_order_unit(cone, 11)
    assert order_norm(cone.model, got - cone.model.order_unit()) <= 1e-9


def test_recover_order_unit_rotated_frames_sym3():
    cone = SpectralSelfDualCone(get_model("sym", 3))
    got = recover_order_unit(cone, 21)
    np.testing.assert_allclose(cone.model.to_matrix(got), np.eye(3), atol=1e-9)


def test_unity_resolution_and_certainty(cone, tol):
    assert_all_pass(verify_unity_resolution(cone, 13, 40, tol))
    assert_all_pass(verify_certainty_order(cone, 14, 40, tol))


def test_self_duality_report_spectral(cone, tol):
    assert_all_pass(self_duality_report(cone, 15, 40, tol))


def test_induced_axioms_chain_spectral(cone, tol):
    # through its pairing the cone has unique atom states and a symmetric
    # transition probability
    assert_all_pass(verify_atom_state_uniqueness(cone, 16, 30, tol))
    assert symmetry_defect(cone, 16, 30) <= tol.check_tol


def test_generator_cone_chain_rotated_orthant(tol):
    gcone = rotated_orthant()
    assert_all_pass(verify_unity_resolution(gcone, 1, 30, tol))
    assert_all_pass(verify_certainty_order(gcone, 2, 30, tol))
    report = self_duality_report(gcone, 3, 30, tol)
    assert {c.name for c in report} == SELF_DUALITY_CHECKS
    assert_all_pass(report)
    assert_all_pass(verify_atom_state_uniqueness(gcone, 4, 30, tol))
    assert symmetry_defect(gcone, 4, 30) <= tol.check_tol


# report every measure of unity resolution
ALL_UNITY_MEASURES = {key: f"unity.{key}" for key in ("rows", "columns", "shared_sum")}


@pytest.mark.parametrize("seed", [0, 1])
def test_shared_verifiers_pass_on_model_and_its_cone(symmetric_model, seed, tol):
    # one verifier per axiom: the model and its spectral cone both satisfy it
    for space in (symmetric_model, SpectralSelfDualCone(symmetric_model)):
        assert_all_pass(verify_atom_state_uniqueness(space, seed, 30, tol))
        assert_all_pass(verify_unity_resolution(space, seed, 30, tol, ALL_UNITY_MEASURES))
        assert_all_pass(verify_certainty_order(space, seed, 30, tol))
        assert symmetry_defect(space, seed, 30) <= tol.check_tol


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e4, 1e8, 1e12])
def test_generator_cone_verdicts_are_scale_invariant(scale, tol):
    # scaling the generators leaves the cone, hence every verdict, unchanged
    def verdicts(cone, seed):
        return {c.name: c.passed for c in self_duality_report(cone, seed, 30, tol)}

    for seed in range(3):
        assert all(verdicts(rotated_orthant(scale=scale), seed).values())
        assert verdicts(square_cone(scale), seed) == verdicts(square_cone(), seed)


@pytest.mark.parametrize("scale", [1e-6, 0.5, 2.0, 1e6])
def test_generator_cone_cutoffs_do_not_depend_on_the_scale_of_e(scale):
    # a positive multiple of an extreme generator lies on its ray, and the
    # generators orthogonal to it complete it to a frame, at any scale
    orthant = GeneratorSelfDualCone(np.eye(3))
    assert orthant.on_extreme_ray(scale * np.eye(3)[0])
    assert not orthant.on_extreme_ray(scale * np.array([1.0, 1.0, 0.0]))
    assert not orthant.on_extreme_ray(np.zeros(3))
    rotated = rotated_orthant()
    e = rotated.extreme_generators()[0]
    assert len(rotated.complement_coords(scale * e)) == 3


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


def test_a_cone_without_extreme_generators_is_refused(tmp_path):
    # six random generators in the plane span all of it: no extreme ray
    gens = np.random.default_rng(0).normal(size=(6, 2))
    with pytest.raises(ValueError, match="no generator spans an extreme ray"):
        GeneratorSelfDualCone(gens)
    path = tmp_path / "plane.csv"
    np.savetxt(path, gens, delimiter=",")
    with pytest.raises(ValueError, match="no generator spans an extreme ray"):
        generator_cone_from_csv(path)


def test_an_empty_generator_csv_raises_without_a_warning(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="generator matrix must have one generator per row"):
            generator_cone_from_csv(path)


@pytest.mark.parametrize("gens", [[[np.nan, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, np.nan]],
                                  [[1.0, 0.0], [0.0, 1.0], [np.inf, 1.0]]])
def test_non_finite_generators_are_refused(gens, tmp_path):
    # a NaN chord fails every merge test, so a NaN row would replace a valid
    # generator or be dropped as a duplicate
    with pytest.raises(ValueError, match="^generators must be finite$"):
        GeneratorSelfDualCone(np.array(gens))
    path = tmp_path / "gens.csv"
    np.savetxt(path, gens, delimiter=",")
    with pytest.raises(ValueError, match="^generators must be finite$"):
        generator_cone_from_csv(path)


def test_a_failed_moreau_projection_raises(monkeypatch, tol):
    # zero coefficients project every row to 0, whose minus part -x pairs
    # negatively with the generators of a positive x
    cone = GeneratorSelfDualCone(np.eye(3))
    monkeypatch.setattr(cone, "nnls_fit",
                        lambda target: (np.zeros(3), float(np.linalg.norm(target))))
    with pytest.raises(ConeProjectionError, match="projection failed Moreau conditions"):
        cone.moreau_parts(np.array([[1.0, 2.0, 3.0]]), tol)


def test_a_non_orthogonal_family_fails_the_negative_witness_with_its_witness(tol):
    # the cone spanned by e1 and (cos 30°, sin 30°), whose two generators are
    # served as every trial's "maximal orthogonal" family: one negative
    # coefficient no longer pairs negatively with its own atom
    angle = np.pi / 6
    cone = GeneratorSelfDualCone(np.array([[1.0, 0.0], [np.cos(angle), np.sin(angle)]]))
    cone.random_frame_params_batch = lambda rngs: np.repeat(
        cone.generators[np.newaxis], len(rngs), axis=0)
    check = {c.name: c for c in self_duality_report(cone, 0, 8, tol)}["selfdual.negative_witness"]
    assert not check.passed and check.defect > 0.0
    assert len(check.witness) == 2
    written = check.to_json()
    assert written["witness"] == [float(x) for x in check.witness]
    assert written["defect"] == check.defect


def test_spectral_cone_requires_symmetry():
    with pytest.raises(UnsupportedModelError):
        SpectralSelfDualCone(get_model("lpq", 2, 3.0))


def test_projection_failure_is_diagnosed():
    cone = square_cone()
    # the split oracle demands a cone element and reports the residual
    outside = np.array([1.0, 0.0, -5.0])
    with pytest.raises(ConeProjectionError):
        cone.split_orthogonal(outside)
    herm = SpectralSelfDualCone(get_model("herm", 2))
    with pytest.raises(ConeProjectionError):
        herm.split_orthogonal(-herm.model.order_unit())


@pytest.mark.parametrize("d", [3, 4, 5])
def test_generator_cone_defect_is_the_residual_of_its_coefficients(d):
    # -g for an extreme ray g of an orthant lies at distance 1 from the cone;
    # scipy's nnls can report a smaller residual than its coefficients leave,
    # which the cone defect (in hundredths of a unit row) must not read
    cones = [rotated_orthant(d, seed) for seed in range(60)]
    defects = np.concatenate([cone.cone_defects(-cone.extreme_generators()) for cone in cones])
    assert len(defects) == 60 * d
    assert (100 * defects).min() >= 1 - 1e-12


def near_duplicate_orthant(seed, noise=1e-9):
    """A rotated orthant in dimension 2-5 whose first d - 1 generators are
    repeated with ``noise``: at 1e-9 the same cone, with near-parallel
    generators."""
    rng = np.random.default_rng(seed)
    d = 2 + seed % 4
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return GeneratorSelfDualCone(np.vstack((q.T, q.T[:d - 1] + noise * rng.normal(size=(d - 1, d)))))


def test_near_duplicate_generators_peel_without_raising(tol):
    # construction keeps the first of each near-parallel pair, so the cone is
    # the orthant on its d extreme rays and NNLS has no coefficient to spread
    # over two copies of a ray
    for seed in range(50):
        cone = near_duplicate_orthant(seed)
        assert len(cone.generators) == len(cone.extreme_generators()) == cone.ambient_dim
        assert cone.info_capacity == cone.ambient_dim
        report = self_duality_report(cone, seed, 30, tol)
        assert {c.name for c in report} == SELF_DUALITY_CHECKS
        assert [c.name for c in report if not c.passed] == []
        with pytest.raises(ConeProjectionError):
            cone.split_orthogonal(-cone.generators[0], tol)


def test_generators_a_small_angle_apart_are_kept_in_any_row_order(tol):
    # e1 rotated by 3e-5 is 3e-5 from e1 in chord but only 4.5e-10 from it in
    # 1 - cosine; it changes the cone, so no row order may merge it away
    theta = 3e-5
    e1, e2, u = np.eye(2)[0], np.eye(2)[1], np.array([np.cos(theta), -np.sin(theta)])
    reports = []
    for rows in ([e1, e2, u], [u, e2, e1]):
        cone = GeneratorSelfDualCone(np.array(rows))
        assert len(cone.generators) == 3
        ext = cone.extreme_generators()
        # e1 = u / cos + tan e2 is not extreme; the cone is {u, e2}, whose rays
        # pair negatively, so it does not lie in its dual
        np.testing.assert_allclose(sorted(map(tuple, ext)), sorted([tuple(u), tuple(e2)]), atol=1e-15)
        assert np.min(ext @ ext.T) == pytest.approx(-np.sin(theta), abs=1e-15)
        assert cone.info_capacity == 1
        # e1 is interior to the cone, 3e-5 from the ray of u: not an atom
        assert not is_atom_sd(cone, e1, tol)
        assert is_atom_sd(cone, u, tol) and is_atom_sd(cone, e2, tol)
        reports.append([(c.name, c.passed) for c in self_duality_report(cone, 0, 30, tol)])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("theta", [1e-3, 1e-2])
def test_extreme_rays_pairing_negatively_fail_the_forward_inclusion(theta, tol):
    # the cone of u = e1 rotated by -theta and e2 is not in its dual, as
    # <u|e2> = -sin(theta) says; sampled positive pairs rarely see it, the
    # pairings of the extreme rays always do
    u = np.array([np.cos(theta), -np.sin(theta)])
    cone = GeneratorSelfDualCone(np.array([u, np.eye(2)[1]]))
    for seed in range(20):
        forward = {c.name: c for c in self_duality_report(cone, seed, 30, tol)}["selfdual.forward"]
        assert not forward.passed
        assert forward.defect >= np.sin(theta) * (1.0 - 1e-12)


def test_a_spectral_cone_lists_no_extreme_generators():
    # its atoms come from the model and in general form a continuum, so it
    # lists none and its forward check stays sampled
    for kind, n in (("sym", 3), ("classical", 4)):
        cone = SpectralSelfDualCone(get_model(kind, n))
        assert cone.extreme_generators().shape == (0, cone.ambient_dim)


def test_near_parallel_generators_the_merge_keeps_peel_without_raising(tol):
    # generators 1e-6 apart are kept; peeling then leaves remainders of about
    # 1e-9 whose NNLS residuals are rounding noise on the scale of the element
    # being peeled, and the split's cutoff is relative to that scale
    for seed in range(50):
        cone = near_duplicate_orthant(seed, noise=1e-6)
        assert len(cone.generators) == 2 * cone.ambient_dim - 1
        report = self_duality_report(cone, seed, 30, tol)
        assert {c.name for c in report} == SELF_DUALITY_CHECKS


def test_split_cutoff_is_relative_to_the_peeled_element(tol):
    # a remainder of norm 1e-9 just outside the orthant, NNLS residual 1e-15:
    # noise for an element of norm 1, but not for one of norm 1e-9
    cone = GeneratorSelfDualCone(np.eye(2))
    rest = np.array([[1e-9, -1e-15]])
    heads, rests, single = cone.split_orthogonal_batch(rest, tol, np.array([1.0]))
    assert single.tolist() == [True]
    with pytest.raises(ConeProjectionError):
        cone.split_orthogonal_batch(rest, tol, np.linalg.norm(rest, axis=1))


def test_oblique_cone_fails_unity_resolution(tol):
    # a simplicial cone with non-orthogonal extreme rays has only singleton
    # orthogonal atom families, which cannot share one sum or resolve unity
    gens = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.6, 0.8]])
    cone = GeneratorSelfDualCone(gens)
    checks = verify_unity_resolution(cone, 3, 30, tol)
    assert not all(c.passed for c in checks)


def test_spectral_split_returns_coordinate_arrays(tol):
    cone = SpectralSelfDualCone(get_model("herm", 2))
    a = random_element(cone.model, 4, "positive")
    head, rest = cone.split_orthogonal(a.coords, tol)
    assert type(head) is np.ndarray and type(rest) is np.ndarray
    np.testing.assert_allclose(head + rest, a.coords, atol=1e-12)
    with pytest.raises(ConeProjectionError):
        cone.split_orthogonal(-cone.model.order_unit().coords, tol)


def test_spectral_one_row_cases_take_an_element_or_checked_coordinates(cone, tol):
    # an element and its coordinates give the same bits; a raw array is
    # checked as the element constructor checks it, whatever the method
    a = random_element(cone.model, 5)
    by_element, by_coords = cone.frame(a, tol), cone.frame(a.coords, tol)
    assert [p.coefficient for p in by_element] == [p.coefficient for p in by_coords]
    for p, q in zip(by_element, by_coords):
        assert type(p.atom) is type(q.atom) is Element
        assert p.atom.coords.tobytes() == q.atom.coords.tobytes()
    pair, again = cone.moreau(a, tol), cone.moreau(a.coords, tol)
    assert pair.a_plus.coords.tobytes() == again.a_plus.coords.tobytes()
    assert pair.a_minus.coords.tobytes() == again.a_minus.coords.tobytes()
    assert cone.cone_defect(a, tol) == cone.cone_defect(a.coords, tol)
    assert cone.inner(a, a) == cone.inner(a.coords, a.coords)
    one_rows = [cone.frame, cone.moreau, cone.cone_defect, cone.split_orthogonal,
                cone.complement_coords, lambda x, tol: cone.inner(x, x)]
    for one_row in one_rows:
        with pytest.raises(DimensionMismatchError):
            one_row(np.zeros(cone.ambient_dim + 1), tol)
        with pytest.raises(ValueError, match="finite"):
            one_row(np.full(cone.ambient_dim, np.inf), tol)
    # an element of another model of the same dimension is refused, as the
    # model's own entry points refuse it, and not read as this model's
    # coordinates
    d = cone.ambient_dim
    other = next(model for model in (get_model("classical", d), get_model("spin", d - 1))
                 if model.descriptor != cone.model.descriptor)
    foreign = other.element(np.eye(d)[0])
    for one_row in one_rows + [lambda x, tol: cone.inner(a, x)]:
        with pytest.raises(DimensionMismatchError, match="element belongs to"):
            one_row(foreign, tol)
    for function in (is_atom_sd, peel_positive, peel_spectral, moreau_decompose):
        with pytest.raises(DimensionMismatchError, match="element belongs to"):
            function(cone, foreign, tol)


def test_a_generator_cone_refuses_any_element(tol):
    # a raw-array cone has no model to check an element against, so an
    # element of any model, of the cone's dimension or not, is refused with
    # the library's own error rather than numpy's TypeError
    cone = GeneratorSelfDualCone(np.eye(6))
    for element in (get_model("sym", 3).order_unit(), get_model("classical", 4).order_unit()):
        with pytest.raises(DimensionMismatchError, match="takes raw vectors, not an element"):
            cone.inner(element, element)
        for one_row in (cone.frame, cone.moreau, cone.cone_defect, cone.split_orthogonal):
            with pytest.raises(DimensionMismatchError, match="takes raw vectors"):
                one_row(element, tol)
    assert cone.inner(np.ones(6), np.ones(6)) == 6.0
