import numpy as np
import pytest

from jordantp import (
    SpectralSelfDualCone,
    UnsupportedModelError,
    check_inner_product,
    cone_contains,
    get_model,
    inner_product,
    mix_states,
    order_norm,
    random_element,
    self_duality_report,
    state_of_atom,
    symmetry_defect,
    tp_matrix,
    tp_matrix_from_params,
    transition_prob,
    verify_atom_state_uniqueness,
    verify_certainty_order,
    verify_pure_state_sampling,
    verify_strong_state_space,
)

# asymmetry of the l^p model observed at p=3, n=2 over 200 sampled pairs with
# seed 7; frozen as a regression baseline
LPQ23_SYMMETRY_BASELINE = 0.22604286707759064


def _assert_all_pass(checks):
    failed = [c for c in checks if not c.passed]
    assert not failed, [f"{c.name}: defect={c.defect} tol={c.tolerance}" for c in failed]


def test_transition_prob_self_is_one(any_model, tol):
    rng = np.random.default_rng(0)
    e = any_model.atom(any_model.random_atom_param(rng))
    assert transition_prob(any_model, e, e) == pytest.approx(1.0, abs=tol.check_tol)


def test_transition_prob_herm_hadamard():
    m = get_model("herm", 2)
    e1 = m.atom(np.array([1.0, 0.0]))
    e2 = m.atom(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert transition_prob(m, e1, e2) == pytest.approx(0.5, abs=1e-12)


def test_transition_prob_lpq_p3_closed_form():
    # omega1 = (1, 0), omega2 = 2^(-1/3) (1, 1):
    #   P_{e1}(e2) = (1 + 2^(-2/3)) / 2  and  P_{e2}(e1) = (1 + 2^(-1/3)) / 2
    m = get_model("lpq", 2, 3.0)
    e1 = m.atom(np.array([1.0, 0.0]))
    e2 = m.atom(2.0 ** (-1.0 / 3.0) * np.ones(2))
    fwd = transition_prob(m, e1, e2)
    rev = transition_prob(m, e2, e1)
    assert fwd == pytest.approx((1.0 + 2.0 ** (-2.0 / 3.0)) / 2.0, abs=1e-12)
    assert rev == pytest.approx((1.0 + 2.0 ** (-1.0 / 3.0)) / 2.0, abs=1e-12)
    assert abs(fwd - rev) > 0.01


def test_state_of_atom_examples():
    h = get_model("herm", 2)
    e = h.atom(np.array([1.0, 0.0]))
    state = state_of_atom(h, e)
    assert state.kind == "dual_vector"
    assert state.value(h.order_unit()) == pytest.approx(1.0, abs=1e-12)
    assert state.value(e) == pytest.approx(1.0, abs=1e-12)

    cl = get_model("classical", 3)
    e2 = cl.atom(1)
    assert state_of_atom(cl, e2).value(cl.element([5.0, 7.0, 9.0])) == pytest.approx(7.0)

    lq = get_model("lpq", 2, 3.0)
    omega = np.array([1.0, 0.0])
    st = state_of_atom(lq, lq.atom(omega))
    assert st.kind == "point_evaluation"
    np.testing.assert_allclose(st.point, omega, atol=1e-12)


def test_state_normalization_and_positivity(any_model, tol):
    rng = np.random.default_rng(1)
    state = state_of_atom(any_model, any_model.atom(any_model.random_atom_param(rng)))
    assert state.value(any_model.order_unit()) == pytest.approx(1.0, abs=tol.check_tol)
    for seed in range(100):
        a = random_element(any_model, seed, "positive")
        assert state.value(a) >= -tol.check_tol


def test_mix_states_is_affine(any_model):
    rng = np.random.default_rng(2)
    s1 = state_of_atom(any_model, any_model.atom(any_model.random_atom_param(rng)))
    s2 = state_of_atom(any_model, any_model.atom(any_model.random_atom_param(rng)))
    mixed = mix_states([s1, s2], [0.3, 0.7])
    a = random_element(any_model, 5)
    assert mixed.value(a) == pytest.approx(0.3 * s1.value(a) + 0.7 * s2.value(a), abs=1e-9)


def test_tp_matrix_orthogonal_family_is_identity(symmetric_model):
    rng = np.random.default_rng(3)
    atoms = [symmetric_model.atom(p) for p in symmetric_model.random_frame_params(rng)]
    mat = tp_matrix(symmetric_model, atoms)
    np.testing.assert_allclose(mat.matrix, np.eye(len(atoms)), atol=1e-9)
    assert mat.symmetry_defect() <= 1e-9


def test_tp_matrix_herm_family_plus_hadamard():
    m = get_model("herm", 2)
    atoms = [m.atom(np.array([1.0, 0.0])), m.atom(np.array([0.0, 1.0])),
             m.atom(np.array([1.0, 1.0]) / np.sqrt(2.0))]
    mat = tp_matrix(m, atoms).matrix
    # family column sums at the extra atom resolve unity: 0.5 + 0.5 = 1
    assert mat[0, 2] == pytest.approx(0.5, abs=1e-12)
    assert mat[1, 2] == pytest.approx(0.5, abs=1e-12)
    assert mat[0, 2] + mat[1, 2] == pytest.approx(1.0, abs=1e-12)


def test_tp_matrix_lpq_asymmetric():
    m = get_model("lpq", 2, 3.0)
    rng = np.random.default_rng(4)
    params = [m.random_atom_param(rng) for _ in range(3)]
    mat = tp_matrix_from_params(m, params)
    assert mat.symmetry_defect() > 1e-3
    np.testing.assert_allclose(np.diag(mat.matrix), np.ones(3), atol=1e-12)
    assert np.all(mat.matrix >= -1e-12) and np.all(mat.matrix <= 1.0 + 1e-12)


def test_tp_matrix_unity_resolution(any_model, tol):
    rng = np.random.default_rng(5)
    family = any_model.random_frame_params(rng)
    extra = any_model.random_atom_param(rng)
    rows = sum(any_model.transition_from_params(extra, f) for f in family)
    cols = sum(any_model.transition_from_params(f, extra) for f in family)
    assert rows == pytest.approx(1.0, abs=1e-9)
    assert cols == pytest.approx(1.0, abs=1e-9)


def test_tp_csv_format():
    m = get_model("classical", 2)
    mat = tp_matrix(m, [m.atom(0), m.atom(1)])
    text = mat.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "e0,e1"
    assert lines[1].split(",")[0] == "1"


def test_symmetry_defect_symmetric_models(symmetric_model):
    assert symmetry_defect(symmetric_model, 1, 100) <= 1e-9


def test_symmetry_defect_lpq_p3_regression():
    defect = symmetry_defect(get_model("lpq", 2, 3.0), 7, 200)
    assert defect > 0.01
    assert defect == pytest.approx(LPQ23_SYMMETRY_BASELINE, rel=1e-9)


def test_orthogonality_biconditional_even_when_asymmetric():
    # P_{e1}(e2) = 0 iff P_{e2}(e1) = 0 iff e1 + e2 below the unit,
    # including on the non-symmetric model
    m = get_model("lpq", 2, 3.0)
    rng = np.random.default_rng(6)
    omega = m.random_atom_param(rng)
    assert m.transition_from_params(omega, -omega) == 0.0
    assert m.transition_from_params(-omega, omega) == 0.0
    assert cone_contains(m, m.order_unit() - m.atom(omega) - m.atom(-omega))
    nu = m.random_atom_param(rng)
    if abs(m.transition_from_params(omega, nu)) > 1e-6:
        assert abs(m.transition_from_params(nu, omega)) > 1e-12
        assert not cone_contains(m, m.order_unit() - m.atom(omega) - m.atom(nu))


def test_top_atom_attains_norm(any_model, tol):
    # for positive a there is a frame atom e with P_e(a) = |a| and |a| e <= a
    for seed in (7, 8, 9):
        a = random_element(any_model, seed, "positive")
        form = any_model.spectral_form(a, tol)
        top = form.pairs[0]
        param = any_model.atom_param_from_coords(top.atom.coords, tol)
        norm = order_norm(any_model, a)
        assert any_model.state_value(param, a.coords) == pytest.approx(norm, abs=1e-9)
        assert cone_contains(any_model, a - norm * top.atom, tol.replace(cone_slack=1e-8))


def test_inner_product_examples():
    h = get_model("herm", 2)
    unit = h.order_unit()
    assert inner_product(h, unit, unit) == pytest.approx(2.0, abs=1e-12)
    # oracle: the pairing equals the matrix trace pairing
    rng = np.random.default_rng(10)
    for _ in range(10):
        a = random_element(h, int(rng.integers(1 << 30)))
        b = random_element(h, int(rng.integers(1 << 30)))
        trace = float(np.real(np.trace(h.to_matrix(a) @ h.to_matrix(b))))
        assert inner_product(h, a, b) == pytest.approx(trace, abs=1e-9)


def test_inner_product_atom_normalization(symmetric_model):
    rng = np.random.default_rng(11)
    e = symmetric_model.atom(symmetric_model.random_atom_param(rng))
    assert inner_product(symmetric_model, e, e) == pytest.approx(1.0, abs=1e-9)


def test_inner_product_classical_is_dot():
    m = get_model("classical", 3)
    a = m.element([1.0, -2.0, 0.5])
    b = m.element([2.0, 1.0, 4.0])
    assert inner_product(m, a, b) == pytest.approx(float(np.dot(a.coords, b.coords)), abs=1e-12)


def test_inner_product_rejected_on_asymmetric_model():
    m = get_model("lpq", 2, 3.0)
    with pytest.raises(UnsupportedModelError):
        inner_product(m, m.order_unit(), m.order_unit())


def test_check_inner_product_passes(symmetric_model):
    _assert_all_pass(check_inner_product(symmetric_model, 1, 60))


def test_check_inner_product_reports_rejection():
    checks = check_inner_product(get_model("lpq", 2, 3.0), 1, 10)
    by_name = {c.name: c for c in checks}
    assert by_name["ip.unsupported_raises"].passed
    assert by_name["ip.symmetry"].skipped
    assert all(by_name[f"norms.{name}"].skipped for name in ("lower", "upper", "tightness"))


def test_check_self_duality_passes(symmetric_model):
    _assert_all_pass(self_duality_report(SpectralSelfDualCone(symmetric_model), 2, 60))


def test_self_duality_negative_witness():
    # one negative eigenvalue pairs strictly negatively with its own atom
    m = get_model("sym", 3)
    rng = np.random.default_rng(12)
    frame = m.random_frame_params(rng)
    a = m.element(2.0 * m.atom_coords(frame[0]) - 0.5 * m.atom_coords(frame[1]))
    assert inner_product(m, a, m.atom(frame[1])) == pytest.approx(-0.5, abs=1e-9)
    assert not cone_contains(m, a)


def test_check_norm_equivalence(symmetric_model):
    norms = [c for c in check_inner_product(symmetric_model, 3, 60) if c.name.startswith("norms.")]
    assert [c.name for c in norms] == ["norms.lower", "norms.upper", "norms.tightness"]
    _assert_all_pass(norms)


def test_norm_equivalence_tightness():
    m = get_model("classical", 4)
    unit = m.order_unit()
    assert np.sqrt(inner_product(m, unit, unit)) == pytest.approx(
        2.0 * order_norm(m, unit), abs=1e-12)  # sqrt(m) |unit| with m = 4
    e = m.atom(2)
    assert np.sqrt(inner_product(m, e, e)) == pytest.approx(order_norm(m, e), abs=1e-12)


def test_verify_atom_state_uniqueness(any_model):
    _assert_all_pass(verify_atom_state_uniqueness(any_model, 4, 100))


def test_verify_pure_state_sampling(any_model):
    _assert_all_pass(verify_pure_state_sampling(any_model, 5, 40))


def test_verify_certainty_order(any_model):
    _assert_all_pass(verify_certainty_order(any_model, 6, 60))


def test_certainty_order_construction_example():
    # a = e + 0.7 f with f orthogonal to e: P_e(a) = 1 and a - e stays positive
    m = get_model("herm", 3)
    rng = np.random.default_rng(13)
    frame = m.random_frame_params(rng)
    e, f = m.atom(frame[0]), m.atom(frame[1])
    a = e + 0.7 * f
    assert m.state_value(frame[0], a.coords) == pytest.approx(1.0, abs=1e-12)
    assert cone_contains(m, a - e)


def test_verify_strong_state_space(any_model):
    _assert_all_pass(verify_strong_state_space(any_model, 7, 60))


def test_strong_state_space_classical_witness():
    # p = (1,0,0) not below q = (0,1,1): the first basis state separates them
    m = get_model("classical", 3)
    p = m.element([1.0, 0.0, 0.0])
    q = m.element([0.0, 1.0, 1.0])
    assert not cone_contains(m, q - p)
    state = state_of_atom(m, m.atom(0))
    assert state.value(p) == pytest.approx(1.0)
    assert state.value(q) == pytest.approx(0.0)


def test_half_mixture_example():
    m = get_model("herm", 2)
    e = m.atom(np.array([1.0, 0.0]))
    other = m.atom(np.array([0.0, 1.0]))
    sigma = mix_states([state_of_atom(m, e), state_of_atom(m, other)], [0.5, 0.5])
    assert sigma.value(e) == pytest.approx(0.5, abs=1e-12)
