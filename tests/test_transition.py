import numpy as np
import pytest

from jordantp import (
    SpectralSelfDualCone,
    SpinFactorModel,
    State,
    SymMatrixModel,
    UnnormalizedParamError,
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
    assert state.weights == (1.0,)
    assert abs(np.vdot(state.params[0], [1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)  # up to phase
    assert state.value(h.order_unit()) == pytest.approx(1.0, abs=1e-12)
    assert state.value(e) == pytest.approx(1.0, abs=1e-12)

    cl = get_model("classical", 3)
    e2 = cl.atom(1)
    assert state_of_atom(cl, e2).value(cl.element([5.0, 7.0, 9.0])) == pytest.approx(7.0)

    lq = get_model("lpq", 2, 3.0)
    omega = np.array([1.0, 0.0])
    st = state_of_atom(lq, lq.atom(omega))
    np.testing.assert_allclose(st.params[0], omega, atol=1e-12)
    # the state of e_omega is the point evaluation at omega: (c, f) -> c + f . omega
    assert st.value(lq.element([0.25, -2.0, 5.0])) == pytest.approx(-1.75, abs=1e-12)


@pytest.mark.parametrize("param", [1.5, True, np.True_, -1, 3, np.int64(-1), [1], np.array([1])])
def test_classical_state_rejects_bad_index(param):
    # one index check serves atom_coords and state_value: a bool, a fraction
    # or a negative index never reads a coordinate
    cl = get_model("classical", 3)
    a = cl.element([0.0, 7.0, 0.0])
    with pytest.raises(UnnormalizedParamError):
        State(cl, (param,), (1.0,)).value(a)
    with pytest.raises(UnnormalizedParamError):
        cl.atom_coords(param)


@pytest.mark.parametrize("param", [1, 1.0, np.int64(1), np.float64(1.0)])
def test_classical_state_accepts_integral_index(param):
    cl = get_model("classical", 3)
    assert State(cl, (param,), (1.0,)).value(cl.element([0.0, 7.0, 0.0])) == 7.0
    assert cl.atom_coords(param).tolist() == [0.0, 1.0, 0.0]


@pytest.mark.parametrize("params, weights", [
    ((0, 1), (1.0,)),           # an atom without a weight
    ((0,), (0.5, 0.5)),         # a weight without an atom
    ((0,), (np.nan,)),
    ((0, 1), (np.inf, 0.0)),
    ((0, 1), (0.5, -np.inf)),
])
def test_state_rejects_bad_shape_or_weights(params, weights):
    with pytest.raises(ValueError):
        State(get_model("classical", 3), params, weights)


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
    assert mix_states([s1, s2], [1e308, 1e308]).weights == (0.5, 0.5)


@pytest.mark.parametrize("n_states, weights", [
    (0, []),                    # no state
    (2, [1.0]),                 # fewer weights than states
    (1, [0.5, 0.5]),            # more weights than states
    (2, [np.nan, 1.0]),
    (2, [np.inf, 1.0]),
    (2, [0.0, 0.0]),            # zero sum
    (2, [-0.5, 1.5]),
])
def test_mix_states_rejects_bad_weights(n_states, weights):
    m = get_model("spin", 2)
    rng = np.random.default_rng(4)
    states = [state_of_atom(m, m.atom(m.random_atom_param(rng))) for _ in range(n_states)]
    with pytest.raises(ValueError):
        mix_states(states, weights)


def test_mixed_state_matches_dual_vector(symmetric_model):
    # reference formula: on a symmetric model a mixed state is the pairing
    # with the mixture of its atoms
    rng = np.random.default_rng(6)
    for _ in range(10):
        p1, p2 = symmetric_model.random_atom_param(rng), symmetric_model.random_atom_param(rng)
        lam = float(rng.uniform())
        mixed = mix_states([state_of_atom(symmetric_model, symmetric_model.atom(p))
                            for p in (p1, p2)], [lam, 1.0 - lam])
        dual = lam * symmetric_model.atom_coords(p1) + (1.0 - lam) * symmetric_model.atom_coords(p2)
        a = random_element(symmetric_model, int(rng.integers(1000)))
        scale = max(1.0, float(np.max(np.abs(a.coords))))
        assert mixed.value(a) == pytest.approx(symmetric_model.native_pairing(dual, a.coords),
                                               abs=1e-14 * scale)


def test_mixed_state_matches_point_evaluation():
    # reference formula: on the l^p qubit a mixed state evaluates c + f . zeta
    # at the mixture zeta of its boundary points
    m = get_model("lpq", 2, 3.0)
    rng = np.random.default_rng(7)
    for _ in range(10):
        w1, w2 = m.random_atom_param(rng), m.random_atom_param(rng)
        lam = float(rng.uniform())
        mixed = mix_states([state_of_atom(m, m.atom(w)) for w in (w1, w2)], [lam, 1.0 - lam])
        a = random_element(m, int(rng.integers(1000)))
        zeta = lam * w1 + (1.0 - lam) * w2
        scale = max(1.0, float(np.max(np.abs(a.coords))))
        assert mixed.value(a) == pytest.approx(a.coords[0] + np.dot(a.coords[1:], zeta),
                                               abs=1e-14 * scale)


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
        param = any_model.atom_param_from_coords(top.atom.coords)
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


def test_worst_reads_a_nan_defect_as_infinite():
    from jordantp.spectral import worst

    assert worst(np.array([np.nan, 0.0])) == np.inf
    assert worst(np.array([0.0, np.nan])) == np.inf
    assert worst(np.array([np.nan])) == np.inf
    assert worst(np.array([-1.0, 2.0])) == 2.0
    assert worst(np.array([])) == 0.0
    assert worst(np.array([-2.0, -1.0]), -np.inf) == -1.0


def _with_nan_row(kernel):
    """``kernel`` with row 1 of every stack of two or more rows set to NaN."""
    def broken(*args):
        values = np.array(kernel(*args), dtype=float)
        if len(values) > 1:
            values[1] = np.nan
        return values
    return broken


# the NaN tests patch fresh models, so that the cached ones stay untouched


def test_a_nan_state_value_fails_its_check(monkeypatch):
    model = SpinFactorModel(3)
    monkeypatch.setattr(model, "state_values", _with_nan_row(model.state_values))
    checks = {c.name: c for c in verify_atom_state_uniqueness(model, 0, 8)}
    assert checks["states.atom_state_attains_one"].defect == np.inf
    assert not checks["states.atom_state_attains_one"].passed


def test_a_nan_norm_fails_positive_definiteness(monkeypatch):
    # a NaN |a|^2 - <a|a> once passed: the reduction from -inf skipped it
    model = SymMatrixModel(3)
    monkeypatch.setattr(model, "eigenvalues_batch", _with_nan_row(model.eigenvalues_batch))
    checks = {c.name: c for c in check_inner_product(model, 0, 8)}
    assert not checks["ip.positive_definite"].passed
    assert not checks["norms.lower"].passed
