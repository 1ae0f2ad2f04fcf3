import numpy as np
import pytest

from jordantp import (
    DimensionMismatchError,
    Tolerance,
    cone_contains,
    get_model,
    in_unit_interval,
    order_norm,
    random_element,
)


def test_order_unit_classical():
    m = get_model("classical", 3)
    np.testing.assert_array_equal(m.order_unit().coords, [1.0, 1.0, 1.0])


def test_order_unit_spin():
    m = get_model("spin", 2)
    np.testing.assert_array_equal(m.order_unit().coords, [1.0, 0.0, 0.0])


def test_order_unit_sym_is_identity():
    m = get_model("sym", 2)
    np.testing.assert_allclose(m.to_matrix(m.order_unit()), np.eye(2))


def test_order_unit_spectrum_is_all_ones(any_model):
    eigs = any_model.eigenvalues(any_model.order_unit())
    np.testing.assert_allclose(eigs, np.ones_like(eigs), atol=1e-12)


def test_cone_contains_classical():
    m = get_model("classical", 2)
    assert cone_contains(m, m.element([1.0, 0.0]))
    assert not cone_contains(m, m.element([1.0, -0.5]))


def test_cone_contains_spin_counterexample():
    # (1, (2, 0)) has eigenvalues 3 and -1
    m = get_model("spin", 2)
    a = m.element([1.0, 2.0, 0.0])
    np.testing.assert_allclose(sorted(m.eigenvalues(a)), [-1.0, 3.0])
    assert not cone_contains(m, a)


def test_cone_contains_sym_derived():
    # [[2,1],[1,2]] has characteristic polynomial (2-s)^2 - 1, roots 1 and 3
    m = get_model("sym", 2)
    a = m.from_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(sorted(m.eigenvalues(a)), [1.0, 3.0], atol=1e-12)
    assert cone_contains(m, a)


def test_order_norm_examples():
    cl = get_model("classical", 3)
    assert order_norm(cl, cl.element([3.0, -1.0, 0.0])) == 3.0
    sp = get_model("spin", 2)
    assert order_norm(sp, sp.element([1.0, 1.0, 0.0])) == pytest.approx(2.0, abs=1e-12)
    he = get_model("herm", 2)
    pauli_x = he.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert order_norm(he, pauli_x) == pytest.approx(1.0, abs=1e-12)


def test_order_norm_matches_interval_definition():
    # |a| = inf{s > 0 : -s unit <= a <= s unit}
    m = get_model("sym", 3)
    a = random_element(m, 7)
    s = order_norm(m, a)
    unit = m.order_unit()
    assert cone_contains(m, s * unit - a)
    assert cone_contains(m, a + s * unit)
    shrunk = (s - 1e-6) * unit
    assert not (cone_contains(m, shrunk - a) and cone_contains(m, a + shrunk))


def test_in_unit_interval(any_model):
    assert in_unit_interval(any_model, any_model.order_unit())
    assert in_unit_interval(any_model, random_element(any_model, 3, "unit_interval"))


def test_in_unit_interval_rejects():
    m = get_model("classical", 2)
    assert not in_unit_interval(m, m.element([0.5, 1.2]))


def test_unit_interval_spin_halved_atom():
    m = get_model("spin", 3)
    u = np.array([1.0, 0.0, 0.0])
    a = m.element(0.5 * np.concatenate([[1.0], u]))
    np.testing.assert_allclose(sorted(m.eigenvalues(a)), [0.0, 1.0], atol=1e-12)
    assert in_unit_interval(m, a)


def test_norm_homogeneity_and_triangle(any_model, tol):
    for seed in range(10):
        a = random_element(any_model, seed)
        b = random_element(any_model, seed + 100)
        s = -2.75
        assert order_norm(any_model, s * a) == pytest.approx(
            abs(s) * order_norm(any_model, a), abs=tol.check_tol)
        assert order_norm(any_model, a + b) <= (
            order_norm(any_model, a) + order_norm(any_model, b) + tol.check_tol)


def test_two_sided_cone_membership_forces_zero(any_model, tol):
    a = 0.3 * tol.cone_slack * any_model.order_unit()
    assert cone_contains(any_model, a, tol) and cone_contains(any_model, -a, tol)
    assert order_norm(any_model, a) <= tol.cone_slack


def test_unit_norm_is_one(any_model, tol):
    assert order_norm(any_model, any_model.order_unit()) == pytest.approx(1.0, abs=tol.check_tol)


def test_dimension_mismatch_raises():
    m = get_model("classical", 3)
    with pytest.raises(DimensionMismatchError):
        m.element([1.0, 2.0])
    other = get_model("classical", 4)
    with pytest.raises(DimensionMismatchError):
        cone_contains(other, m.element([1.0, 2.0, 3.0]))


def test_element_rejects_non_finite():
    m = get_model("classical", 2)
    with pytest.raises(ValueError):
        m.element([np.nan, 0.0])


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(check_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(eig_cluster=1e-2)
    assert Tolerance().replace(check_tol=1e-8).check_tol == 1e-8


def test_cone_contains_is_the_cone_defect_test(any_model):
    tol = Tolerance()
    for seed in range(20):
        for shape in ("any", "positive"):
            a = random_element(any_model, seed, shape)
            assert cone_contains(any_model, a, tol) == (
                any_model.cone_defect(a, tol) <= tol.cone_slack)


@pytest.mark.parametrize("coords, inside", [
    ([1e308, 1e308, 1e308], True),          # eigenvalues inf and 0
    ([-1e308, -1e308, 1e308], False),       # eigenvalues 0 and -inf
    ([1e308, -1e308, 1.7e308], False),      # the kernel's spectrum is NaN
])
def test_cone_contains_on_spectra_outside_the_doubles(coords, inside):
    m = get_model("sym", 2)
    a = m.element(coords)
    with np.errstate(all="ignore"):
        assert cone_contains(m, a) is inside
        assert (m.cone_defect(a) <= Tolerance().cone_slack) is inside
