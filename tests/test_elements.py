"""The Element contract, and bit identity of the hot-path reductions.

Every element is checked when it is built, the results of arithmetic
included: a sum or a multiple of finite coordinates can overflow to inf.
The reductions in ``order_norm``, ``is_logic_element`` and
``LpQubitModel.pnorm`` are compared, at tolerance 0, with the numpy
function-form expressions they were written in before.
"""

import dataclasses
import math

import numpy as np
import pytest

from jordantp import (
    DimensionMismatchError,
    Element,
    LpQubitModel,
    ModelMismatchError,
    Tolerance,
    get_model,
    is_logic_element,
    order_norm,
    random_element,
    state_of_atom,
    tp_matrix_from_params,
)

FINITE_MESSAGE = "^element coordinates must be finite$"


# ---------------------------------------------------------------------------
# the constructor contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_rejected(any_model, bad):
    d = any_model.ambient_dim
    for k in {0, d - 1}:
        coords = np.zeros(d)
        coords[k] = bad
        with pytest.raises(ValueError, match=FINITE_MESSAGE):
            Element(coords, any_model)
        with pytest.raises(ValueError, match=FINITE_MESSAGE):
            any_model.element(coords.tolist())


def test_wrong_shape_rejected(any_model):
    d = any_model.ambient_dim
    for coords in (np.zeros((1, d)), np.zeros((d, 1)), np.zeros((d, d)),
                   np.zeros(d - 1), np.zeros(d + 1), np.float64(0.0)):
        with pytest.raises(DimensionMismatchError,
                           match=f"^expected {d} coordinates, got shape "):
            Element(coords, any_model)


def test_input_is_copied_and_coords_read_only(any_model):
    d = any_model.ambient_dim
    source = np.arange(1.0, d + 1.0)
    a = Element(source, any_model)
    b = any_model.element(source)
    source[0] = -7.0
    for elem in (a, b):
        assert elem.coords is not source
        assert elem.coords.tolist() == list(np.arange(1.0, d + 1.0))
        assert not elem.coords.flags.writeable
        with pytest.raises(ValueError):
            elem.coords[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            elem.coords = np.zeros(d)
    frozen = np.ones(d)
    frozen.setflags(write=False)
    assert Element(frozen, any_model).coords is not frozen
    assert Element(list(range(d)), any_model).coords.dtype == np.float64


def test_arithmetic_overflow_rejected(any_model):
    a = any_model.element(np.full(any_model.ambient_dim, 1e308))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=FINITE_MESSAGE):
            a + a
        with pytest.raises(ValueError, match=FINITE_MESSAGE):
            a * 2.0
        with pytest.raises(ValueError, match=FINITE_MESSAGE):
            2.0 * a
        with pytest.raises(ValueError, match=FINITE_MESSAGE):
            a - (-a)


def test_arithmetic_across_models_of_one_dimension_is_refused():
    # sym:2 and spin:2 share the ambient dimension 3, not the coordinates
    a, b = get_model("sym", 2).order_unit(), get_model("spin", 2).order_unit()
    for combine in (lambda x, y: x + y, lambda x, y: x - y):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ModelMismatchError, match="elements belong to different models"):
                combine(x, y)


def test_order_unit_is_one_immutable_element(any_model):
    unit = any_model.order_unit()
    assert any_model.order_unit() is unit
    assert not unit.coords.flags.writeable
    assert unit.coords.tolist() == any_model.order_unit_coords().tolist()


def test_array_holders_compare_and_hash_by_identity():
    # comparing coordinates needs a tolerance, so == is identity; it used to
    # raise "truth value of an array is ambiguous" on two or more coordinates
    m = get_model("spin", 2)
    a, b = m.element([1.0, 0.0, 0.0]), m.element([1.0, 0.0, 0.0])
    state = state_of_atom(m, m.atom(np.array([1.0, 0.0])))
    matrix = tp_matrix_from_params(m, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    for x, y in ((a, b), (state, dataclasses.replace(state)),
                 (matrix, dataclasses.replace(matrix))):
        assert x == x and x != y
        assert len({x, y, x}) == 2


# ---------------------------------------------------------------------------
# bit identity against the function-form reductions
# ---------------------------------------------------------------------------


def reference_order_norm(eigs):
    return float(np.max(np.abs(eigs)))


def reference_is_logic(eigs, tol):
    return bool(np.all(np.abs(eigs - np.round(eigs)) <= tol.eig_cluster)
                and np.all((np.round(eigs) == 0) | (np.round(eigs) == 1)))


_TINY = np.finfo(float).tiny


def reference_pnorm(v, exponent):
    a = np.abs(v)
    top = max(a.tolist(), default=0.0)
    try:
        peak = top ** exponent
    except OverflowError:
        peak = math.inf
    if _TINY <= peak and peak * a.size < math.inf:
        return float(np.sum(a ** exponent) ** (1.0 / exponent))
    if not 0.0 < top < math.inf:
        return float(np.sum(a))
    return top * float(np.sum((a / top) ** exponent) ** (1.0 / exponent))


SCALES = [10.0 ** k for k in range(-150, 151, 25)]


def test_order_norm_matches_function_form(any_model, tol):
    elements = [any_model.zero(), any_model.order_unit()]
    for seed in range(4):
        base = random_element(any_model, seed)
        elements += [any_model.element(scale * base.coords) for scale in SCALES]
    for a in elements:
        eigs = any_model.eigenvalues(a, tol)
        assert order_norm(any_model, a, tol) == reference_order_norm(eigs)


def _logic_shaped(model, rng):
    """Sums of frame atoms, near misses around the cluster width, and
    elements that are not in the logic."""
    out = [model.zero(), model.order_unit()]
    for _ in range(3):
        frame = [model.atom(p) for p in model.random_frame_params(rng)]
        for mask in range(1, 2 ** len(frame)):
            proj = model.zero()
            for k, atom in enumerate(frame):
                if mask >> k & 1:
                    proj = proj + atom
            out.append(proj)
        atom = frame[0]
        for eps in (1e-12, 9e-9, 1e-8, 1.1e-8, 1e-7):
            out.append(atom + eps * frame[-1])
            out.append((1.0 + eps) * atom)
            out.append((1.0 - eps) * atom)
        out += [0.5 * atom, 2.0 * atom, -atom, atom - frame[-1]]
    return out


def test_is_logic_element_matches_function_form(any_model, tol):
    rng = np.random.default_rng(11)
    tols = [tol, Tolerance(eig_cluster=1e-6), Tolerance(eig_cluster=1e-12)]
    verdicts = set()
    for a in _logic_shaped(any_model, rng):
        for t in tols:
            eigs = any_model.eigenvalues(a, t)
            verdict = is_logic_element(any_model, a, t)
            assert verdict == reference_is_logic(eigs, t)
            verdicts.add(verdict)
    assert verdicts == {True, False}


EXPONENTS = [1.001, 1.01, 1.5, 2.0, 3.0, 7.5, 16.0, 40.0]


def test_pnorm_matches_function_form():
    rng = np.random.default_rng(5)
    exponents = EXPONENTS + rng.uniform(1.001, 40.0, size=8).tolist()
    for size in (1, 2, 3, 5):
        vectors = [np.zeros(size)]
        for scale in SCALES:
            vectors.append(scale * rng.normal(size=size))
            vectors.append(scale * rng.uniform(size=size))
        for v in vectors:
            for exponent in exponents:
                assert LpQubitModel.pnorm(v, exponent) == reference_pnorm(v, exponent)


def test_pnorms_zero_rows_stay_on_the_stack(monkeypatch):
    # a zero row sums to zero on the stacked path, signed zeros included; a
    # 1e-200 row, whose power underflows, still takes pnorm's scaled branch
    rows = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1e-200, 0.0, -1e-200],
                     [1.0, -2.0, 0.5]])
    scalar = LpQubitModel.pnorm
    calls = []
    monkeypatch.setattr(LpQubitModel, "pnorm", staticmethod(
        lambda v, exponent: calls.append(list(v)) or scalar(v, exponent)))
    for exponent in (2.0, 3.0, 40.0):
        calls.clear()
        got = LpQubitModel.pnorms(rows, exponent)
        want = np.array([scalar(row, exponent) for row in rows])
        assert got.tobytes() == want.tobytes()
        assert calls == [[1e-200, 0.0, -1e-200]]


def test_pnorms_rows_whose_peak_overflows_match_pnorm():
    # at 1e307 the peak power is finite but four times the row length times it
    # is not; at 1e308 the peak power itself overflows (exponents above 1)
    rows = np.array([[1e307, 2.0, -3.0], [-1e307, 1e307, 0.0], [1e308, 1.0, 0.0],
                     [1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1e-300, 0.0, 1e-301]])
    for exponent in (1.001, 1.01, 2.0, 40.0):
        assert LpQubitModel.pnorms(rows, exponent).tolist() == [
            LpQubitModel.pnorm(row, exponent) for row in rows]
