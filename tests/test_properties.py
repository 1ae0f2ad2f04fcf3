"""Property-based checks of the norm and spectral contracts."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jordantp import cone_contains, get_model, order_norm

finite_coords = dict(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


@settings(max_examples=60, deadline=None)
@given(coords=arrays(np.float64, 4, elements=st.floats(**finite_coords)),
       scale=st.floats(min_value=-100.0, max_value=100.0,
                       allow_nan=False, allow_infinity=False))
def test_classical_norm_homogeneity(coords, scale):
    m = get_model("classical", 4)
    a = m.element(coords)
    got = order_norm(m, scale * a)
    want = abs(scale) * order_norm(m, a)
    assert got == want or abs(got - want) <= 1e-9 * max(1.0, abs(want))


@settings(max_examples=60, deadline=None)
@given(x=arrays(np.float64, 3, elements=st.floats(**finite_coords)),
       y=arrays(np.float64, 3, elements=st.floats(**finite_coords)))
def test_spin_triangle_inequality(x, y):
    m = get_model("spin", 2)
    a, b = m.element(x), m.element(y)
    lhs = order_norm(m, a + b)
    rhs = order_norm(m, a) + order_norm(m, b)
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


@settings(max_examples=60, deadline=None)
@given(coords=arrays(np.float64, 3, elements=st.floats(**finite_coords)))
def test_spin_reconstruction(coords):
    m = get_model("spin", 2)
    a = m.element(coords)
    form = m.spectral_form(a)
    scale = max(1.0, order_norm(m, a))
    assert order_norm(m, form.reconstruct() - a) <= 1e-12 * scale
    assert len(form.pairs) == 2


@settings(max_examples=40, deadline=None)
@given(coords=arrays(np.float64, 4, elements=st.floats(min_value=-10, max_value=10,
                                                       allow_nan=False)))
def test_classical_cone_membership_is_coordinatewise(coords):
    m = get_model("classical", 4)
    assert cone_contains(m, m.element(coords)) == bool(np.min(coords) >= -1e-9)


@settings(max_examples=40, deadline=None)
@given(diag=arrays(np.float64, 3, elements=st.floats(min_value=-50, max_value=50,
                                                     allow_nan=False)),
       angle=st.floats(min_value=0.0, max_value=2 * np.pi, allow_nan=False))
def test_sym_norm_is_rotation_invariant(diag, angle):
    m = get_model("sym", 3)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    base = np.diag(diag)
    a = m.from_matrix(base)
    b = m.from_matrix(rot @ base @ rot.T)
    assert abs(order_norm(m, a) - order_norm(m, b)) <= 1e-9 * max(1.0, order_norm(m, a))
