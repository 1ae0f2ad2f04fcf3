"""Differential oracle: the l^2 qubit lpq:n:2 is the spin factor spin:n.

Both models use the coordinates (t, x) and the Euclidean unit sphere for
their atom parameters, so every kernel output must agree on shared inputs,
at any coordinate scale a double can carry (Faraut & Koranyi, *Analysis on
Symmetric Cones*, 1994, ch. V).
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jordantp import Tolerance, get_model

TOL = Tolerance()
REL = 1e-14

# unit-scale entries, kept off the subnormal range once scaled by 1e-150
unit_entries = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6))


def _vector(data, size):
    return np.array(data.draw(st.lists(unit_entries, min_size=size, max_size=size)))


def _direction(data, n):
    v = _vector(data, n)
    assume(np.linalg.norm(v) > 1e-3)
    return v / np.linalg.norm(v)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), exponent=st.integers(-150, 150), data=st.data())
def test_lpq_with_p_two_is_the_spin_factor(n, exponent, data):
    spin, lpq = get_model("spin", n), get_model("lpq", n, 2.0)
    scale = 10.0 ** exponent
    a = scale * _vector(data, n + 1)
    b = scale * _vector(data, n + 1)

    eigs = spin.eigenvalues_coords(a, TOL)
    np.testing.assert_allclose(lpq.eigenvalues_coords(a, TOL), eigs, rtol=0, atol=REL * scale)
    assert abs(lpq.native_pairing(a, b) - spin.native_pairing(a, b)) <= REL * scale**2
    if abs(eigs[-1]) > REL * scale:  # off the cone boundary, where both must decide alike
        assert lpq.cone_oracle(a, 0.0) == spin.cone_oracle(a, 0.0)

    u, v = _direction(data, n), _direction(data, n)
    np.testing.assert_allclose(lpq.atom_coords(u), spin.atom_coords(u), rtol=0, atol=REL)
    assert abs(lpq.transition_from_params(u, v) - spin.transition_from_params(u, v)) <= REL
