"""Differential oracles: models that are isomorphic, or one a restriction of
the other, must agree on every kernel output across the map.

- the l^2 qubit lpq:n:2 is the spin factor spin:n;
- sym:2 is spin:2 and herm:2 is spin:3 (the Pauli picture);
- classical:n is the diagonal of sym:n;
- sym:n is the real part of herm:n.

Each map is checked at any coordinate scale a double can carry (Faraut &
Koranyi, *Analysis on Symmetric Cones*, 1994, ch. V).
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jordantp import Tolerance, get_model

TOL = Tolerance()
# the matrix kernel merges eigenvalues closer than eig_cluster of the spectral
# diameter; this keeps that merge below the comparison tolerance
FINE = Tolerance(eig_cluster=1e-15)
REL = 1e-14

# unit-scale entries, kept off the subnormal range once scaled by 1e-150
unit_entries = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6))
exponents = st.integers(-150, 150)


def _vector(data, size):
    return np.array(data.draw(st.lists(unit_entries, min_size=size, max_size=size)))


def _direction(data, n):
    v = _vector(data, n)
    assume(np.linalg.norm(v) > 1e-3)
    return v / np.linalg.norm(v)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), exponent=exponents, data=st.data())
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


def _sym2_coords(c):
    """(t, x) of spin:2 as the matrix [[t + x0, x1], [x1, t - x0]]."""
    t, x0, x1 = c
    return np.array([t + x0, t - x0, x1])


def _sym2_param(u):
    """Unit vector v with v v^T the matrix of the spin:2 atom (1, u) / 2."""
    v = np.array([1.0 + u[0], u[1]]) if u[0] >= 0 else np.array([u[1], 1.0 - u[0]])
    return v / np.linalg.norm(v)


def _herm2_coords(c):
    """(t, x) of spin:3 as t + x . sigma in the Pauli matrices sigma."""
    t, x0, x1, x2 = c
    return np.array([t + x2, t - x2, x0, -x1])


def _herm2_param(u):
    """Unit vector v with v v^* the matrix of the spin:3 atom (1, u) / 2."""
    if u[2] >= 0:
        v = np.array([1.0 + u[2], u[0] + 1j * u[1]])
    else:
        v = np.array([u[0] - 1j * u[1], 1.0 - u[2]])
    return v / np.linalg.norm(v)


def _check_spin_map(spin, other, coords, param, data, exponent):
    scale = 10.0 ** exponent
    dim = spin.ambient_dim
    a = scale * _vector(data, dim)
    b = scale * _vector(data, dim)
    u, w = _direction(data, dim - 1), _direction(data, dim - 1)

    np.testing.assert_allclose(other.eigenvalues_coords(coords(a), FINE),
                               spin.eigenvalues_coords(a, FINE), rtol=0, atol=REL * scale)
    assert abs(other.native_pairing(coords(a), coords(b))
               - spin.native_pairing(a, b)) <= REL * scale**2
    np.testing.assert_allclose(other.atom_coords(param(u)), coords(spin.atom_coords(u)),
                               rtol=0, atol=REL)
    assert abs(other.state_value(param(u), coords(a)) - spin.state_value(u, a)) <= REL * scale
    assert abs(other.transition_from_params(param(u), param(w))
               - spin.transition_from_params(u, w)) <= REL


@settings(max_examples=200, deadline=None)
@given(exponent=exponents, data=st.data())
def test_sym2_is_spin2(exponent, data):
    _check_spin_map(get_model("spin", 2), get_model("sym", 2), _sym2_coords, _sym2_param,
                    data, exponent)


@settings(max_examples=200, deadline=None)
@given(exponent=exponents, data=st.data())
def test_herm2_is_spin3(exponent, data):
    _check_spin_map(get_model("spin", 3), get_model("herm", 2), _herm2_coords, _herm2_param,
                    data, exponent)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), exponent=exponents, data=st.data())
def test_classical_is_the_diagonal_of_sym(n, exponent, data):
    classical, sym = get_model("classical", n), get_model("sym", n)
    scale = 10.0 ** exponent
    a = scale * _vector(data, n)
    b = scale * _vector(data, n)
    off = np.zeros(n * (n - 1) // 2)

    def diag(c):
        return np.concatenate([c, off])

    np.testing.assert_allclose(sym.eigenvalues_coords(diag(a), FINE),
                               classical.eigenvalues_coords(a, FINE), rtol=0, atol=REL * scale)
    assert abs(sym.native_pairing(diag(a), diag(b))
               - classical.native_pairing(a, b)) <= REL * scale**2
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    basis = np.eye(n)
    np.testing.assert_allclose(sym.atom_coords(basis[i]), diag(classical.atom_coords(i)),
                               rtol=0, atol=REL)
    assert abs(sym.state_value(basis[i], diag(a)) - classical.state_value(i, a)) <= REL * scale
    assert abs(sym.transition_from_params(basis[i], basis[j])
               - classical.transition_from_params(i, j)) <= REL


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), exponent=exponents, data=st.data())
def test_sym_is_the_real_part_of_herm(n, exponent, data):
    # checks the real and the complex coordinate formulas against each other
    sym, herm = get_model("sym", n), get_model("herm", n)
    scale = 10.0 ** exponent
    a = scale * _vector(data, sym.ambient_dim)
    b = scale * _vector(data, sym.ambient_dim)

    def embed(c):
        """Off-diagonal x of sym:n as the pair (x, 0) of herm:n."""
        out = np.zeros(herm.ambient_dim)
        out[:n] = c[:n]
        out[n::2] = c[n:]
        return out

    np.testing.assert_allclose(herm.eigenvalues_coords(embed(a), FINE),
                               sym.eigenvalues_coords(a, FINE), rtol=0, atol=REL * scale)
    assert abs(herm.native_pairing(embed(a), embed(b))
               - sym.native_pairing(a, b)) <= REL * scale**2
    u = _direction(data, n)
    np.testing.assert_allclose(herm.atom_coords(u), embed(sym.atom_coords(u)), rtol=0, atol=REL)
    assert abs(herm.state_value(u, embed(a)) - sym.state_value(u, a)) <= REL * scale
