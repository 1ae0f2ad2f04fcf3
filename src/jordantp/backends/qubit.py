"""Generalized qubits: the capacity-two backends on coordinates (t, x).

The spectrum is {t + r(x), t - r(x)} for a norm r, with atoms (1, g) / 2 at
the unit directions g of r.  The spin factor is the Euclidean member of the
family, the l^p qubits are the others (Faraut & Koranyi, Analysis on
Symmetric Cones, ch. V).
"""

from __future__ import annotations

from abc import abstractmethod

import numpy as np

from ..elements import Tolerance
from .base import Model, row_norms


def half_atom(g: np.ndarray) -> np.ndarray:
    """Coordinates (1, g) / 2 of the atom along the unit direction g, or the
    stack (..., n + 1) of those along the rows of a stack of directions."""
    atoms = np.empty(g.shape[:-1] + (g.shape[-1] + 1,))
    atoms[..., 0] = 0.5
    atoms[..., 1:] = 0.5 * g
    return atoms


def _t_plus_minus_r(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The (K, 2) spectra t + r, t - r; a sum beyond the doubles is inf
    without a warning, as it is in float arithmetic."""
    with np.errstate(over="ignore"):
        return np.stack((t + r, t - r), axis=1)


class _QubitModel(Model):
    """Everything but the radius, the atom parametrisation and the oracle."""

    def __init__(self, n: int):
        self._n = int(n)

    @property
    def ambient_dim(self) -> int:
        return self._n + 1

    @property
    def info_capacity(self) -> int:
        return 2

    def order_unit_coords(self) -> np.ndarray:
        coords = np.zeros(self._n + 1)
        coords[0] = 1.0
        return coords

    @abstractmethod
    def _radius(self, x) -> float:
        """The norm r whose unit sphere carries the atom directions."""

    @abstractmethod
    def _radii(self, xs: np.ndarray) -> np.ndarray:
        """``_radius`` of each row of a (K, n) stack, bit for bit."""

    def _split_radii(self, xs: np.ndarray) -> np.ndarray:
        """Euclidean length of each row of a (K, n) stack, as the orthogonal
        split measures it."""
        return row_norms(xs)

    def decompose_coords(self, coords, tol: Tolerance):
        t = float(coords[0])
        x = np.asarray(coords[1:], dtype=float)
        r = self._radius(x)
        # a deterministic direction for multiples of the unit
        g = np.eye(self._n)[0] if r == 0.0 else x / r
        return np.array([t + r, t - r]), np.array([half_atom(g), half_atom(-g)])

    def _frames(self, stack, tol: Tolerance):
        t, xs = stack[:, 0], stack[:, 1:]
        r = self._radii(xs)
        flat = r == 0.0
        g = xs / np.where(flat, 1.0, r)[:, np.newaxis]
        g[flat] = 0.0
        g[flat, 0] = 1.0  # deterministic direction for multiples of the unit
        atoms = np.full((len(stack), 2, self._n + 1), 0.5)
        atoms[:, 0, 1:] = 0.5 * g
        atoms[:, 1, 1:] = -atoms[:, 0, 1:]
        return _t_plus_minus_r(t, r), atoms

    def eigenvalues_coords(self, coords, tol: Tolerance) -> np.ndarray:
        t = float(coords[0])
        r = self._radius(np.asarray(coords[1:], dtype=float))
        return np.array([t + r, t - r])

    def eigenvalues_batch(self, stack, tol: Tolerance) -> np.ndarray:
        return _t_plus_minus_r(stack[:, 0], self._radii(stack[:, 1:]))

    def split_orthogonal_batch(self, stack, tol: Tolerance):
        t, f = stack[:, 0], stack[:, 1:]
        r = self._split_radii(f)
        single = np.abs(t - r) <= 10.0 * tol.check_tol * np.maximum(1.0, np.abs(t))
        flat = ~(r > 0)
        u = f / np.where(flat, 1.0, r)[:, np.newaxis]
        u[flat] = np.eye(self._n)[0]  # a deterministic direction
        return ((t + r)[:, np.newaxis] * half_atom(u), (t - r)[:, np.newaxis] * half_atom(-u),
                single)

    def random_frame_params_batch(self, rngs) -> np.ndarray:
        first = self.random_atom_param_batch(rngs)
        return np.concatenate((first, -first), axis=1).reshape(len(first), 2, self._n)

    def state_values(self, params, coords) -> np.ndarray:
        return coords[:, 0] + np.vecdot(coords[:, 1:], np.asarray(params, dtype=float))

    def native_pairings(self, stack_a, stack_b) -> np.ndarray:
        if not self.symmetric_tp:
            return super().native_pairings(stack_a, stack_b)
        # twice the ambient dot product; atoms then have unit self-pairing
        return 2.0 * np.vecdot(stack_a, stack_b)
