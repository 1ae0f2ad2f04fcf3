"""Generalized qubit backend on the unit l^p ball, 1 < p < infinity.

Elements are affine functions zeta -> c + f . zeta on the ball, stored as
coordinates (c, f_1, ..., f_n).  The extreme points of the ball are the
boundary points omega, each carrying an atom

    e_omega(zeta) = (1 + f_omega . zeta) / 2,

where f_omega is the unique norm-one supporting functional at omega.  The
transition probability of this model is non-symmetric unless p = 2, in which
case the model coincides with the spin factor of the same dimension.

p <= 1 and p = infinity are rejected at construction: the ball must be
strictly convex and smooth for the supporting functional to be unique.
"""

from __future__ import annotations

import math

import numpy as np

from ..elements import Tolerance
from ..errors import NotAtomError, UnnormalizedParamError
from .base import Model


class LpQubitModel(Model):
    kind = "lpq"

    def __init__(self, n: int, p: float):
        if n < 1:
            raise ValueError("lp qubit needs n >= 1")
        p = float(p)
        if not (1.0 < p < math.inf):
            raise ValueError("lp qubit needs 1 < p < inf (smooth, strictly convex ball)")
        self._n = int(n)
        self._p = p
        self._q = p / (p - 1.0)

    @property
    def p(self) -> float:
        return self._p

    @property
    def dual_exponent(self) -> float:
        return self._q

    @property
    def ambient_dim(self) -> int:
        return self._n + 1

    @property
    def info_capacity(self) -> int:
        return 2

    @property
    def symmetric_tp(self) -> bool:
        # the 1-dimensional ball is the interval [-1, 1] for every exponent,
        # so only n >= 2 with p != 2 produces genuine asymmetry
        return self._p == 2.0 or self._n == 1

    @property
    def param_items(self) -> tuple:
        return (("n", self._n), ("p", self._p))

    def order_unit_coords(self) -> np.ndarray:
        coords = np.zeros(self._n + 1)
        coords[0] = 1.0
        return coords

    # ------------------------------------------------------------------
    # duality map between the p-sphere and the q-sphere
    # ------------------------------------------------------------------

    def _pnorm(self, v, exponent) -> float:
        return float(np.sum(np.abs(v) ** exponent) ** (1.0 / exponent))

    def supporting_functional(self, omega) -> np.ndarray:
        """Norm-one functional with f . omega = 1, unique by smoothness."""
        omega = np.asarray(omega, dtype=float)
        f = np.sign(omega) * np.abs(omega) ** (self._p - 1.0)
        return f / self._pnorm(f, self._q)

    def sphere_point_of_functional(self, f) -> np.ndarray:
        """Inverse of the duality map: boundary point supported by ``f``."""
        f = np.asarray(f, dtype=float)
        omega = np.sign(f) * np.abs(f) ** (self._q - 1.0)
        return omega / self._pnorm(omega, self._p)

    def _check_boundary(self, omega) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        if omega.shape != (self._n,):
            raise UnnormalizedParamError(f"boundary point must live in R^{self._n}")
        if abs(self._pnorm(omega, self._p) - 1.0) > 1e-9:
            raise UnnormalizedParamError("boundary point must lie on the unit l^p sphere")
        return omega

    # ------------------------------------------------------------------
    # spectral kernel: spectrum {c - |f|_q, c + |f|_q}
    # ------------------------------------------------------------------

    def decompose_coords(self, coords, tol: Tolerance):
        c = float(coords[0])
        f = np.asarray(coords[1:], dtype=float)
        r = self._pnorm(f, self._q)
        if r == 0.0:
            g = np.zeros(self._n)
            g[0] = 1.0  # deterministic direction for multiples of the unit
        else:
            g = f / r
        plus = np.concatenate(([0.5], 0.5 * g))
        minus = np.concatenate(([0.5], -0.5 * g))
        return [(c + r, plus), (c - r, minus)]

    def eigenvalues_coords(self, coords, tol: Tolerance) -> np.ndarray:
        c = float(coords[0])
        r = self._pnorm(np.asarray(coords[1:], dtype=float), self._q)
        return np.array([c + r, c - r])

    def atom_coords(self, param) -> np.ndarray:
        omega = self._check_boundary(param)
        f = self.supporting_functional(omega)
        return np.concatenate(([0.5], 0.5 * f))

    def atom_param_from_coords(self, coords, tol: Tolerance):
        c = float(coords[0])
        f = 2.0 * np.asarray(coords[1:], dtype=float)
        if abs(c - 0.5) > 1e-7 or abs(self._pnorm(f, self._q) - 1.0) > 1e-7:
            raise NotAtomError("lp qubit atoms have the form (1, f_omega)/2 with |f_omega|_q = 1")
        return self.sphere_point_of_functional(f)

    def random_atom_param(self, rng: np.random.Generator):
        v = rng.normal(size=self._n)
        return v / self._pnorm(v, self._p)

    def random_frame_params(self, rng: np.random.Generator):
        omega = self.random_atom_param(rng)
        return [omega, -omega]

    def state_value(self, param, coords) -> float:
        # point evaluation at a ball point; for atoms this is delta_omega
        zeta = np.asarray(param, dtype=float)
        return float(coords[0] + np.dot(coords[1:], zeta))

    def transition_from_params(self, param_src, param_dst) -> float:
        # e_{dst}(src) written so that the values at dst and at its antipode
        # are exactly 1 and 0 (scale invariant in the functional)
        src = np.asarray(param_src, dtype=float)
        dst = np.asarray(param_dst, dtype=float)
        f = np.sign(dst) * np.abs(dst) ** (self._p - 1.0)
        return float(np.dot(f, dst + src) / (2.0 * np.dot(f, dst)))

    def native_pairing(self, ca, cb) -> float:
        if not self.symmetric_tp:
            return super().native_pairing(ca, cb)
        return float(2.0 * np.dot(ca, cb))
