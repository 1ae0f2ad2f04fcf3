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

from ..errors import NotAtomError, UnnormalizedParamError
from .base import normal_draws
from .qubit import _QubitModel, half_atom

_TINY = np.finfo(float).tiny  # smallest normal double


class LpQubitModel(_QubitModel):
    kind = "lpq"

    def __init__(self, n: int, p: float):
        if n < 1:
            raise ValueError("lp qubit needs n >= 1")
        p = float(p)
        if not (1.0 < p < math.inf):
            raise ValueError("lp qubit needs 1 < p < inf (smooth, strictly convex ball)")
        super().__init__(n)
        self._p = p
        self._q = p / (p - 1.0)

    @property
    def p(self) -> float:
        return self._p

    @property
    def symmetric_tp(self) -> bool:
        # the 1-dimensional ball is the interval [-1, 1] for every exponent,
        # so only n >= 2 with p != 2 produces genuine asymmetry
        return self._p == 2.0 or self._n == 1

    @property
    def param_items(self) -> tuple:
        return (("n", self._n), ("p", self._p))

    # ------------------------------------------------------------------
    # duality map between the p-sphere and the q-sphere
    # ------------------------------------------------------------------

    @staticmethod
    def pnorm(v, exponent) -> float:
        """The l^exponent norm of v.  The entries are divided by the largest
        one first only where the plain sum of powers could overflow or lose
        the normal range, so a representable norm is always found."""
        a = np.abs(v)
        top = max(a.tolist(), default=0.0)
        try:
            peak = top ** exponent
        except OverflowError:
            peak = math.inf
        if _TINY <= peak and peak * a.size < math.inf:
            return float((a ** exponent).sum() ** (1.0 / exponent))
        if not 0.0 < top < math.inf:
            return float(a.sum())  # zero, or inf or nan as the entries say
        return top * float(((a / top) ** exponent).sum() ** (1.0 / exponent))

    @classmethod
    def pnorms(cls, rows: np.ndarray, exponent) -> np.ndarray:
        """``pnorm`` of each row of a (K, n) stack, bit for bit.  The powers
        and sums are taken for the whole stack and the root row by row (the
        vectorised power rounds differently from the scalar one); a row
        whose sum of powers leaves the normal range, or comes near leaving
        it, goes through ``pnorm``."""
        a = np.abs(rows)
        with np.errstate(over="ignore", under="ignore"):
            sums = (a ** exponent).sum(axis=1)
            peaks = a.max(axis=1, initial=0.0) ** exponent
            # margins of 4 keep the branch of pnorm's scalar peak test
            plain = ((4.0 * _TINY <= peaks) & (peaks * (4.0 * a.shape[1]) < math.inf)).tolist()
        root = 1.0 / exponent
        return np.array([s ** root if ok else cls.pnorm(row, exponent)
                         for s, ok, row in zip(sums.tolist(), plain, rows)])

    def supporting_functional(self, omega) -> np.ndarray:
        """Norm-one functional with f . omega = 1, unique by smoothness, or
        the stack (..., n) of them for a stack of boundary points."""
        omega = np.asarray(omega, dtype=float)
        f = (np.sign(omega) * np.abs(omega) ** (self._p - 1.0)).reshape(-1, self._n)
        return (f / self.pnorms(f, self._q)[:, np.newaxis]).reshape(omega.shape)

    def sphere_point_of_functional(self, f) -> np.ndarray:
        """Inverse of the duality map: boundary point supported by ``f``."""
        f = np.asarray(f, dtype=float)
        omega = np.sign(f) * np.abs(f) ** (self._q - 1.0)
        return omega / self.pnorm(omega, self._p)

    def _radii(self, xs) -> np.ndarray:  # the spectrum is {c - |f|_q, c + |f|_q}
        return self.pnorms(xs, self._q)

    def _split_radii(self, xs) -> np.ndarray:
        return self.pnorms(xs, 2.0)

    def cone_oracle(self, coords, slack: float) -> bool:
        return bool(coords[0] - self.pnorm(coords[1:], self._q) >= -slack)

    def atom_coords_batch(self, params) -> np.ndarray:
        # one pnorms for the boundary test of the stack, one for the functionals
        omegas = np.asarray(params, dtype=float)
        if omegas.shape[-1:] != (self._n,):
            raise UnnormalizedParamError(f"boundary point must live in R^{self._n}")
        if np.any(np.abs(self.pnorms(omegas.reshape(-1, self._n), self._p) - 1.0) > 1e-9):
            raise UnnormalizedParamError("boundary point must lie on the unit l^p sphere")
        return half_atom(self.supporting_functional(omegas))

    def atom_param_from_coords(self, coords):
        c = float(coords[0])
        f = 2.0 * np.asarray(coords[1:], dtype=float)
        if abs(c - 0.5) > 1e-7 or abs(self.pnorm(f, self._q) - 1.0) > 1e-7:
            raise NotAtomError("lp qubit atoms have the form (1, f_omega)/2 with |f_omega|_q = 1")
        return self.sphere_point_of_functional(f)

    def random_atom_param_batch(self, rngs) -> np.ndarray:
        v = normal_draws(rngs, (self._n,))
        return v / self.pnorms(v, self._p)[:, np.newaxis]

    def transitions_from_params(self, src, dst) -> np.ndarray:
        # e_{dst}(src) written so that the values at dst and at its antipode
        # are exactly 1 and 0 (scale invariant in the functional)
        src, dst = np.asarray(src, dtype=float), np.asarray(dst, dtype=float)
        f = np.sign(dst) * np.abs(dst) ** (self._p - 1.0)
        return np.vecdot(f, dst + src) / (2.0 * np.vecdot(f, dst))
