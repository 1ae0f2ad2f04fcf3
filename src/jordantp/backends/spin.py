"""Spin factor backend: R + R^n with eigenvalues t plus/minus |x|.

Coordinates are (t, x_1, ..., x_n); the state space is the Euclidean unit
ball, the information capacity is 2 regardless of n, and atoms are
(1, u) / 2 for unit directions u.
"""

from __future__ import annotations

import math

import numpy as np

from ..elements import Tolerance
from ..errors import NotAtomError, UnnormalizedParamError
from .base import Model


class SpinFactorModel(Model):
    kind = "spin"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("spin factor needs n >= 1")
        self._n = int(n)

    @property
    def ambient_dim(self) -> int:
        return self._n + 1

    @property
    def info_capacity(self) -> int:
        return 2

    @property
    def param_items(self) -> tuple:
        return (("n", self._n),)

    def order_unit_coords(self) -> np.ndarray:
        coords = np.zeros(self._n + 1)
        coords[0] = 1.0
        return coords

    def _split(self, coords):
        return float(coords[0]), np.asarray(coords[1:], dtype=float)

    @staticmethod
    def _radius(x) -> float:
        # hypot scales instead of squaring, so |x| is finite whenever it is
        # representable (np.linalg.norm overflows from about 1.3e154)
        return math.hypot(*x)

    def decompose_coords(self, coords, tol: Tolerance):
        t, x = self._split(coords)
        r = self._radius(x)
        if r == 0.0:
            u = np.zeros(self._n)
            u[0] = 1.0  # deterministic direction for multiples of the unit
        else:
            u = x / r
        plus = np.concatenate(([0.5], 0.5 * u))
        minus = np.concatenate(([0.5], -0.5 * u))
        return [(t + r, plus), (t - r, minus)]

    def eigenvalues_coords(self, coords, tol: Tolerance) -> np.ndarray:
        t, x = self._split(coords)
        r = self._radius(x)
        return np.array([t + r, t - r])

    def atom_coords(self, param) -> np.ndarray:
        u = np.asarray(param, dtype=float)
        if u.shape != (self._n,):
            raise UnnormalizedParamError(f"direction must live in R^{self._n}")
        if abs(np.linalg.norm(u) - 1.0) > 1e-9:
            raise UnnormalizedParamError("spin atom direction must be a unit vector")
        return np.concatenate(([0.5], 0.5 * u))

    def atom_param_from_coords(self, coords, tol: Tolerance):
        t, x = self._split(coords)
        r = self._radius(x)
        if abs(t - 0.5) > 1e-7 or abs(r - 0.5) > 1e-7:
            raise NotAtomError("spin atoms have the form (1, u)/2 with |u| = 1")
        return x / r

    def random_atom_param(self, rng: np.random.Generator):
        u = rng.normal(size=self._n)
        return u / np.linalg.norm(u)

    def random_frame_params(self, rng: np.random.Generator):
        u = self.random_atom_param(rng)
        return [u, -u]

    def state_value(self, param, coords) -> float:
        t, x = self._split(coords)
        u = np.asarray(param, dtype=float)
        return float(t + np.dot(u, x))

    def native_pairing(self, ca, cb) -> float:
        # twice the ambient dot product; atoms then have unit self-pairing
        return float(2.0 * np.dot(ca, cb))
