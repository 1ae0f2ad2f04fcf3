"""Spin factor backend: R + R^n with eigenvalues t plus/minus |x|.

Coordinates are (t, x_1, ..., x_n); the state space is the Euclidean unit
ball, the information capacity is 2 regardless of n, and atoms are
(1, u) / 2 for unit directions u.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InputError, NotAtomError, UnnormalizedParamError
from .base import normal_draws, row_norms
from .qubit import _QubitModel, half_atom


class SpinFactorModel(_QubitModel):
    kind = "spin"

    def __init__(self, n: int):
        if n < 1:
            raise InputError("spin factor needs n >= 1")
        super().__init__(n)

    @property
    def param_items(self) -> tuple:
        return (("n", self._n),)

    def _radii(self, xs) -> np.ndarray:
        # a hypot per row: numpy's hypot.reduce rounds differently, and hypot
        # scales instead of squaring, so |x| is finite whenever it is
        # representable (np.linalg.norm overflows from about 1.3e154)
        return np.array([math.hypot(*x) for x in xs.tolist()])

    def cone_oracle(self, coords, slack: float) -> bool:
        return bool(coords[0] - np.linalg.norm(coords[1:]) >= -slack)

    def atom_coords_batch(self, params) -> np.ndarray:
        u = np.asarray(params, dtype=float)
        if u.shape[-1:] != (self._n,):
            raise UnnormalizedParamError(f"direction must live in R^{self._n}")
        if np.any(np.abs(row_norms(u) - 1.0) > 1e-9):
            raise UnnormalizedParamError("spin atom direction must be a unit vector")
        return half_atom(u)

    def atom_params_from_coords(self, stack) -> np.ndarray:
        xs = stack[:, 1:]
        r = self._radii(xs)
        if ((np.abs(stack[:, 0] - 0.5) > 1e-7) | (np.abs(r - 0.5) > 1e-7)).any():
            raise NotAtomError("spin atoms have the form (1, u)/2 with |u| = 1")
        return xs / r[:, np.newaxis]

    def random_atom_param_batch(self, rngs) -> np.ndarray:
        u = normal_draws(rngs, (self._n,))
        return u / row_norms(u)[:, np.newaxis]
