"""Classical backend: R^n with the componentwise order.

Atoms are the standard basis vectors; an atom parameter is the basis index.
"""

from __future__ import annotations

import numpy as np

from ..elements import Tolerance
from ..errors import NotAtomError, UnnormalizedParamError
from .base import Model


class ClassicalModel(Model):
    kind = "classical"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("classical model needs n >= 1")
        self._n = int(n)

    @property
    def ambient_dim(self) -> int:
        return self._n

    @property
    def info_capacity(self) -> int:
        return self._n

    @property
    def param_items(self) -> tuple:
        return (("n", self._n),)

    def order_unit_coords(self) -> np.ndarray:
        return np.ones(self._n)

    def decompose_coords(self, coords, tol: Tolerance):
        order = np.argsort(-coords, kind="stable")
        out = []
        for idx in order:
            atom = np.zeros(self._n)
            atom[idx] = 1.0
            out.append((float(coords[idx]), atom))
        return out

    def eigenvalues_coords(self, coords, tol: Tolerance) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        return coords[np.argsort(-coords, kind="stable")]

    def atom_coords(self, param) -> np.ndarray:
        idx = int(param)
        if not 0 <= idx < self._n:
            raise UnnormalizedParamError(f"basis index {idx} out of range for n={self._n}")
        atom = np.zeros(self._n)
        atom[idx] = 1.0
        return atom

    def atom_param_from_coords(self, coords, tol: Tolerance):
        idx = int(np.argmax(coords))
        atom = np.zeros(self._n)
        atom[idx] = 1.0
        if np.max(np.abs(coords - atom)) > 1e-7:
            raise NotAtomError("classical atoms are exactly the standard basis vectors")
        return idx

    def random_atom_param(self, rng: np.random.Generator):
        return int(rng.integers(self._n))

    def random_frame_params(self, rng: np.random.Generator):
        return [int(i) for i in rng.permutation(self._n)]

    def state_value(self, param, coords) -> float:
        return float(coords[int(param)])

    def native_pairing(self, ca, cb) -> float:
        return float(np.dot(ca, cb))
