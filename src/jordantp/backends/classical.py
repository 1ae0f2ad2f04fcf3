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
        return coords[order], np.eye(self._n)[order]

    def _frames(self, stack, tol: Tolerance):
        order = np.argsort(-stack, axis=1, kind="stable")
        return np.take_along_axis(stack, order, axis=1), np.eye(self._n)[order]

    def eigenvalues_coords(self, coords, tol: Tolerance) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        return coords[np.argsort(-coords, kind="stable")]

    def eigenvalues_batch(self, stack, tol: Tolerance) -> np.ndarray:
        return np.take_along_axis(stack, np.argsort(-stack, axis=1, kind="stable"), axis=1)

    def cone_oracle(self, coords, slack: float) -> bool:
        return bool(coords.min() >= -slack)

    def split_orthogonal_coords(self, coords, tol: Tolerance):
        support = np.flatnonzero(np.abs(coords) > tol.check_tol)
        if len(support) <= 1:
            return None
        head = np.zeros_like(coords)
        head[support[0]] = coords[support[0]]
        return head, coords - head

    param_ndim = 0
    _not_a_param = "basis index must be an integer, got {!r}"

    def _indices(self, params) -> np.ndarray:
        """The basis indices named by a stack of atom parameters.  Raises
        UnnormalizedParamError unless each is an integer in [0, n); a bool is
        not an index, and a negative one does not count from the end."""
        idx = np.asarray(params)
        if idx.dtype.kind not in "iuf":
            raise UnnormalizedParamError(self._not_a_param.format(params))
        if idx.dtype.kind == "f":
            fractional = np.floor(idx) != idx  # NaN included
            if fractional.any():
                raise UnnormalizedParamError(self._not_a_param.format(idx[fractional][0].item()))
        if idx.size and (idx.min() < 0 or idx.max() >= self._n):
            outside = (idx < 0) | (idx >= self._n)
            raise UnnormalizedParamError(
                f"basis index {idx[outside][0].item():.0f} out of range for n={self._n}")
        return idx.astype(np.intp, copy=False)

    def atom_coords_batch(self, params) -> np.ndarray:
        return np.eye(self._n)[self._indices(params)]

    def atom_param_from_coords(self, coords):
        idx = int(np.argmax(coords))
        atom = np.zeros(self._n)
        atom[idx] = 1.0
        if np.max(np.abs(coords - atom)) > 1e-7:
            raise NotAtomError("classical atoms are exactly the standard basis vectors")
        return idx

    def random_atom_param_batch(self, rngs) -> np.ndarray:
        return np.array([rng.integers(self._n) for rng in rngs], dtype=np.intp)

    def random_frame_params_batch(self, rngs) -> np.ndarray:
        return np.array([rng.permutation(self._n) for rng in rngs],
                        dtype=np.intp).reshape(len(rngs), self._n)

    def state_values(self, params, coords) -> np.ndarray:
        idx = self._indices(params)
        if idx.shape != np.shape(coords)[:-1]:  # one index per row
            raise UnnormalizedParamError(self._not_a_param.format(params))
        return np.take_along_axis(coords, idx[:, np.newaxis], axis=1)[:, 0]

    def native_pairings(self, stack_a, stack_b) -> np.ndarray:
        return np.vecdot(stack_a, stack_b)
