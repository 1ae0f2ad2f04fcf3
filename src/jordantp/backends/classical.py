"""Classical backend: R^n with the componentwise order.

Atoms are the standard basis vectors; an atom parameter is the basis index.
"""

from __future__ import annotations

import numpy as np

from ..elements import Tolerance
from ..errors import InputError, NotAtomError, UnnormalizedParamError
from .base import Model


class ClassicalModel(Model):
    kind = "classical"

    def __init__(self, n: int):
        if n < 1:
            raise InputError("classical model needs n >= 1")
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

    def _frames(self, stack, tol: Tolerance):
        order = np.argsort(-stack, axis=1, kind="stable")
        return stack[np.arange(len(stack))[:, np.newaxis], order], np.eye(self._n)[order]

    def _eigenvalues(self, stack, tol: Tolerance) -> np.ndarray:
        order = np.argsort(-stack, axis=1, kind="stable")
        return stack[np.arange(len(stack))[:, np.newaxis], order]

    def cone_oracle(self, coords, slack: float) -> bool:
        return bool(coords.min() >= -slack)

    def split_orthogonal_batch(self, stack, tol: Tolerance):
        # the head is the first coordinate of the support
        support = np.abs(stack) > tol.check_tol
        rows, first = np.arange(len(stack)), np.argmax(support, axis=1)
        heads = np.zeros_like(stack)
        heads[rows, first] = stack[rows, first]
        return heads, stack - heads, np.count_nonzero(support, axis=1) <= 1

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

    def atom_params_from_coords(self, stack) -> np.ndarray:
        idx = stack.argmax(axis=1)
        if (np.abs(stack - np.eye(self._n)[idx]).max(axis=1) > 1e-7).any():
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
        return coords[np.arange(len(idx)), idx]

    def native_pairings(self, stack_a, stack_b) -> np.ndarray:
        return np.vecdot(stack_a, stack_b)
