"""Transition probabilities between atoms, states and the self-dualizing
inner product.

The value P_e(a) of the unique state attaining 1 at atom e is always computed
backend-natively (trace pairing, spin pairing, point evaluation); uniqueness
of that state is analytic per backend and is only sampled, never proven, by
the verifiers in ``suites``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backends.base import AtomSpace, Model
from .elements import DEFAULT_TOL, Element, Tolerance, resum
from .errors import InputError, UnsupportedModelError


def atom_param(model: Model, e: Element):
    """Defining parameter of an atom element; raises NotAtomError otherwise."""
    model.check_element(e)
    return model.atom_param_from_coords(e.coords)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class State:
    """Convex combination sum_i w_i P_{e_i} of atom states, stored as the
    atom parameters and the weights."""

    model: Model
    params: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.params) != len(self.weights):
            raise InputError(f"a state needs one weight per atom parameter, got "
                             f"{len(self.params)} parameters and {len(self.weights)} weights")
        if not all(map(math.isfinite, self.weights)):
            raise InputError("state weights must be finite")

    def value(self, a: Element) -> float:
        self.model.check_element(a)
        return _mixture_value(self.model, self.params, self.weights, a.coords)

    __call__ = value


def mixture_values(space: AtomSpace, params, weights, coords: np.ndarray) -> np.ndarray:
    """Value at each row of a (K, d) stack of coordinates of a weighted sum
    of atom states: ``params[j]`` is the stack of the j-th atoms and
    ``weights[j]`` their weights, and the terms add up in that order from
    zero."""
    total = np.zeros(len(coords))
    for p, w in zip(params, weights):
        total = total + w * space.state_values(p, coords)
    return total


def _mixture_value(space: AtomSpace, params, weights, coords) -> float:
    """Value at ``coords`` of the weighted sum of the atom states of ``params``."""
    return float(mixture_values(space, [np.asarray(p)[np.newaxis] for p in params], weights,
                                np.asarray(coords)[np.newaxis])[0])


def state_of_atom(model: Model, e: Element) -> State:
    """The unique state with value 1 at the atom e."""
    return State(model, (atom_param(model, e),), (1.0,))


def mix_states(states: Sequence[State], weights: Sequence[float]) -> State:
    """Convex mixture of states of one model; the weights are normalised."""
    weights = np.asarray(weights, dtype=float)
    if len(states) == 0 or weights.shape != (len(states),):
        raise InputError("a mixture needs one weight per state and at least one state")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise InputError("mixture weights must be finite and nonnegative")
    if weights.max() == 0.0:
        raise InputError("mixture weights must not all be zero")
    weights = weights / weights.max()  # keeps the sum of huge weights finite
    weights = weights / weights.sum()
    model = states[0].model
    if any(s.model is not model for s in states):
        raise InputError("states must share one model")
    return State(model, tuple(p for s in states for p in s.params),
                 tuple(float(w * v) for w, s in zip(weights, states) for v in s.weights))


# ---------------------------------------------------------------------------
# transition probabilities
# ---------------------------------------------------------------------------


def transition_prob(model: Model, e1: Element, e2: Element) -> float:
    """P_{e1}(e2): the state of e1 evaluated at e2.  Not symmetric in general."""
    return model.transition_from_params(atom_param(model, e1), atom_param(model, e2))


@dataclass(frozen=True, eq=False)
class TPMatrix:
    """Matrix of transition probabilities T[i][j] = P_{e_i}(e_j)."""

    model: Model
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float).copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def symmetry_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.T))) if self.size else 0.0

    def to_csv(self) -> str:
        from .reports import format_double

        labels = [f"e{i}" for i in range(self.size)]
        lines = [",".join(labels)]
        for row in self.matrix:
            lines.append(",".join(format_double(v) for v in row))
        return "\n".join(lines) + "\n"


def tp_matrix_from_params(model: Model, params: Sequence) -> TPMatrix:
    k = len(params)
    if k < 1:
        raise InputError("need at least one atom")
    mat = np.empty((k, k))
    for i, pi in enumerate(params):
        for j, pj in enumerate(params):
            mat[i, j] = model.transition_from_params(pi, pj)
    return TPMatrix(model, mat)


def tp_matrix(model: Model, atoms: Sequence[Element]) -> TPMatrix:
    return tp_matrix_from_params(model, [atom_param(model, e) for e in atoms])


# ---------------------------------------------------------------------------
# the self-dualizing inner product (symmetric models only)
# ---------------------------------------------------------------------------


def inner_product(model: Model, a: Element, b: Element, tol: Tolerance = DEFAULT_TOL) -> float:
    """<a|b> = sum of s_k P_{e_k}(b) over a spectral frame of a.

    Only defined when the transition probability is symmetric; the pairing
    then agrees with P on atoms and self-dualizes the positive cone.
    """
    if not model.symmetric_tp:
        raise UnsupportedModelError(
            f"inner product requires a symmetric transition probability; "
            f"model {model.descriptor.to_json()} is not symmetric"
        )
    form = model.spectral_form(a, tol)
    return float(pairing_sums(model, form.eigenvalues[np.newaxis], form.atom_coords[np.newaxis],
                              model.check_element(b).coords[np.newaxis])[0])


def pairing_sums(model: Model, values: np.ndarray, atoms: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
    """``inner_product`` of K elements, given by their frames (values (K, m),
    atoms (K, m, d)), with the rows of ``targets`` (K, d): each frame
    resummed in the one coordinate <.|b>, so the terms s_j <e_j|b> add up in
    frame order from zero."""
    pairings = model.native_pairings(atoms, targets[:, np.newaxis])
    return resum(values, values, pairings[..., np.newaxis])[:, 0]
