"""Model-independent element arithmetic, cone/order queries and norms.

Everything here is defined through the backend's spectral decomposition
(membership and norm through eigenvalues), so there is a single source of
truth per model.  All functions are pure.
"""

from __future__ import annotations

import numpy as np

from .backends.base import Model
from .elements import DEFAULT_TOL, Element, Tolerance


def cone_contains(model: Model, a: Element, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Positivity test: true iff ``model.cone_defect`` is at most cone_slack."""
    return model.cone_defect(a, tol) <= tol.cone_slack


def order_norm(model: Model, a: Element, tol: Tolerance = DEFAULT_TOL) -> float:
    """Order unit norm: the largest eigenvalue magnitude."""
    eigs = model.eigenvalues(a, tol)
    return float(abs(eigs).max())


def order_norms(model: Model, stack: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """``order_norm`` of each row of a (K, d) stack of coordinates, bit for bit."""
    return np.abs(model.eigenvalues_batch(stack, tol)).max(axis=1)


def in_unit_interval(model: Model, a: Element, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff all eigenvalues lie in [-cone_slack, 1 + cone_slack]."""
    eigs = model.eigenvalues(a, tol)
    return bool(eigs.min() >= -tol.cone_slack and eigs.max() <= 1.0 + tol.cone_slack)
