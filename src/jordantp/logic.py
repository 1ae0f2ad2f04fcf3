"""The quantum logic: extreme points of the unit interval as a lattice.

Elements of the logic have eigenvalues in {0, 1}.  Meet is computed
constructively: decompose q1 + q2 and keep the atoms whose eigenvalue
clusters at 2; join follows by De Morgan duality.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .backends.base import Model
from .core import cone_contains, order_norm
from .elements import DEFAULT_TOL, Element, Tolerance
from .spectral import trial_rng


class MeetThresholdWarning(UserWarning):
    """Eigenvalues of q1 + q2 straddle the meet selection threshold."""


@dataclass(frozen=True)
class LogicElement:
    value: Element


def _unwrap(a) -> Element:
    return a.value if isinstance(a, LogicElement) else a


def is_logic_element(model: Model, a: Element, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every eigenvalue is within eig_cluster of 0 or of 1."""
    eigs = model.eigenvalues(_unwrap(a), tol)
    nearest = eigs.round()
    return bool((abs(eigs - nearest) <= tol.eig_cluster).all()
                and ((nearest == 0) | (nearest == 1)).all())


def logic_element(model: Model, a: Element, tol: Tolerance = DEFAULT_TOL) -> LogicElement:
    if isinstance(a, LogicElement):
        return a
    a = _unwrap(a)
    if not is_logic_element(model, a, tol):
        raise ValueError("element is not in the quantum logic (eigenvalues not in {0, 1})")
    return LogicElement(a)


def orthocomplement(model: Model, p, tol: Tolerance = DEFAULT_TOL) -> LogicElement:
    """p' = order unit minus p; an involution on the logic."""
    p = logic_element(model, p, tol)
    return LogicElement(model.order_unit() - p.value)


def is_orthogonal_family(model: Model, ps, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the family sums below the order unit (within cone_slack)."""
    total = model.zero()
    for p in ps:
        total = total + _unwrap(p)
    return cone_contains(model, model.order_unit() - total, tol)


def meet(model: Model, q1, q2, tol: Tolerance = DEFAULT_TOL) -> LogicElement:
    """Greatest lower bound via the spectral top cluster of q1 + q2.

    The spectrum of q1 + q2 lies in [0, 2]; atoms with eigenvalue at 2 span
    the meet.  Eigenvalues close to the selection threshold are reported via
    MeetThresholdWarning instead of being silently classified.
    """
    q1 = logic_element(model, q1, tol)
    q2 = logic_element(model, q2, tol)
    form = model.spectral_form(q1.value + q2.value, tol)
    threshold = 2.0 - 10.0 * tol.eig_cluster
    straddling = [
        s for s in form.eigenvalues if abs(s - threshold) < 5.0 * tol.eig_cluster
    ]
    if straddling:
        warnings.warn(
            f"meet eigenvalues {straddling} lie within 5*eig_cluster of the "
            f"selection threshold {threshold}; result may be unreliable",
            MeetThresholdWarning,
            stacklevel=2,
        )
    # summed from zeros in frame order, which keeps the signs of zeros
    top = form.atom_coords[form.eigenvalues >= threshold]
    return LogicElement(model.element(sum(top, np.zeros(model.ambient_dim))))


def join(model: Model, q1, q2, tol: Tolerance = DEFAULT_TOL) -> LogicElement:
    """Least upper bound, by De Morgan duality from the meet."""
    c1 = orthocomplement(model, q1, tol)
    c2 = orthocomplement(model, q2, tol)
    return orthocomplement(model, meet(model, c1, c2, tol), tol)


def atomic_decomposition(model: Model, p, tol: Tolerance = DEFAULT_TOL) -> list[Element]:
    """Pairwise-orthogonal atoms summing to p; empty for p = 0."""
    p = logic_element(model, p, tol)
    if order_norm(model, p.value, tol) <= tol.check_tol:
        return []
    form = model.spectral_form(p.value, tol)
    return [pair.atom for pair in form.pairs if pair.eigenvalue > 0.5]


def information_capacity_empirical(
    model: Model, seed: int, trials: int, tol: Tolerance = DEFAULT_TOL
) -> int:
    """Size of the largest orthogonal atom family found by greedy extension.

    Each restart grows a family by decomposing the complement of its sum, so
    the search terminates at a maximal family.  The result is a consistency
    check against the analytic capacity, not a proof.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    unit = model.order_unit()
    best = 0
    for k in range(trials):
        rng = trial_rng(seed, k)
        family = [model.atom(model.random_atom_param(rng))]
        while True:
            rest = unit
            for e in family:
                rest = rest - e
            if order_norm(model, rest, tol) <= 1e-6:
                break
            atoms = atomic_decomposition(model, rest, tol)
            if not atoms:
                break
            family.append(atoms[int(rng.integers(len(atoms)))])
        best = max(best, len(family))
    return best
