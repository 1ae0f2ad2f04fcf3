"""The quantum logic: extreme points of the unit interval as a lattice.

Elements of the logic have eigenvalues in {0, 1}.  Meet is computed
constructively: decompose q1 + q2 and keep the atoms whose eigenvalue
clusters at 2; join follows by De Morgan duality.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .backends.base import Model, logic_atoms
from .core import cone_contains
from .elements import DEFAULT_TOL, Element, Tolerance, resum
from .errors import InputError
from .spectral import DrawRecord, trial_rngs

NOT_IN_LOGIC = "element is not in the quantum logic (eigenvalues not in {0, 1})"


class MeetThresholdWarning(UserWarning):
    """Eigenvalues of q1 + q2 straddle the meet selection threshold."""


@dataclass(frozen=True)
class LogicElement:
    value: Element


def _unwrap(a) -> Element:
    return a.value if isinstance(a, LogicElement) else a


# The least cutoff the logic tests read, whatever eig_cluster says: the
# double rounding of the eigenvalues of a logic element (in [0, 1]) or of a
# sum of two (in [0, 2]), so that no cutoff calls a logic element's own
# rounding a defect.  Both tests read max(eig_cluster, this).
LOGIC_CLUSTER_FLOOR = 64 * np.finfo(float).eps


def logic_rows(eigs: np.ndarray, tol: Tolerance) -> np.ndarray:
    """For each spectrum of a (K, m) stack, or for one spectrum (m,): is
    every eigenvalue within eig_cluster (at least ``LOGIC_CLUSTER_FLOOR``)
    of 0 or of 1?  The test of ``is_logic_element``."""
    nearest = eigs.round()
    cutoff = max(tol.eig_cluster, LOGIC_CLUSTER_FLOOR)
    return ((abs(eigs - nearest) <= cutoff).all(axis=-1)
            & ((nearest == 0) | (nearest == 1)).all(axis=-1))


def is_logic_element(model: Model, a: Element, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every eigenvalue is within eig_cluster (at least
    ``LOGIC_CLUSTER_FLOOR``) of 0 or of 1."""
    return bool(logic_rows(model.eigenvalues(_unwrap(a), tol), tol))


def logic_element(model: Model, a: Element, tol: Tolerance = DEFAULT_TOL) -> LogicElement:
    if isinstance(a, LogicElement):
        return a
    a = _unwrap(a)
    if not is_logic_element(model, a, tol):
        raise InputError(NOT_IN_LOGIC)
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
    top = meet_coords(form.eigenvalues[np.newaxis], form.atom_coords[np.newaxis], tol)
    return LogicElement(model.element(top[0]))


def meet_coords(values: np.ndarray, atoms: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The meets (K, d) read off the frames (values (K, m), atoms (K, m, d))
    of K sums q1 + q2: each row sums, from zeros in frame order, the atoms
    whose eigenvalue reaches the selection threshold.  Each row with an
    eigenvalue near the threshold warns, in row order; the warning names the
    caller of this function's caller (for one frame, the caller of ``meet``).
    eig_cluster is read as at least ``LOGIC_CLUSTER_FLOOR``."""
    cluster = max(tol.eig_cluster, LOGIC_CLUSTER_FLOOR)
    threshold = 2.0 - 10.0 * cluster
    near = abs(values - threshold) < 5.0 * cluster
    for row in np.flatnonzero(near.any(axis=1)):
        warnings.warn(
            f"meet eigenvalues {list(values[row][near[row]])} lie within 5*eig_cluster of "
            f"the selection threshold {threshold}; result may be unreliable",
            MeetThresholdWarning,
            stacklevel=3,
        )
    # 1 * atom is the atom and 0 * atom a zero: the sums of the selected
    # atoms, the signs of zeros included
    top = (values >= threshold).astype(float)
    return resum(top, top, atoms)


def join(model: Model, q1, q2, tol: Tolerance = DEFAULT_TOL) -> LogicElement:
    """Least upper bound, by De Morgan duality from the meet."""
    c1 = orthocomplement(model, q1, tol)
    c2 = orthocomplement(model, q2, tol)
    return orthocomplement(model, meet(model, c1, c2, tol), tol)


def atomic_decomposition(model: Model, p, tol: Tolerance = DEFAULT_TOL) -> list[Element]:
    """Pairwise-orthogonal atoms summing to p, the frame atoms of eigenvalue
    above 1/2; empty for p = 0."""
    p = logic_element(model, p, tol)
    form = model.spectral_form(p.value, tol)
    return [model.element(atom) for atom in form.atom_coords[form.eigenvalues > 0.5]]


def information_capacity_empirical(
    model: Model, seed: int, trials: int, tol: Tolerance = DEFAULT_TOL
) -> int:
    """Size of the largest orthogonal atom family found by greedy extension.

    Each restart grows a family by decomposing the complement of its sum, so
    the search terminates at a maximal family.  The restarts step together:
    one ``decompose_batch`` per step over the remainders still growing, each
    restart picking its atoms from its own trial's "picks" stream.  The first
    step's atoms and frames are those of the seed's ``DrawRecord``, which a
    verify run shares with its atom-state checks.  The result is a
    consistency check against the analytic capacity, not a proof.
    """
    record = DrawRecord.of(model, seed, tol)
    # the unit minus each family, one atom subtracted at a time
    rests = model.order_unit().coords - record.rows("atom_coords", trials)
    values, atoms = record.rows("complement_frames", trials)
    rngs = trial_rngs(record, trials, "picks")
    sizes = np.ones(trials, dtype=int)
    running = np.arange(trials)
    while True:
        # the order norm, logic test and atom selection of each remainder
        live = np.abs(values).max(axis=1) > 1e-6
        running, values, atoms = running[live], values[live], atoms[live]
        if not logic_rows(values, tol).all():
            raise ValueError(f"a sampled {NOT_IN_LOGIC}")
        grows = []
        for k, top in zip(running.tolist(), logic_atoms(values, atoms)):
            if len(top):
                rests[k] = rests[k] - top[int(rngs[k].integers(len(top)))]
                grows.append(k)
        running = np.array(grows, dtype=int)
        sizes[running] += 1
        if not len(running):
            return int(sizes.max())
        values, atoms = model.decompose_batch(rests[running], tol)
