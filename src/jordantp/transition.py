"""Transition probabilities between atoms, states, the self-dualizing inner
product, and the sampling verifiers for the foundational properties.

The value P_e(a) of the unique state attaining 1 at atom e is always computed
backend-natively (trace pairing, spin pairing, point evaluation); uniqueness
of that state is analytic per backend and is only sampled here, never proven.
The axioms on atoms are verified once for models and self-dual cones alike
(see "atom-space verifiers" below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backends.base import Model, row_norms
from .core import cone_contains, order_norm, order_norms
from .elements import DEFAULT_TOL, Element, Tolerance, resum
from .errors import UnsupportedModelError
from .logic import NOT_IN_LOGIC, logic_rows
from .reports import CheckResult, skipped_check
from .spectral import random_coords_batch, trial_rng, worst


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
            raise ValueError(f"a state needs one weight per atom parameter, got "
                             f"{len(self.params)} parameters and {len(self.weights)} weights")
        if not all(map(math.isfinite, self.weights)):
            raise ValueError("state weights must be finite")

    def value(self, a: Element) -> float:
        self.model.check_element(a)
        return _mixture_value(self.model, self.params, self.weights, a.coords)

    __call__ = value


def state_of_atom(model: Model, e: Element) -> State:
    """The unique state with value 1 at the atom e."""
    return State(model, (atom_param(model, e),), (1.0,))


def mix_states(states: Sequence[State], weights: Sequence[float]) -> State:
    """Convex mixture of states of one model; the weights are normalised."""
    weights = np.asarray(weights, dtype=float)
    if len(states) == 0 or weights.shape != (len(states),):
        raise ValueError("a mixture needs one weight per state and at least one state")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("mixture weights must be finite and nonnegative")
    if weights.max() == 0.0:
        raise ValueError("mixture weights must not all be zero")
    weights = weights / weights.max()  # keeps the sum of huge weights finite
    weights = weights / weights.sum()
    model = states[0].model
    if any(s.model is not model for s in states):
        raise ValueError("states must share one model")
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
    mat = np.empty((k, k))
    for i, pi in enumerate(params):
        for j, pj in enumerate(params):
            mat[i, j] = model.transition_from_params(pi, pj)
    return TPMatrix(model, mat)


def tp_matrix(model: Model, atoms: Sequence[Element]) -> TPMatrix:
    if len(atoms) < 1:
        raise ValueError("need at least one atom")
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
                              b.coords[np.newaxis])[0])


def pairing_sums(model: Model, values: np.ndarray, atoms: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
    """``inner_product`` of K elements, given by their frames (values (K, m),
    atoms (K, m, d)), with the rows of ``targets`` (K, d): each frame
    resummed in the one coordinate <.|b>, so the terms s_j <e_j|b> add up in
    frame order from zero."""
    pairings = model.native_pairings(atoms, targets[:, np.newaxis])
    return resum(values, values, pairings[..., np.newaxis])[:, 0]


def check_inner_product(model: Model, seed: int, trials: int,
                        tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Symmetry, bilinearity, positive definiteness and atom pairing, and the
    norm equivalence |a| <= sqrt(<a|a>) <= sqrt(m) |a| on the same samples.

    Every trial's samples are rows of (trials, d) stacks: one
    ``decompose_batch`` gives all their frames and one ``pairing_sums`` all
    their pairings."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not model.symmetric_tp:
        raised = False
        try:
            inner_product(model, model.order_unit(), model.order_unit(), tol)
        except UnsupportedModelError:
            raised = True
        return [
            CheckResult("ip.unsupported_raises", 0.0 if raised else 1.0, 0.0,
                        note="non-symmetric model must reject the inner product"),
            *[skipped_check(f"ip.{name}", "model has no symmetric transition probability")
              for name in ("symmetry", "bilinearity", "positive_definite", "atom_pairing")],
            *[skipped_check(f"norms.{name}", "model has no inner product")
              for name in ("lower", "upper", "tightness")],
        ]

    m, d = model.info_capacity, model.ambient_dim
    rngs = [trial_rng(seed, k) for k in range(trials)]
    a, b, c = (random_coords_batch(model, rngs) for _ in range(3))
    alpha = np.array([rng.normal() for rng in rngs])
    p1 = model.random_atom_param_batch(rngs)
    p2 = model.random_atom_param_batch(rngs)
    e1, e2 = model.atom_coords_batch(p1), model.atom_coords_batch(p2)
    atom_tp = model.transitions_from_params(p1, p2)
    mixed = alpha[:, np.newaxis] * a + c
    values, atoms = model.decompose_batch(np.concatenate((a, b, mixed, c, e1)), tol)
    values, atoms = values.reshape(5, trials, -1), atoms.reshape(5, trials, -1, d)
    # <x|y> for the frame of x (by its place in the stack above) and y
    pairs = [(0, b), (1, a), (2, b), (3, b), (1, mixed), (1, c), (0, a), (4, e2)]
    frames = [x for x, _ in pairs]
    ab, ba, lhs, cb, lhs2, bc, aa, atom_ip = pairing_sums(
        model, values[frames].reshape(8 * trials, -1), atoms[frames].reshape(8 * trials, -1, d),
        np.concatenate([y for _, y in pairs])).reshape(8, trials)
    norm_a = order_norms(model, a, tol)
    hilbert = np.sqrt(np.where(0.0 > aa, 0.0, aa))  # max(aa, 0.0), NaN kept
    # Python's power: numpy's square differs from it in the last bit now and then
    definite = np.array([norm ** 2 for norm in norm_a.tolist()]) - aa
    unit = model.order_unit()
    unit_unit = inner_product(model, unit, unit, tol)
    # the upper bound is tight at the unit, the lower bound at atoms
    e = model.atom(model.random_atom_param(trial_rng(seed, trials)))
    tight_unit = abs(np.sqrt(unit_unit) - np.sqrt(m) * order_norm(model, unit, tol))
    tight_atom = max(abs(np.sqrt(inner_product(model, e, e, tol)) - 1.0),
                     abs(order_norm(model, e, tol) - 1.0))
    return [
        CheckResult("ip.symmetry", worst(np.abs(ab - ba)), tol.check_tol),
        CheckResult("ip.bilinearity", worst(np.abs(np.concatenate(
            (lhs - alpha * ab - cb, lhs2 - alpha * ba - bc)))), tol.check_tol),
        CheckResult("ip.positive_definite", worst(definite, -math.inf), tol.check_tol,
                    note="lower bound <a|a> >= |a|^2"),
        CheckResult("ip.atom_pairing", worst(np.abs(atom_ip - atom_tp)), tol.check_tol),
        CheckResult("ip.unit_pairing", abs(unit_unit - m), tol.check_tol,
                    note="<unit|unit> equals the information capacity"),
        CheckResult("norms.lower", worst(norm_a - hilbert), tol.check_tol),
        CheckResult("norms.upper", worst(hilbert - np.sqrt(m) * norm_a), tol.check_tol),
        CheckResult("norms.tightness", max(tight_unit, tight_atom), tol.check_tol,
                    note="upper bound tight at the unit, lower bound tight at atoms"),
    ]


# ---------------------------------------------------------------------------
# atom-space verifiers
#
# Each axiom on atoms is verified once, for models and self-dual cones alike.
# A verifier uses only what both supply: the batch samplers
# random_atom_param_batch and random_frame_params_batch, atom_coords_batch,
# atom_param_from_coords, state_values, transitions_from_params (and their
# per-element forms), info_capacity, complements (for each atom of a (K, d)
# stack, the atoms that complete it to a maximal family) and cone_defects
# (of each row of a stack).  Atoms enter as coordinate vectors;
# on a cone an atom is its own parameter and its state is the pairing.  A
# caller whose checks are pinned under other names passes them.
# ---------------------------------------------------------------------------


def _mixture_values(space, params, weights, coords: np.ndarray) -> np.ndarray:
    """Value at each row of a (K, d) stack of coordinates of a weighted sum
    of atom states: ``params[j]`` is the stack of the j-th atoms and
    ``weights[j]`` their weights, and the terms add up in that order from
    zero."""
    total = np.zeros(len(coords))
    for p, w in zip(params, weights):
        total = total + w * space.state_values(p, coords)
    return total


def _mixture_value(space, params, weights, coords) -> float:
    """Value at ``coords`` of the weighted sum of the atom states of ``params``."""
    return float(_mixture_values(space, [np.asarray(p)[np.newaxis] for p in params], weights,
                                 np.asarray(coords)[np.newaxis])[0])


def symmetry_defect(space, seed: int, trials: int) -> float:
    """Largest observed |P_{e1}(e2) - P_{e2}(e1)| over sampled atom pairs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rngs = [trial_rng(seed, k) for k in range(trials)]
    p1 = space.random_atom_param_batch(rngs)
    p2 = space.random_atom_param_batch(rngs)
    return worst(np.abs(space.transitions_from_params(p1, p2)
                        - space.transitions_from_params(p2, p1)))


def _random_bounded_mixtures(space, rngs: Sequence[np.random.Generator]):
    """Atom parameters and weights of a two-atom mixture from each generator,
    as stacks, whose atoms are boundedly non-parallel: neither transition
    probability exceeds 0.95.  Each generator draws its first atom, then
    candidates until one passes, then the weight of the first atom."""
    first = space.random_atom_param_batch(rngs)
    second = np.empty_like(first)
    pending = np.arange(len(rngs))
    for _ in range(500):
        if not len(pending):
            break
        cand = space.random_atom_param_batch([rngs[k] for k in pending])
        passed = ((space.transitions_from_params(first[pending], cand) <= 0.95)
                  & (space.transitions_from_params(cand, first[pending]) <= 0.95))
        second[pending[passed]] = cand[passed]
        pending = pending[~passed]
    if len(pending):
        raise RuntimeError("could not sample a boundedly mixed state")
    lam = np.array([rng.uniform(0.2, 0.8) for rng in rngs])
    return (first, second), (lam, 1.0 - lam)


def verify_atom_state_uniqueness(space, seed: int, trials: int,
                                 tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Sampled evidence that P_e is the only state attaining 1 at atom e.

    Mixed states stay boundedly below 1 at every sampled atom; exact
    uniqueness is analytic per backend and recorded as assumed.  The
    complements of every trial's atom come from one ``complements`` call.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rngs = [trial_rng(seed, k) for k in range(trials)]
    params = space.random_atom_param_batch(rngs)
    atoms = space.atom_coords_batch(params)
    checks = [CheckResult("states.atom_state_attains_one",
                          worst(np.abs(space.state_values(params, atoms) - 1.0)), tol.check_tol)]
    if space.info_capacity < 2:
        return checks + [skipped_check(name, "capacity-1 model has a single state")
                         for name in ("states.mixed_states_below_one",
                                      "states.half_mixture_value")]
    # each trial's generator draws its mixture once every trial has its atom
    mixed = _mixture_values(space, *_random_bounded_mixtures(space, rngs), atoms)
    # half/half mixture with an orthogonal atom evaluates to one half
    comps = space.complements(atoms, tol)
    rows = [k for k, comp in enumerate(comps) if len(comp)]
    half_defect = 0.0
    if rows:
        others = np.array([space.atom_param_from_coords(comps[k][0]) for k in rows])
        half_defect = worst(np.abs(_mixture_values(
            space, (params[rows], others), (0.5, 0.5), atoms[rows]) - 0.5))
    return checks + [
        CheckResult("states.mixed_states_below_one", worst(mixed), 1.0 - 1e-6,
                    note="uniqueness is analytic per backend; sampled evidence only"),
        CheckResult("states.half_mixture_value", half_defect, tol.check_tol),
    ]


UNITY_NAMES = {"columns": "unity.family_pairings_sum_to_one",
               "shared_sum": "unity.families_share_one_sum"}


def verify_unity_resolution(space, seed: int, trials: int, tol: Tolerance = DEFAULT_TOL,
                            names: dict = UNITY_NAMES) -> list[CheckResult]:
    """Every maximal orthogonal atom family resolves unity.

    For a sampled family f and a further atom x the measures are ``rows``,
    |P_x(sum f) - 1|; ``columns``, |sum P_f(x) - 1|; and ``shared_sum``, the
    distance of sum f from the first family's sum.  ``names`` maps each
    measure the caller reports to its check name.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rngs = [trial_rng(seed, k) for k in range(trials)]
    frames = space.random_frame_params_batch(rngs)
    extra = space.random_atom_param_batch(rngs)
    ones = np.ones(frames.shape[:2])
    total = resum(ones, ones, space.atom_coords_batch(frames))
    columns = np.zeros(trials)
    for j in range(frames.shape[1]):
        columns += space.transitions_from_params(frames[:, j], extra)
    measured = {"rows": worst(np.abs(space.state_values(extra, total) - 1.0)),
                "columns": worst(np.abs(columns - 1.0)),
                "shared_sum": worst(row_norms(total - total[0]))}
    return [CheckResult(name, measured[key], tol.check_tol) for key, name in names.items()]


def verify_certainty_order(space, seed: int, trials: int, tol: Tolerance = DEFAULT_TOL,
                           names: tuple = ("certainty.state_attains_one",
                                           "certainty.atom_below_effect")) -> list[CheckResult]:
    """If a state is certain of an effect in [0, unit], its atom lies below it.

    Positive cases are constructed as the atom plus convex junk on its
    complement family, so the effect lies in [0, unit].  The checks are the
    atom state's distance from 1 at the effect, and the distance of effect
    minus atom from the cone; the complements and the cone defects of all
    trials come from one stack call each.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # each trial's generator draws the atom now and the junk weights once
    # the complements of every trial's atom are known
    rngs = [trial_rng(seed, k) for k in range(trials)]
    params = space.random_atom_param_batch(rngs)
    atoms = space.atom_coords_batch(params)
    comps = space.complements(atoms, tol)
    # a shorter complement is padded with weight -0.0 on a zero atom: the
    # product -0.0 leaves every sum unchanged, signed zeros included
    weights = np.full((trials, max(map(len, comps))), -0.0)
    junk = np.zeros(weights.shape + (space.ambient_dim,))
    for k, (rng, comp) in enumerate(zip(rngs, comps)):
        weights[k, :len(comp)] = rng.uniform(size=len(comp))
        junk[k, :len(comp)] = np.reshape(comp, (len(comp), space.ambient_dim))
    effects = atoms.copy()
    for j in range(weights.shape[1]):
        effects += weights[:, j, np.newaxis] * junk[:, j]
    value_defect = worst(np.abs(space.state_values(params, effects) - 1.0))
    order_defect = worst(space.cone_defects(effects - atoms, tol))
    return [CheckResult(names[0], value_defect, tol.check_tol),
            CheckResult(names[1], order_defect, tol.cone_slack)]


# ---------------------------------------------------------------------------
# model-only state verifiers
# ---------------------------------------------------------------------------


def verify_pure_state_sampling(model: Model, seed: int, trials: int) -> list[CheckResult]:
    """Sampled check that atom states sit outside the hull of mixed states.

    This is the extreme-point side of the pure-state postulate on a small
    discretization of the state space; it is recorded as sampled, not proven.
    """
    if model.info_capacity < 2:
        return [skipped_check("states.pure_states_extremal",
                              "capacity-1 model has a single state")]

    import scipy.optimize

    rng = trial_rng(seed, 0)
    # the mixtures of the cloud come one after another from one generator
    pairs, weights = zip(*(_random_bounded_mixtures(model, [rng])
                           for _ in range(min(max(trials, 8), 64))))
    cloud = _state_vectors(model, [np.concatenate(ps) for ps in zip(*pairs)],
                           [np.concatenate(ws) for ws in zip(*weights)])
    pures = _state_vectors(model, [model.random_atom_param_batch(
        [trial_rng(seed, k + 1) for k in range(8)])], [np.ones(8)])
    min_residual = np.inf
    for pure in pures:
        # distance from the pure state to the convex hull of the cloud,
        # via nonnegative least squares with a penalized sum-to-one row
        scale = 1e3
        stacked = np.vstack([cloud.T, scale * np.ones(len(cloud))])
        target = np.concatenate([pure, [scale]])
        coeffs, _ = scipy.optimize.nnls(stacked, target)
        min_residual = min(min_residual, float(np.linalg.norm(cloud.T @ coeffs - pure)))
    return [CheckResult("states.pure_states_extremal",
                        max(0.0, 1e-3 - min_residual), 0.0,
                        note="sampled, not proven")]


def _state_vectors(model: Model, params, weights) -> np.ndarray:
    """The values at the ambient basis vectors of N states, one row each:
    state i is the sum over j of weights[j][i] P_{params[j][i]}."""
    d = model.ambient_dim
    basis = np.tile(np.eye(d), (len(weights[0]), 1))
    return _mixture_values(model, [np.repeat(p, d, axis=0) for p in params],
                           [np.repeat(w, d) for w in weights], basis).reshape(-1, d)


def verify_strong_state_space(model: Model, seed: int, trials: int,
                              tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Contrapositive sampling surrogate for strongness of the state space.

    For sampled logic pairs with p not below q, a witness state certain of p
    but not of q is sought among the atoms of p.  This is a testable
    surrogate, not a global certificate.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rngs = [trial_rng(seed, k) for k in range(trials)]
    ps = random_coords_batch(model, rngs, "logic")
    qs = random_coords_batch(model, rngs, "logic")
    # the atoms of every p, as atomic_decomposition finds them: the frame
    # atoms of eigenvalue above 1/2 (its rule that an order norm at most
    # check_tol has none adds nothing once each eigenvalue is near 0 or 1)
    if not logic_rows(model.eigenvalues_batch(ps, tol), tol).all():
        raise RuntimeError(f"a sampled {NOT_IN_LOGIC}")  # a fault, not bad input
    values, frames = model.decompose_batch(ps, tol)
    atoms = [frame[row > 0.5] for row, frame in zip(values, frames)]
    # P_e(q) and P_e(p) for every atom e of every p, split by trial
    owner = np.repeat(np.arange(trials), [len(a) for a in atoms])
    at_q = at_p = np.empty(0)
    if len(owner):
        params = np.array([model.atom_param_from_coords(e) for a in atoms for e in a])
        at_q, at_p = (model.state_values(params, x[owner]) for x in (qs, ps))
    splits = np.cumsum([len(a) for a in atoms])[:-1]
    consistency = 0.0
    witness_missing = 0
    witness_level = 0.0
    worst_margin = 0.0
    comparable = 0
    for k, (margins, at_p_k) in enumerate(zip(np.split(1.0 - at_q, splits),
                                              np.split(at_p, splits))):
        if cone_contains(model, model.element(qs[k] - ps[k]), tol):
            comparable += 1
            consistency = worst(margins, consistency)
            continue
        # the first atom of p, in frame order, whose margin clears 1e-6
        found = np.flatnonzero(margins > 1e-6)
        if len(found):
            witness_level = max(witness_level, float(1.0 - at_p_k[found[0]]))
        else:
            witness_missing += 1
            worst_margin = max(worst_margin, worst(margins))
    incomparable = trials - comparable
    note = f"{incomparable} incomparable pairs; sampling surrogate, not a global certificate"
    if witness_missing:
        note += (f"; {witness_missing} pairs had no atom with margin 1 - P_e(q) above "
                 f"1e-6 (best margin seen {worst_margin:.3e})")
    return [
        CheckResult("strong.comparable_consistency", consistency, 10.0 * tol.check_tol,
                    note=f"{comparable} comparable pairs"),
        CheckResult("strong.witness_found", float(witness_missing), 0.0, note=note),
        CheckResult("strong.witness_certain_of_p", witness_level, tol.check_tol),
    ]
