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

from .backends.base import Model
from .core import cone_contains, order_norm, order_norms
from .elements import DEFAULT_TOL, Element, Tolerance, resum
from .errors import UnsupportedModelError
from .logic import NOT_IN_LOGIC, logic_rows
from .reports import CheckResult, skipped_check
from .spectral import _random_coords, _random_element, trial_rng, worst


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
    samples = np.empty((5, trials, d))  # a, b, c and the atoms e1, e2
    alpha = np.empty(trials)
    atom_tp = np.empty(trials)
    for k in range(trials):
        rng = trial_rng(seed, k)
        for j in range(3):
            samples[j, k] = _random_coords(model, rng)
        alpha[k] = rng.normal()
        e1 = model.random_atom_param(rng)
        e2 = model.random_atom_param(rng)
        samples[3, k] = model.atom_coords(e1)
        samples[4, k] = model.atom_coords(e2)
        atom_tp[k] = model.transition_from_params(e1, e2)
    a, b, c, e1, e2 = samples
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
        CheckResult("ip.positive_definite", max([-np.inf, *definite.tolist()]), tol.check_tol,
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
# A verifier uses only what both supply: random_atom_param,
# random_frame_params, atom_coords, atom_param_from_coords, state_value,
# transition_from_params, info_capacity, complements (for each atom of a
# (K, d) stack, the atoms that complete it to a maximal family) and
# cone_defects (of each row of a stack).  Atoms enter as coordinate vectors;
# on a cone an atom is its own parameter and its state is the pairing.  A
# caller whose checks are pinned under other names passes them.
# ---------------------------------------------------------------------------


def _mixture_value(space, params, weights, coords) -> float:
    """Value at ``coords`` of the weighted sum of the atom states of ``params``."""
    return float(sum(w * space.state_value(p, coords) for p, w in zip(params, weights)))


def symmetry_defect(space, seed: int, trials: int) -> float:
    """Largest observed |P_{e1}(e2) - P_{e2}(e1)| over sampled atom pairs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    worst = 0.0
    for k in range(trials):
        rng = trial_rng(seed, k)
        p1 = space.random_atom_param(rng)
        p2 = space.random_atom_param(rng)
        worst = max(worst, abs(space.transition_from_params(p1, p2)
                               - space.transition_from_params(p2, p1)))
    return worst


def _random_bounded_mixture(space, rng: np.random.Generator):
    """Atom parameters and weights of a two-atom mixture whose atoms are
    boundedly non-parallel: neither transition probability exceeds 0.95."""
    p1 = space.random_atom_param(rng)
    p2 = None
    for _ in range(500):
        cand = space.random_atom_param(rng)
        if (space.transition_from_params(p1, cand) <= 0.95
                and space.transition_from_params(cand, p1) <= 0.95):
            p2 = cand
            break
    if p2 is None:
        raise RuntimeError("could not sample a boundedly mixed state")
    lam = float(rng.uniform(0.2, 0.8))
    return (p1, p2), (lam, 1.0 - lam)


def verify_atom_state_uniqueness(space, seed: int, trials: int,
                                 tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Sampled evidence that P_e is the only state attaining 1 at atom e.

    Mixed states stay boundedly below 1 at every sampled atom; exact
    uniqueness is analytic per backend and recorded as assumed.  The
    complements of every trial's atom come from one ``complements`` call.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    self_defect = 0.0
    mixed_max = 0.0
    can_mix = space.info_capacity >= 2
    params, atoms = [], []
    for k in range(trials):
        rng = trial_rng(seed, k)
        params.append(space.random_atom_param(rng))
        atoms.append(space.atom_coords(params[-1]))
        self_defect = max(self_defect, abs(space.state_value(params[-1], atoms[-1]) - 1.0))
        if can_mix:
            mixed_max = max(mixed_max, _mixture_value(
                space, *_random_bounded_mixture(space, rng), atoms[-1]))
    checks = [CheckResult("states.atom_state_attains_one", self_defect, tol.check_tol)]
    if not can_mix:
        return checks + [skipped_check(name, "capacity-1 model has a single state")
                         for name in ("states.mixed_states_below_one",
                                      "states.half_mixture_value")]
    # half/half mixture with an orthogonal atom evaluates to one half
    half_defect = 0.0
    for ep, e, comp in zip(params, atoms, space.complements(np.array(atoms), tol)):
        if len(comp):
            half = (ep, space.atom_param_from_coords(comp[0]))
            half_defect = max(half_defect, abs(_mixture_value(space, half, (0.5, 0.5), e) - 0.5))
    return checks + [
        CheckResult("states.mixed_states_below_one", mixed_max, 1.0 - 1e-6,
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
    rows = columns = shared_sum = 0.0
    reference = None
    for k in range(trials):
        rng = trial_rng(seed, k)
        frame = space.random_frame_params(rng)
        extra = space.random_atom_param(rng)
        total = sum(space.atom_coords(f) for f in frame)
        if reference is None:
            reference = total
        rows = max(rows, abs(space.state_value(extra, total) - 1.0))
        columns = max(columns, abs(
            sum(space.transition_from_params(f, extra) for f in frame) - 1.0))
        shared_sum = max(shared_sum, float(np.linalg.norm(total - reference)))
    measured = {"rows": rows, "columns": columns, "shared_sum": shared_sum}
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
    params = [space.random_atom_param(rng) for rng in rngs]
    atoms = np.array([space.atom_coords(ep) for ep in params])
    effects = []
    value_defect = 0.0
    for ep, e, rng, comp in zip(params, atoms, rngs, space.complements(atoms, tol)):
        a = e
        for f in comp:
            a = a + float(rng.uniform()) * f
        effects.append(a)
        value_defect = max(value_defect, abs(space.state_value(ep, a) - 1.0))
    order_defect = worst(space.cone_defects(np.array(effects) - atoms, tol))
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

    basis = [model.element(row) for row in np.eye(model.ambient_dim)]

    def state_vec(state: State) -> np.ndarray:
        return np.array([state.value(b) for b in basis])

    rng = trial_rng(seed, 0)
    cloud = np.array([state_vec(State(model, *_random_bounded_mixture(model, rng)))
                      for _ in range(min(max(trials, 8), 64))])
    min_residual = np.inf
    for k in range(8):
        rng = trial_rng(seed, k + 1)
        pure = state_vec(State(model, (model.random_atom_param(rng),), (1.0,)))
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


def verify_strong_state_space(model: Model, seed: int, trials: int,
                              tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Contrapositive sampling surrogate for strongness of the state space.

    For sampled logic pairs with p not below q, a witness state certain of p
    but not of q is sought among the atoms of p.  This is a testable
    surrogate, not a global certificate.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pairs = []
    for k in range(trials):
        rng = trial_rng(seed, k)
        pairs.append((_random_element(model, rng, "logic"), _random_element(model, rng, "logic")))
    # the atoms of every p, as atomic_decomposition finds them: the frame
    # atoms of eigenvalue above 1/2 (its rule that an order norm at most
    # check_tol has none adds nothing once each eigenvalue is near 0 or 1)
    ps = np.array([p.coords for p, _ in pairs])
    if not logic_rows(model.eigenvalues_batch(ps, tol), tol).all():
        raise ValueError(NOT_IN_LOGIC)
    values, frames = model.decompose_batch(ps, tol)
    consistency = 0.0
    witness_missing = 0
    witness_level = 0.0
    worst_margin = 0.0
    comparable = 0
    incomparable = 0
    for (p, q), row, frame in zip(pairs, values, frames):
        params = [model.atom_param_from_coords(e) for e in frame[row > 0.5]]
        if cone_contains(model, q - p, tol):
            comparable += 1
            for ep in params:
                consistency = max(consistency, 1.0 - model.state_value(ep, q.coords))
            continue
        incomparable += 1
        found = False
        best_margin = 0.0
        for ep in params:
            margin = 1.0 - model.state_value(ep, q.coords)
            best_margin = max(best_margin, margin)
            if margin > 1e-6:
                witness_level = max(witness_level, 1.0 - model.state_value(ep, p.coords))
                found = True
                break
        if not found:
            witness_missing += 1
            worst_margin = max(worst_margin, float(best_margin))
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
