"""Transition probabilities between atoms, states, the self-dualizing inner
product, and the sampling verifiers for the foundational properties.

The value P_e(a) of the unique state attaining 1 at atom e is always computed
backend-natively (trace pairing, spin pairing, point evaluation); uniqueness
of that state is analytic per backend and is only sampled here, never proven.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backends.base import Model
from .core import cone_contains, order_norm
from .elements import DEFAULT_TOL, Element, Tolerance
from .errors import NotAtomError, UnsupportedModelError
from .logic import atomic_decomposition
from .reports import CheckResult, skipped_check
from .spectral import _random_element, trial_rng


def atom_param(model: Model, e: Element, tol: Tolerance = DEFAULT_TOL):
    """Defining parameter of an atom element; raises NotAtomError otherwise."""
    model.check_element(e)
    return model.atom_param_from_coords(e.coords, tol)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class State:
    """Positive normalized functional, either a dual vector or a point
    evaluation on the state-space ball."""

    model: Model
    kind: str  # "dual_vector" | "point_evaluation"
    vector: Element | None = None
    point: np.ndarray | None = None

    def value(self, a: Element) -> float:
        self.model.check_element(a)
        if self.kind == "dual_vector":
            return self.model.native_pairing(self.vector.coords, a.coords)
        return self.model.state_value(self.point, a.coords)

    __call__ = value


def state_of_atom(model: Model, e: Element, tol: Tolerance = DEFAULT_TOL) -> State:
    """The unique state with value 1 at the atom e."""
    param = atom_param(model, e, tol)
    return _state_from_param(model, param)


def _state_from_param(model: Model, param) -> State:
    if model.state_kind == "point_evaluation":
        return State(model, "point_evaluation", point=np.asarray(param, dtype=float))
    return State(model, "dual_vector", vector=model.atom(param))


def mix_states(states: Sequence[State], weights: Sequence[float]) -> State:
    """Convex mixture of states of one model (and one representation kind)."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0):
        raise ValueError("mixture weights must be nonnegative")
    weights = weights / weights.sum()
    first = states[0]
    if any(s.kind != first.kind or s.model is not first.model for s in states):
        raise ValueError("states must share model and representation kind")
    if first.kind == "dual_vector":
        coords = sum(w * s.vector.coords for w, s in zip(weights, states))
        return State(first.model, "dual_vector", vector=first.model.element(coords))
    point = sum(w * s.point for w, s in zip(weights, states))
    return State(first.model, "point_evaluation", point=point)


# ---------------------------------------------------------------------------
# transition probabilities
# ---------------------------------------------------------------------------


def transition_prob(model: Model, e1: Element, e2: Element, tol: Tolerance = DEFAULT_TOL) -> float:
    """P_{e1}(e2): the state of e1 evaluated at e2.  Not symmetric in general."""
    p1 = atom_param(model, e1, tol)
    p2 = atom_param(model, e2, tol)
    return model.transition_from_params(p1, p2)


@dataclass(frozen=True)
class TPMatrix:
    """Matrix of transition probabilities T[i][j] = P_{e_i}(e_j)."""

    model: Model
    params: tuple
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
    return TPMatrix(model, tuple(params), mat)


def tp_matrix(model: Model, atoms: Sequence[Element], tol: Tolerance = DEFAULT_TOL) -> TPMatrix:
    if len(atoms) < 1:
        raise ValueError("need at least one atom")
    params = tuple(atom_param(model, e, tol) for e in atoms)
    return tp_matrix_from_params(model, params)


def symmetry_defect(model: Model, seed: int, trials: int) -> float:
    """Largest observed |P_{e1}(e2) - P_{e2}(e1)| over sampled atom pairs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    worst = 0.0
    for k in range(trials):
        rng = trial_rng(seed, k)
        p1 = model.random_atom_param(rng)
        p2 = model.random_atom_param(rng)
        worst = max(worst, abs(model.transition_from_params(p1, p2)
                               - model.transition_from_params(p2, p1)))
    return worst


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
    return float(sum(p.eigenvalue * model.native_pairing(p.atom.coords, b.coords)
                     for p in form.pairs))


def check_inner_product(model: Model, seed: int, trials: int,
                        tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Symmetry, bilinearity, positive definiteness and atom pairing, and the
    norm equivalence |a| <= sqrt(<a|a>) <= sqrt(m) |a| on the same samples."""
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

    m = model.info_capacity
    sym_defect = 0.0
    bilin_defect = 0.0
    pd_defect = -np.inf
    atom_defect = 0.0
    lower = 0.0
    upper = 0.0
    for k in range(trials):
        rng = trial_rng(seed, k)
        a = _random_element(model, rng)
        b = _random_element(model, rng)
        c = _random_element(model, rng)
        alpha = float(rng.normal())
        ab = inner_product(model, a, b, tol)
        ba = inner_product(model, b, a, tol)
        sym_defect = max(sym_defect, abs(ab - ba))
        lhs = inner_product(model, alpha * a + c, b, tol)
        bilin_defect = max(bilin_defect, abs(lhs - alpha * ab - inner_product(model, c, b, tol)))
        lhs2 = inner_product(model, b, alpha * a + c, tol)
        bilin_defect = max(bilin_defect, abs(lhs2 - alpha * ba - inner_product(model, b, c, tol)))
        norm_a = order_norm(model, a, tol)
        aa = inner_product(model, a, a, tol)
        pd_defect = max(pd_defect, norm_a**2 - aa)
        hilbert = np.sqrt(max(aa, 0.0))
        lower = max(lower, norm_a - hilbert)
        upper = max(upper, hilbert - np.sqrt(m) * norm_a)
        e1 = model.random_atom_param(rng)
        e2 = model.random_atom_param(rng)
        atom_defect = max(atom_defect, abs(
            inner_product(model, model.atom(e1), model.atom(e2), tol)
            - model.transition_from_params(e1, e2)))
    unit = model.order_unit()
    unit_unit = inner_product(model, unit, unit, tol)
    # the upper bound is tight at the unit, the lower bound at atoms
    e = model.atom(model.random_atom_param(trial_rng(seed, trials)))
    tight_unit = abs(np.sqrt(unit_unit) - np.sqrt(m) * order_norm(model, unit, tol))
    tight_atom = max(abs(np.sqrt(inner_product(model, e, e, tol)) - 1.0),
                     abs(order_norm(model, e, tol) - 1.0))
    return [
        CheckResult("ip.symmetry", sym_defect, tol.check_tol),
        CheckResult("ip.bilinearity", bilin_defect, tol.check_tol),
        CheckResult("ip.positive_definite", float(pd_defect), tol.check_tol,
                    note="lower bound <a|a> >= |a|^2"),
        CheckResult("ip.atom_pairing", atom_defect, tol.check_tol),
        CheckResult("ip.unit_pairing", abs(unit_unit - m), tol.check_tol,
                    note="<unit|unit> equals the information capacity"),
        CheckResult("norms.lower", lower, tol.check_tol),
        CheckResult("norms.upper", upper, tol.check_tol),
        CheckResult("norms.tightness", max(tight_unit, tight_atom), tol.check_tol,
                    note="upper bound tight at the unit, lower bound tight at atoms"),
    ]


# ---------------------------------------------------------------------------
# state-level verifiers
# ---------------------------------------------------------------------------


def _random_bounded_mixture(model: Model, rng: np.random.Generator, tp_cap: float = 0.95):
    """Two-atom mixture whose components are boundedly non-parallel."""
    p1 = model.random_atom_param(rng)
    p2 = None
    for _ in range(500):
        cand = model.random_atom_param(rng)
        if (model.transition_from_params(p1, cand) <= tp_cap
                and model.transition_from_params(cand, p1) <= tp_cap):
            p2 = cand
            break
    if p2 is None:
        raise RuntimeError("could not sample a boundedly mixed state")
    lam = float(rng.uniform(0.2, 0.8))
    return mix_states([_state_from_param(model, p1), _state_from_param(model, p2)],
                      [lam, 1.0 - lam])


def verify_atom_state_uniqueness(model: Model, seed: int, trials: int,
                                 tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Sampled evidence that P_e is the only state attaining 1 at atom e.

    Mixed states stay boundedly below 1 at every sampled atom; exact
    uniqueness is analytic per backend and recorded as assumed.
    """
    self_defect = 0.0
    mixed_max = 0.0
    half_defect = 0.0
    can_mix = model.info_capacity >= 2
    for k in range(trials):
        rng = trial_rng(seed, k)
        ep = model.random_atom_param(rng)
        e = model.atom(ep)
        self_defect = max(self_defect, abs(model.state_value(ep, e.coords) - 1.0))
        if not can_mix:
            continue
        sigma = _random_bounded_mixture(model, rng)
        mixed_max = max(mixed_max, sigma.value(e))
        # half/half mixture with an orthogonal atom evaluates to one half
        comp = atomic_decomposition(model, model.order_unit() - e, tol)
        if comp:
            other = _state_from_param(model, atom_param(model, comp[0], tol))
            half = mix_states([_state_from_param(model, ep), other], [0.5, 0.5])
            half_defect = max(half_defect, abs(half.value(e) - 0.5))
    checks = [CheckResult("states.atom_state_attains_one", self_defect, tol.check_tol)]
    if can_mix:
        checks.append(CheckResult(
            "states.mixed_states_below_one", mixed_max, 1.0 - 1e-6,
            note="uniqueness is analytic per backend; sampled evidence only"))
        checks.append(CheckResult("states.half_mixture_value", half_defect, tol.check_tol))
    else:
        checks.append(skipped_check("states.mixed_states_below_one",
                                    "capacity-1 model has a single state"))
    return checks


def verify_pure_state_sampling(model: Model, seed: int, trials: int,
                               tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Sampled check that atom states sit outside the hull of mixed states.

    This is the extreme-point side of the pure-state postulate on a small
    discretization of the state space; it is recorded as sampled, not proven.
    """
    if model.info_capacity < 2:
        return [skipped_check("states.pure_states_extremal",
                              "capacity-1 model has a single state")]

    import scipy.optimize

    def state_vec(state: State) -> np.ndarray:
        return state.vector.coords if state.kind == "dual_vector" else state.point

    rng = trial_rng(seed, 0)
    cloud = np.array([state_vec(_random_bounded_mixture(model, rng))
                      for _ in range(min(max(trials, 8), 64))])
    min_residual = np.inf
    for k in range(8):
        rng = trial_rng(seed, k + 1)
        pure = state_vec(_state_from_param(model, model.random_atom_param(rng)))
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


def verify_certainty_order(model: Model, seed: int, trials: int,
                           tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """If a state is certain of an effect in [0, unit], its atom lies below it.

    Positive cases are constructed as the atom plus convex junk on the
    complement frame; samples with P_e(a) < 1 are counted without any claim.
    """
    value_defect = 0.0
    cone_defect = 0.0
    uncertain = 0
    for k in range(trials):
        rng = trial_rng(seed, k)
        ep = model.random_atom_param(rng)
        e = model.atom(ep)
        a = e
        for f in atomic_decomposition(model, model.order_unit() - e, tol):
            a = a + float(rng.uniform()) * f
        value_defect = max(value_defect, abs(model.state_value(ep, a.coords) - 1.0))
        eigs = model.eigenvalues(a - e, tol)
        cone_defect = max(cone_defect, max(0.0, -float(eigs.min())))
        b = _random_element(model, rng, "unit_interval")
        if model.state_value(ep, b.coords) < 1.0 - 1e-6:
            uncertain += 1
    return [
        CheckResult("certainty.state_attains_one", value_defect, tol.check_tol),
        CheckResult("certainty.atom_below_effect", cone_defect, tol.cone_slack),
        CheckResult("certainty.uncertain_samples_no_claim", 0.0, 0.0,
                    note=f"{uncertain}/{trials} sampled effects had P_e(a) < 1; no claim made"),
    ]


def verify_strong_state_space(model: Model, seed: int, trials: int,
                              tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Contrapositive sampling surrogate for strongness of the state space.

    For sampled logic pairs with p not below q, a witness state certain of p
    but not of q is sought among the atoms of p.  This is a testable
    surrogate, not a global certificate.
    """
    consistency = 0.0
    witness_missing = 0
    witness_level = 0.0
    worst_margin = 0.0
    comparable = 0
    incomparable = 0
    for k in range(trials):
        rng = trial_rng(seed, k)
        p = _random_element(model, rng, "logic")
        q = _random_element(model, rng, "logic")
        atoms = atomic_decomposition(model, p, tol)
        params = [atom_param(model, e, tol) for e in atoms]
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
