"""Named verification suites producing machine-readable reports, and every
sampled verifier they run.

Each suite is a pure function of (model, seed, trials, tolerances) returning
a list of CheckResults; ``run_suite`` wraps them into a VerificationReport
with canonical check ordering.  ``run_suite`` passes the suites one
``DrawRecord`` as their seed, so the trial samples several of them replay
are drawn and decomposed once per run; a suite given a plain seed draws its
own.  This is the one module that builds a CheckResult: the state,
transition-probability and cone layers only compute.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

from .backends.base import AtomSpace, Model, cone_distances, logic_atoms, row_norms
from .core import cone_contains, order_norm, order_norms
from .elements import DEFAULT_TOL, Tolerance, resum
from .errors import InputError, UnsupportedModelError
from .logic import NOT_IN_LOGIC, information_capacity_empirical, logic_rows, meet_coords
from .reports import CheckResult, VerificationReport, skipped_check
from .selfdual import (
    SelfDualCone,
    SpectralSelfDualCone,
    _signed_parts,
    nonnegative_fit,
    peel_positive,
    peel_spectral,
    recover_order_unit,
)
from .spectral import (
    DrawRecord,
    _random_element,
    linearity_defect,
    polarized_coords,
    trial_rng,
    trial_rngs,
    worst,
)
from .transition import inner_product, mixture_values, pairing_sums


# ---------------------------------------------------------------------------
# spectral suite
# ---------------------------------------------------------------------------


def spectral_suite(model: Model, seed: int, trials: int,
                   tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Every trial's sample is one row of a (trials, d) stack, drawn and
    decomposed once per run (``DrawRecord``); the kernels decompose the
    stack at once and the defects are reduced over rows."""
    record = DrawRecord.of(model, seed, tol)
    a = record.rows("a", trials)
    unit = model.order_unit_coords()
    values, atoms = record.rows("a_frames", trials)
    eigs = record.rows("a_eigenvalues", trials)  # the other path, compared with values
    residuals = order_norms(model, resum(values, values, atoms) - a, tol)
    frame_sum = order_norms(model, resum(values, np.ones_like(values), atoms) - unit, tol)
    sort_defect = np.max(np.diff(values, axis=1), axis=1, initial=0.0)
    norm_defect = np.abs(np.abs(eigs).max(axis=1) - np.abs(values).max(axis=1))
    spectral_member = values.min(axis=1) >= -tol.cone_slack
    contained = cone_distances(eigs) <= tol.cone_slack
    oracle = [model.cone_oracle(row, tol.cone_slack) for row in a]
    # frame orthogonality and calculus identities, thinned
    thinned = slice(0, trials, 10)
    i, j = np.triu_indices(atoms.shape[1], k=1)
    frame_orth = _tps_of_atoms(model, atoms[thinned][:, i].reshape(-1, model.ambient_dim),
                               atoms[thinned][:, j].reshape(-1, model.ambient_dim))
    unit_product = order_norms(model, polarized_coords(model, a[thinned], unit, tol)
                               - a[thinned], tol)
    lin_defect = linearity_defect(model, record, min(trials, 100), tol)
    checks = [
        CheckResult("spectral.reconstruction", worst(residuals), tol.check_tol),
        CheckResult("spectral.frame_sums_to_unit", worst(frame_sum), tol.check_tol),
        CheckResult("spectral.frame_orthogonality", worst(frame_orth), tol.check_tol),
        CheckResult("spectral.frame_within_capacity",
                    float(max(0, values.shape[1] - model.info_capacity)), 0.0),
        CheckResult("spectral.eigenvalues_sorted", worst(sort_defect), 0.0),
        CheckResult("spectral.norm_is_top_eigenvalue", worst(norm_defect), 0.0),
        CheckResult("spectral.cone_matches_spectrum",
                    float(np.sum(spectral_member != contained)), 0.0),
        CheckResult("spectral.cone_matches_oracle",
                    float(np.sum(spectral_member != oracle)), 0.0,
                    note="closed-form membership oracle per backend"),
        # the calculus at the identity resums the frame: the residuals above
        CheckResult("spectral.calculus_identity", worst(residuals[thinned]), tol.check_tol),
        CheckResult("spectral.unit_acts_neutrally", worst(unit_product), tol.check_tol),
    ]
    if model.symmetric_tp:
        checks.append(CheckResult("spectral.product_bilinear", lin_defect, 1e-8))
    else:
        checks.append(skipped_check(
            "spectral.product_bilinear",
            f"polarized product is not bilinear on this model (measured defect {lin_defect:.6e})"))
    return checks


# ---------------------------------------------------------------------------
# logic suite
# ---------------------------------------------------------------------------


def logic_suite(model: Model, seed: int, trials: int,
                tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Each trial draws logic elements p <= q from one random frame; the
    lattice operations on every trial's pair run as (K, d) stacks, one
    ``decompose_batch`` per stage of meets and one ``eigenvalues_batch``
    for every norm, logic test and cone defect."""
    rngs = trial_rngs(seed, min(trials, 250))
    params = model.random_frame_params_batch(rngs)
    m = params.shape[1]
    # each generator draws the flags of q, then those of p among them
    flags = np.array([(rng.integers(0, 2, size=m), rng.integers(0, 2, size=m))
                      for rng in rngs], dtype=bool)
    in_q = flags[:, 0]
    in_p = in_q & flags[:, 1]
    frames = model.atom_coords_batch(params)
    rows = np.arange(len(frames))
    unit = model.order_unit().coords
    # p and q summed from zeros in frame order, as elements add up
    p, q = (resum(flags, flags, frames) for flags in (in_p.astype(float), in_q.astype(float)))
    if not logic_rows(model.eigenvalues_batch(np.concatenate((p, q)), tol), tol).all():
        raise ValueError(f"a sampled {NOT_IN_LOGIC}")
    # the meets q ^ p' (the difference q - p), p ^ q and p' ^ q' (for the join)
    comp_p = unit - p
    values, atoms = model.decompose_batch(np.concatenate((q + comp_p, p + q, comp_p + (unit - q))),
                                          tol)
    diff, meet_pq, meet_comp = np.split(meet_coords(values, atoms, tol), 3)
    join_pq = unit - meet_comp
    # orthomodularity: p v (q - p) rebuilds q, as the complement of p' ^ (q - p)'
    rebuilt = unit - meet_coords(*model.decompose_batch(comp_p + (unit - diff), tol), tol)
    # adding an orthogonal atom / removing a contained atom stays in the logic,
    # on the trials that have one
    free, used = ~in_q, in_p
    grown = (q + frames[rows, free.argmax(axis=1)])[free.any(axis=1)]
    shrunk = (p - frames[rows, used.argmax(axis=1)])[used.any(axis=1)]
    # the orthogonal family of the atoms of q, and the same family with its
    # first atom twice, on the trials where q has two atoms or more
    family = in_q.sum(axis=1) >= 2
    # order norms of (p')' - p, (p v (q - p)) - q and (q - p) - (q ^ p'); logic
    # tests of p', the grown q and the shrunk p; cone defects of the meet-join
    # bracket and of unit minus each family
    stacks = [(unit - comp_p) - p, rebuilt - q, (q - p) - diff, comp_p, grown, shrunk,
              p - meet_pq, join_pq - p, q - meet_pq, join_pq - q,
              (unit - q)[family], (unit - (q + frames[rows, in_q.argmax(axis=1)]))[family]]
    eigs = np.split(model.eigenvalues_batch(np.concatenate(stacks), tol),
                    np.cumsum([len(stack) for stack in stacks])[:-1])
    involution, orthomodular, difference = (np.abs(eig).max(axis=1) for eig in eigs[:3])
    complement, sum_rule, difference_rule = (np.sum(~logic_rows(eig, tol)) for eig in eigs[3:6])
    cone = [cone_distances(eig) for eig in eigs[6:]]
    orthogonal, doubled = (defect <= tol.cone_slack for defect in cone[4:])
    # the orthogonal family criterion equals the pairwise criterion
    i, j = np.triu_indices(frames.shape[1], k=1)
    both = in_q[:, i] & in_q[:, j]
    pairwise = np.ones(both.shape, dtype=bool)
    pairwise[both] = _tps_of_atoms(model, frames[:, i][both], frames[:, j][both]) <= 1e-7
    pairwise = pairwise.all(axis=1)[family]
    capacity = information_capacity_empirical(model, seed, max(4, min(trials, 12)), tol)
    return [
        CheckResult("logic.involution", worst(involution), tol.check_tol),
        CheckResult("logic.complement_stays_extreme", float(complement), 0.0),
        CheckResult("logic.atom_sum_stays_extreme", float(sum_rule), 0.0),
        CheckResult("logic.atom_difference_stays_extreme", float(difference_rule), 0.0),
        CheckResult("logic.orthomodular_law", worst(orthomodular), 1e-8),
        CheckResult("logic.difference_identity", worst(difference), 1e-8),
        CheckResult("logic.meet_join_bracket", worst(np.concatenate(cone[:4])),
                    tol.cone_slack * 10.0),
        CheckResult("logic.orthogonal_family_pairwise",
                    float(np.sum(pairwise != orthogonal) + np.sum(doubled)), 0.0),
        CheckResult("logic.information_capacity",
                    float(abs(capacity - model.info_capacity)), 0.0,
                    note=f"greedy search found {capacity}, analytic {model.info_capacity}"),
    ]


def _sorted_gap(coefficients: np.ndarray, spectra: np.ndarray) -> float:
    """The largest gap between the sorted peel coefficients of each row of
    padded frames (K, m) and its sorted spectrum (K, n), both padded with
    zeros to one width."""
    width = max(coefficients.shape[1], spectra.shape[1])
    coefficients, spectra = (np.sort(np.pad(rows, ((0, 0), (0, width - rows.shape[1]))), axis=1)
                             for rows in (coefficients, spectra))
    return worst(np.abs(coefficients - spectra).ravel())


def _tps_of_atoms(model: Model, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """The larger transition probability between the atoms in the rows of
    two (K, d) stacks, by coordinates."""
    if model.symmetric_tp:
        return np.abs(model.native_pairings(e1, e2))
    if not len(e1):
        return np.zeros(0)
    p1, p2 = (model.atom_params_from_coords(stack) for stack in (e1, e2))
    return np.maximum(np.abs(model.transitions_from_params(p1, p2)),
                      np.abs(model.transitions_from_params(p2, p1)))


# ---------------------------------------------------------------------------
# transition-probability suite
# ---------------------------------------------------------------------------


def tp_suite(model: Model, seed: int, trials: int,
             tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Transition probabilities are read from the atom parameters of every
    trial at once; the cone tests and the top atom of every trial's positive
    element run as (trials, d) stacks."""
    rngs = trial_rngs(seed, trials)
    p1 = model.random_atom_param_batch(rngs)
    p2 = model.random_atom_param_batch(rngs)
    frames = model.random_frame_params_batch(rngs)
    positive = _random_element(model, rngs, "positive")
    t11, t12, t21 = (model.transitions_from_params(src, dst)
                     for src, dst in ((p1, p1), (p1, p2), (p2, p1)))
    pair = model.atom_coords_batch(np.stack((p1, p2), axis=1))
    d = model.ambient_dim
    frame_tps, frame_pair = np.empty((0, 2)), np.empty((0, 2, d))
    if frames.shape[1] >= 2:  # the first two atoms of each frame
        frame_tps = np.column_stack((model.transitions_from_params(frames[:, 0], frames[:, 1]),
                                     model.transitions_from_params(frames[:, 1], frames[:, 0])))
        frame_pair = model.atom_coords_batch(frames[:, :2])
    unit = model.order_unit().coords
    # a positive element attains its norm at the top frame atom
    top = model.decompose_batch(positive, tol)[1][:, 0]
    eigs = model.eigenvalues_batch(np.concatenate((unit - pair[:, 0] - pair[:, 1],
                                                   unit - frame_pair[:, 0] - frame_pair[:, 1],
                                                   positive)), tol)
    cone = cone_distances(eigs[:-trials])
    norms = np.abs(eigs[-trials:]).max(axis=1)
    top_value = model.state_values(np.array([model.atom_param_from_coords(e) for e in top]),
                                   positive)
    top_cone = cone_distances(model.eigenvalues_batch(positive - norms[:, np.newaxis] * top, tol))
    # orthogonality biconditional on the pair and on an orthogonal frame pair;
    # pairs in the gray band around zero are set aside, not classified
    values = np.column_stack((t12, t21, cone[:trials]))
    flags = values <= 1e-8
    split = flags.any(axis=1) & ~flags.all(axis=1)
    gray = ((1e-8 < values) & (values < 1e-4)).any(axis=1)
    orthogonal = ((np.abs(frame_tps) <= 1e-8).all(axis=1)
                  & (cone[trials:] <= tol.cone_slack))
    checks = [
        CheckResult("tp.diagonal_is_one", worst(np.abs(t11 - 1.0)), tol.check_tol),
        CheckResult("tp.values_in_unit_range",
                    worst(np.concatenate((-t12, t12 - 1.0, -t21, t21 - 1.0))), tol.check_tol),
        CheckResult("tp.orthogonality_biconditional",
                    float(np.sum(split & ~gray) + np.sum(~orthogonal)), 0.0),
        CheckResult("tp.top_atom_attains_norm", worst(np.abs(top_value - norms)), tol.check_tol),
        CheckResult("tp.top_atom_below_element", worst(top_cone), tol.cone_slack * 10.0),
        CheckResult("tp.symmetry", worst(np.abs(t12 - t21)), tol.check_tol,
                    note="fails by design on models with non-symmetric transition probability"),
    ]
    record = DrawRecord.of(model, seed, tol)
    checks += verify_unity_resolution(model, record, trials, tol, {
        "rows": "tp.unity_resolution_rows", "columns": "tp.unity_resolution_columns"})
    checks += check_inner_product(model, record, min(trials, 200), tol)
    return checks


def check_inner_product(model: Model, seed: int, trials: int,
                        tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Symmetry, bilinearity, positive definiteness and atom pairing, and the
    norm equivalence |a| <= sqrt(<a|a>) <= sqrt(m) |a| on the same samples.

    Every trial's samples are rows of (trials, d) stacks: the samples a, b
    and c and the frames of a are the seed's ``DrawRecord``'s, alpha and the
    atom pair are drawn from the trial's "ip" stream, one
    ``decompose_batch`` gives the other frames and one ``pairing_sums`` all
    the pairings."""
    if trials < 1:
        raise InputError("trials must be >= 1")
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
    record = DrawRecord.of(model, seed, tol)
    a, b, c = (record.rows(stage, trials) for stage in "abc")
    rngs = trial_rngs(seed, trials, "ip")
    alpha = np.array([rng.normal() for rng in rngs])
    p1 = model.random_atom_param_batch(rngs)
    p2 = model.random_atom_param_batch(rngs)
    e1, e2 = model.atom_coords_batch(p1), model.atom_coords_batch(p2)
    atom_tp = model.transitions_from_params(p1, p2)
    mixed = alpha[:, np.newaxis] * a + c
    rest = model.decompose_batch(np.concatenate((b, mixed, c, e1)), tol)
    values, atoms = (np.concatenate(parts) for parts in zip(record.rows("a_frames", trials), rest))
    values, atoms = values.reshape(5, trials, -1), atoms.reshape(5, trials, -1, d)
    # <x|y> for the frame of x (by its place in the stack above) and y
    pairs = [(0, b), (1, a), (2, b), (3, b), (1, mixed), (1, c), (0, a), (4, e2)]
    frames = [x for x, _ in pairs]
    ab, ba, lhs, cb, lhs2, bc, aa, atom_ip = pairing_sums(
        model, values[frames].reshape(8 * trials, -1), atoms[frames].reshape(8 * trials, -1, d),
        np.concatenate([y for _, y in pairs])).reshape(8, trials)
    norm_a = np.abs(record.rows("a_eigenvalues", trials)).max(axis=1)  # order_norms of a
    hilbert = np.sqrt(np.where(0.0 > aa, 0.0, aa))  # max(aa, 0.0), NaN kept
    # Python's power: numpy's square differs from it in the last bit now and then
    definite = np.array([norm ** 2 for norm in norm_a.tolist()]) - aa
    unit = model.order_unit()
    unit_unit = inner_product(model, unit, unit, tol)
    # the upper bound is tight at the unit, the lower bound at atoms
    e = model.atom(record.rows("atom", trials + 1)[trials])
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
# axioms suite
# ---------------------------------------------------------------------------


def axioms_suite(model: Model, seed: int, trials: int,
                 tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """The atom-state checks read the first atoms of the seed's
    ``DrawRecord`` and the complements from its one decomposition."""
    record = DrawRecord.of(model, seed, tol)
    first_atoms = _recorded_first_atoms(record, trials)
    checks = _atom_state_uniqueness(model, seed, *first_atoms, tol)
    checks += verify_pure_state_sampling(model, record, min(trials, 64))
    checks += _certainty_order(model, seed, *first_atoms, tol, CERTAINTY_NAMES)
    checks.append(_uncertain_samples(model, seed, first_atoms[0]))
    checks += verify_strong_state_space(model, seed, trials, tol)
    return checks


def _uncertain_samples(model: Model, seed: int, params) -> CheckResult:
    """Counts sampled effects the states of the atoms ``params`` (one per
    trial) are not certain of; no claim made."""
    trials = len(params)
    effects = _random_element(model, trial_rngs(seed, trials, "uncertain"), "unit_interval")
    uncertain = int(np.sum(model.state_values(params, effects) < 1.0 - 1e-6))
    return CheckResult("certainty.uncertain_samples_no_claim", 0.0, 0.0,
                       note=f"{uncertain}/{trials} sampled effects had P_e(a) < 1; no claim made")


# ---------------------------------------------------------------------------
# atom-space verifiers
#
# Each axiom on atoms is verified once, for models and self-dual cones alike:
# a verifier takes an ``AtomSpace`` (``backends/base.py``) and uses only its
# stack kernels.  A caller whose checks are pinned under other names passes
# them.
# ---------------------------------------------------------------------------


def symmetry_defect(space: AtomSpace, seed: int, trials: int) -> float:
    """Largest observed |P_{e1}(e2) - P_{e2}(e1)| over sampled atom pairs."""
    rngs = trial_rngs(seed, trials)
    p1 = space.random_atom_param_batch(rngs)
    p2 = space.random_atom_param_batch(rngs)
    return worst(np.abs(space.transitions_from_params(p1, p2)
                        - space.transitions_from_params(p2, p1)))


def _random_bounded_mixtures(space: AtomSpace, rngs: Sequence[np.random.Generator]):
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


def _first_atoms(space: AtomSpace, seed: int, trials: int, tol: Tolerance):
    """The first atoms of the seed's ``DrawRecord``, as parameters and
    coordinates (stacks), and their complements from one ``complements`` call."""
    record = DrawRecord.of(space, seed, tol)
    atoms = record.rows("atom_coords", trials)
    return record.rows("atom", trials), atoms, space.complements(atoms, tol)


def _recorded_first_atoms(record: DrawRecord, trials: int):
    """``_first_atoms`` of the record's model, with the complements read off
    the frames of unit - e that the record shares with the capacity
    search."""
    return (record.rows("atom", trials), record.rows("atom_coords", trials),
            logic_atoms(*record.rows("complement_frames", trials)))


def verify_atom_state_uniqueness(space: AtomSpace, seed: int, trials: int,
                                 tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Sampled evidence that P_e is the only state attaining 1 at atom e.

    Mixed states stay boundedly below 1 at every sampled atom; exact
    uniqueness is analytic per backend and recorded as assumed.  The
    complements of every trial's atom come from one ``complements`` call.
    """
    return _atom_state_uniqueness(space, seed, *_first_atoms(space, seed, trials, tol), tol)


def _atom_state_uniqueness(space: AtomSpace, seed: int, params, atoms, comps,
                           tol: Tolerance) -> list[CheckResult]:
    checks = [CheckResult("states.atom_state_attains_one",
                          worst(np.abs(space.state_values(params, atoms) - 1.0)), tol.check_tol)]
    if space.info_capacity < 2:
        return checks + [skipped_check(name, "capacity-1 model has a single state")
                         for name in ("states.mixed_states_below_one",
                                      "states.half_mixture_value")]
    mixed = mixture_values(space, *_random_bounded_mixtures(
        space, trial_rngs(seed, len(atoms), "mixtures")), atoms)
    # half/half mixture with an orthogonal atom evaluates to one half
    rows = [k for k, comp in enumerate(comps) if len(comp)]
    half_defect = 0.0
    if rows:
        others = space.atom_params_from_coords(np.array([comps[k][0] for k in rows]))
        half_defect = worst(np.abs(mixture_values(
            space, (params[rows], others), (0.5, 0.5), atoms[rows]) - 0.5))
    return checks + [
        CheckResult("states.mixed_states_below_one", worst(mixed), 1.0 - 1e-6,
                    note="uniqueness is analytic per backend; sampled evidence only"),
        CheckResult("states.half_mixture_value", half_defect, tol.check_tol),
    ]


UNITY_NAMES = {"columns": "unity.family_pairings_sum_to_one",
               "shared_sum": "unity.families_share_one_sum"}


def verify_unity_resolution(space: AtomSpace, seed: int, trials: int, tol: Tolerance = DEFAULT_TOL,
                            names: dict = UNITY_NAMES) -> list[CheckResult]:
    """Every maximal orthogonal atom family resolves unity.

    For a sampled family f and a further atom x the measures are ``rows``,
    |P_x(sum f) - 1|; ``columns``, |sum P_f(x) - 1|; and ``shared_sum``, the
    distance of sum f from the first family's sum.  ``names`` maps each
    measure the caller reports to its check name.  The families and atoms
    are those of the seed's ``DrawRecord``.
    """
    record = DrawRecord.of(space, seed, tol)
    return _unity_resolution(space, *(record.rows(name, trials)
                                      for name in ("frame", "frame_coords", "extra")), tol, names)


def _unity_resolution(space: AtomSpace, frames, frame_atoms: np.ndarray, extra,
                      tol: Tolerance, names: dict) -> list[CheckResult]:
    """``verify_unity_resolution`` on drawn families: their parameters
    ``frames`` (K, m, ...) and coordinates ``frame_atoms`` (K, m, d), and the
    parameters ``extra`` of the further atoms."""
    ones = np.ones(frames.shape[:2])
    total = resum(ones, ones, frame_atoms)
    columns = np.zeros(len(extra))
    for j in range(frames.shape[1]):
        columns += space.transitions_from_params(frames[:, j], extra)
    measured = {"rows": worst(np.abs(space.state_values(extra, total) - 1.0)),
                "columns": worst(np.abs(columns - 1.0)),
                "shared_sum": worst(row_norms(total - total[0]))}
    return [CheckResult(name, measured[key], tol.check_tol) for key, name in names.items()]


CERTAINTY_NAMES = ("certainty.state_attains_one", "certainty.atom_below_effect")


def verify_certainty_order(space: AtomSpace, seed: int, trials: int,
                           tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """If a state is certain of an effect in [0, unit], its atom lies below it.

    Positive cases are constructed as the atom plus convex junk on its
    complement family, so the effect lies in [0, unit].  The checks are the
    atom state's distance from 1 at the effect, and the distance of effect
    minus atom from the cone; the complements and the cone defects of all
    trials come from one stack call each.
    """
    return _certainty_order(space, seed, *_first_atoms(space, seed, trials, tol), tol,
                            CERTAINTY_NAMES)


def _certainty_order(space: AtomSpace, seed: int, params, atoms, comps, tol: Tolerance,
                     names: tuple) -> list[CheckResult]:
    # a shorter complement is padded with weight -0.0 on a zero atom: the
    # product -0.0 leaves every sum unchanged, signed zeros included
    weights = np.full((len(atoms), max(map(len, comps))), -0.0)
    junk = np.zeros(weights.shape + (space.ambient_dim,))
    # each trial's junk weights are drawn from its "junk" stream
    for k, (rng, comp) in enumerate(zip(trial_rngs(seed, len(atoms), "junk"), comps)):
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
    The cloud's m mixtures are one rejection batch on ``trial_rng(seed, 0)``:
    it draws the m first atoms, then in each round one candidate for every
    mixture still pending, in mixture order, then the m weights.  The eight
    pure atoms are rows 1 to 8 of the ``atom`` stage of the seed's
    ``DrawRecord`` at any tolerance, as a tolerance changes no atom row.
    """
    if model.info_capacity < 2:
        return [skipped_check("states.pure_states_extremal",
                              "capacity-1 model has a single state")]

    rng = trial_rng(seed, 0)
    cloud = _state_vectors(model, *_random_bounded_mixtures(
        model, [rng] * min(max(trials, 8), 64)))
    record = (seed if isinstance(seed, DrawRecord) and seed.model is model
              else DrawRecord(seed, model, DEFAULT_TOL))
    pures = _state_vectors(model, [record.rows("atom", 9)[1:]], [np.ones(8)])
    # distance from each pure state to the convex hull of the cloud, via
    # nonnegative least squares with a penalized sum-to-one row
    scale = 1e3
    stacked = np.vstack([cloud.T, scale * np.ones(len(cloud))])
    min_residual = np.inf
    for pure in pures:
        target = np.concatenate([pure, [scale]])
        coeffs, _ = nonnegative_fit(stacked, target)
        min_residual = min(min_residual, float(np.linalg.norm(cloud.T @ coeffs - pure)))
    return [CheckResult("states.pure_states_extremal",
                        max(0.0, 1e-3 - min_residual), 0.0,
                        note="sampled, not proven")]


def _state_vectors(model: Model, params, weights) -> np.ndarray:
    """The values at the ambient basis vectors of N states, one row each:
    state i is the sum over j of weights[j][i] P_{params[j][i]}."""
    d = model.ambient_dim
    basis = np.tile(np.eye(d), (len(weights[0]), 1))
    return mixture_values(model, [np.repeat(p, d, axis=0) for p in params],
                           [np.repeat(w, d) for w in weights], basis).reshape(-1, d)


def verify_strong_state_space(model: Model, seed: int, trials: int,
                              tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Contrapositive sampling surrogate for strongness of the state space.

    For sampled logic pairs with p not below q, a witness state certain of p
    but not of q is sought among the atoms of p.  This is a testable
    surrogate, not a global certificate.
    """
    rngs = trial_rngs(seed, trials)
    ps = _random_element(model, rngs, "logic")
    qs = _random_element(model, rngs, "logic")
    # the atoms of every p, as atomic_decomposition finds them
    if not logic_rows(model.eigenvalues_batch(ps, tol), tol).all():
        raise ValueError(f"a sampled {NOT_IN_LOGIC}")
    atoms = logic_atoms(*model.decompose_batch(ps, tol))
    # P_e(q) and P_e(p) for every atom e of every p, split by trial
    owner = np.repeat(np.arange(trials), [len(a) for a in atoms])
    at_q = at_p = np.empty(0)
    if len(owner):
        params = model.atom_params_from_coords(np.concatenate(atoms))
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


# ---------------------------------------------------------------------------
# self-dual cone suite
# ---------------------------------------------------------------------------


def selfdual_suite(model: Model, seed: int, trials: int,
                   tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """The Moreau sweep reads every trial's element a, its frame and its
    spectrum from the seed's ``DrawRecord``; the Moreau parts of a come from
    that frame, those of their differences from one ``moreau_parts`` call,
    and every other order norm and cone defect from one
    ``eigenvalues_batch``.  The peel checks on every fifth trial peel the
    thinned rows as stacks, without the spectral kernel they check."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    if not model.symmetric_tp:
        reason = "self-dual cone layer needs a symmetric transition probability"
        return [skipped_check(f"moreau.{name}", reason)
                for name in ("reconstruction", "orthogonality", "parts_in_cone", "uniqueness")] + [
            skipped_check("peel.matches_spectrum", reason),
            skipped_check("peel.unit_interval_coefficients", reason),
            skipped_check("unit.recovered_from_families", reason),
            skipped_check("unity.family_pairings_sum_to_one", reason),
            skipped_check("unity.families_share_one_sum", reason),
            skipped_check("certainty_ip.pairing_attains_one", reason),
            skipped_check("certainty_ip.atom_below_effect", reason),
            *[skipped_check(f"selfdual.{name}", reason) for name in (
                "forward", "reverse", "negative_witness",
                "cone_pairings_nonnegative", "dual_vectors_in_cone")],
            skipped_check("orthogonal.parts_inherit_orthogonality", reason),
        ]
    cone = SpectralSelfDualCone(model)
    record = DrawRecord.of(model, seed, tol)
    sweep = min(trials, 120)
    thinned = range(0, sweep, 5)
    a = record.rows("a", sweep)
    effects = _random_element(model, trial_rngs(seed, thinned, "effects"), "unit_interval")
    plus, minus = _signed_parts(*record.rows("a_frames", sweep))  # cone.moreau_parts(a)
    again_plus, again_minus = cone.moreau_parts(plus - minus, tol)
    # order norms of the reconstruction and uniqueness residuals and of the
    # minus parts, cone defects of both parts
    stacks = [(plus - minus) - a, again_plus - plus, again_minus - minus, minus, plus]
    eigs = np.split(model.eigenvalues_batch(np.concatenate(stacks), tol),
                    np.cumsum([len(stack) for stack in stacks])[:-1])
    recon, again_plus_norm, again_minus_norm, minus_norm = (
        np.abs(eig).max(axis=1) for eig in eigs[:4])
    minus_in, plus_in = (cone_distances(eig) <= tol.cone_slack for eig in eigs[3:5])
    # the peel checks: the Moreau parts of the thinned elements, then the
    # effects and the thinned plus parts, each peeled as one stack
    peel_match = _sorted_gap(peel_spectral(cone, a[thinned], tol=tol)[0],
                             record.rows("a_eigenvalues", sweep)[thinned])
    values, atoms = peel_positive(cone, np.concatenate((effects, plus[thinned])), tol=tol)
    coeffs = values[:len(effects)]
    peel_interval = worst(np.maximum(-coeffs, coeffs - 1.0).ravel())
    # orthogonal positive parts inherit orthogonality from their sum
    values, atoms = values[len(effects):], atoms[len(effects):]
    half = resum(values[:, ::2], values[:, ::2], atoms[:, ::2])
    orth = (values != 0.0).any(axis=1) & (minus_norm[thinned] > 1e-6)
    # one per-element pairing per row: the layer the benchmark's tracer
    # counts as ``backends.pairing``, which no other verify check reaches
    orth_parts = worst(np.array([abs(model.native_pairing(x, y))
                                 for x, y in zip(half[orth], minus[thinned][orth])]))
    unit_defect = order_norm(model, recover_order_unit(cone, seed) - model.order_unit(), tol)
    checks = [
        CheckResult("moreau.reconstruction", worst(recon), tol.check_tol),
        CheckResult("moreau.orthogonality", worst(np.abs(cone.inners(plus, minus))),
                    tol.check_tol),
        CheckResult("moreau.parts_in_cone", float(np.sum(~(plus_in & minus_in))), 0.0),
        CheckResult("moreau.uniqueness",
                    worst(np.concatenate((again_plus_norm, again_minus_norm))), tol.check_tol),
        CheckResult("peel.matches_spectrum", peel_match, 1e-8),
        CheckResult("peel.unit_interval_coefficients", peel_interval, tol.check_tol),
        CheckResult("unit.recovered_from_families", unit_defect, tol.check_tol),
        CheckResult("orthogonal.parts_inherit_orthogonality", orth_parts, tol.check_tol),
    ]
    # the cone's atoms are the model's, as coordinates
    frames = record.rows("frame_coords", sweep)
    checks += _unity_resolution(cone, frames, cone.atom_coords_batch(frames),
                                record.rows("extra_coords", sweep), tol, UNITY_NAMES)
    atoms = record.rows("atom_coords", sweep)  # the cone's atoms are their own parameters
    checks += _certainty_order(cone, seed, atoms, atoms, cone.complements(atoms, tol), tol, (
        "certainty_ip.pairing_attains_one", "certainty_ip.atom_below_effect"))
    checks += self_duality_report(cone, seed, min(trials, 200), tol)
    return checks


def self_duality_report(cone: SelfDualCone, seed: int, trials: int,
                        tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Witness both inclusions of self-duality on samples.

    The cone lies in its dual when cone elements pair nonnegatively: the
    sampled pairs, and every pair of the extreme rays a cone lists
    (``extreme_generators``), which generate it and so witness this
    exactly.  The dual lies in the cone when the frame pairings of an
    element recover its coefficients, so that their signs decide
    membership, and when Moreau minus parts (dual vectors) lie in the cone.
    Each trial draws a, b, c and then its witness family from
    ``trial_rng(seed, k)``, each stage in one stack call for all trials; the
    pairings, frames, Moreau parts and cone defects then come from the
    cone's stack forms.
    """
    rngs = trial_rngs(seed, trials)
    a, b = cone.random_positive_batch(rngs), cone.random_positive_batch(rngs)
    c = cone.random_element_batch(rngs)
    # witness: one negative coefficient on a maximal family pairs negatively
    # with its own atom; a padded zero atom gets weight -0.0, adding nothing
    families = cone.random_frame_params_batch(rngs)
    coeffs = np.full(families.shape[:2], -0.0)
    neg = np.empty(trials, dtype=int)
    for k, (rng, family) in enumerate(zip(rngs, families)):
        size = np.count_nonzero(family.any(axis=1))
        coeffs[k, :size] = np.abs(rng.normal(size=size)) + 0.1
        neg[k] = rng.integers(size)
        coeffs[k, neg[k]] = -0.1 - abs(rng.normal())
    bad = resum(coeffs, coeffs, families)
    neg_atom = families[np.arange(trials), neg]
    rays = cone.extreme_generators()
    forward = worst(np.concatenate((-cone.inners(a, b),
                                    -cone.inners(rays[:, np.newaxis], rays).ravel())))
    (values, atoms), (plus, minus) = cone.frames_and_parts(c, tol)
    pairings = cone.inners(atoms, c[:, np.newaxis])
    reverse = worst(np.abs(pairings - values).ravel())
    contained = cone.cone_defects(np.concatenate((c, minus)), tol) <= tol.cone_slack
    mismatches = np.sum((pairings >= -tol.cone_slack).all(axis=1) != contained[:trials])
    witness_defect = 0.0
    witness: tuple | None = None
    for row, pairing in zip(bad, (cone.inners(bad, neg_atom) + 0.05).tolist()):
        if pairing > witness_defect:
            witness_defect, witness = pairing, tuple(row)
    plus_pairing = worst(-cone.inners(plus, a))
    dual_in_cone = 0.0 if contained[trials:].all() else 1.0
    return [
        CheckResult("selfdual.forward", forward, tol.check_tol,
                    note="<a|b> >= 0 for sampled positive pairs"),
        CheckResult("selfdual.reverse", reverse, tol.check_tol,
                    note="frame pairings recover eigenvalues"),
        CheckResult("selfdual.membership_agreement", float(mismatches), 0.0),
        CheckResult("selfdual.negative_witness", witness_defect, 0.0, witness=witness,
                    note="one negative eigenvalue yields a strictly negative pairing"),
        CheckResult("selfdual.cone_pairings_nonnegative", plus_pairing, tol.check_tol),
        CheckResult("selfdual.dual_vectors_in_cone", dual_in_cone, 0.0),
    ]



SUITES = {
    "axioms": axioms_suite,
    "spectral": spectral_suite,
    "logic": logic_suite,
    "tp": tp_suite,
    "selfdual": selfdual_suite,
}


def run_suite(model: Model, suite: str, seed: int, trials: int,
              tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    if suite != "all" and suite not in SUITES:
        raise InputError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    start = time.monotonic()
    names = list(SUITES) if suite == "all" else [suite]
    record = DrawRecord(seed, model, tol)  # this run's draws, shared by its suites
    checks: list[CheckResult] = []
    for name in names:
        checks += SUITES[name](model, record, trials, tol)
    report = VerificationReport(
        model=model.descriptor.to_json(),
        suite=suite,
        seed=seed,
        trials=trials,
        checks=checks,
        wall_time_ms=int((time.monotonic() - start) * 1000),
    )
    return report.canonical()
