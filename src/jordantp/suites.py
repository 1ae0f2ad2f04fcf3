"""Named verification suites producing machine-readable reports.

Each suite is a pure function of (model, seed, trials, tolerances) returning
a list of CheckResults; ``run_suite`` wraps them into a VerificationReport
with canonical check ordering.
"""

from __future__ import annotations

import time

import numpy as np

from .backends.base import Model, cone_distances
from .core import order_norm, order_norms
from .elements import DEFAULT_TOL, Tolerance, resum
from .logic import NOT_IN_LOGIC, information_capacity_empirical, logic_rows, meet_coords
from .reports import CheckResult, VerificationReport, skipped_check
from .selfdual import (
    SpectralSelfDualCone,
    peel_positive,
    peel_spectral,
    recover_order_unit,
    self_duality_report,
)
from .spectral import (
    linearity_defects,
    polarized_coords,
    random_coords_batch,
    trial_coords,
    trial_rngs,
    worst,
)
from .transition import (
    check_inner_product,
    verify_atom_state_uniqueness,
    verify_certainty_order,
    verify_pure_state_sampling,
    verify_strong_state_space,
    verify_unity_resolution,
)


# ---------------------------------------------------------------------------
# spectral suite
# ---------------------------------------------------------------------------


def spectral_suite(model: Model, seed: int, trials: int,
                   tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Every trial's sample is one row of a (trials, d) stack; the kernels
    decompose the stack at once and the defects are reduced over rows."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lin = min(trials, 100)
    a, b, c = trial_coords(model, seed, range(lin), 3)
    a = np.concatenate((a, *trial_coords(model, seed, range(lin, trials), 1)))
    unit = model.order_unit_coords()
    values, atoms = model.decompose_batch(a, tol)
    eigs = model.eigenvalues_batch(a, tol)  # the other path, compared with values
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
    lin_defect = worst(linearity_defects(model, a[:lin], b, c, tol))
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
        raise RuntimeError(f"a sampled {NOT_IN_LOGIC}")  # a fault, not bad input
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
    """The largest gap between the sorted peel coefficients of a row of
    padded frames (K, m) and its sorted spectrum (K, n), the shorter of the
    two padded with zeros.  Each row is padded to the width of the whole
    stack with +inf, which sorts last in both and is left out."""
    width = np.maximum(np.count_nonzero(coefficients, axis=1), spectra.shape[1])[:, np.newaxis]
    cols = np.arange(max(coefficients.shape[1], spectra.shape[1]))
    inside = cols < width
    sorted_rows = [np.sort(np.where(inside, np.pad(rows, ((0, 0), (0, len(cols) - rows.shape[1]))),
                                    np.inf), axis=1)
                   for rows in (coefficients, spectra)]
    return worst(np.abs(sorted_rows[0][inside] - sorted_rows[1][inside]))


def _tps_of_atoms(model: Model, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """The larger transition probability between the atoms in the rows of
    two (K, d) stacks, by coordinates."""
    if model.symmetric_tp:
        return np.abs(model.native_pairings(e1, e2))
    if not len(e1):
        return np.zeros(0)
    p1, p2 = (np.array([model.atom_param_from_coords(e) for e in stack]) for stack in (e1, e2))
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
    positive = random_coords_batch(model, rngs, "positive")
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
    checks += verify_unity_resolution(model, seed, trials, tol, names={
        "rows": "tp.unity_resolution_rows", "columns": "tp.unity_resolution_columns"})
    checks += check_inner_product(model, seed, min(trials, 200), tol)
    return checks


# ---------------------------------------------------------------------------
# axioms suite
# ---------------------------------------------------------------------------


def axioms_suite(model: Model, seed: int, trials: int,
                 tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    checks = verify_atom_state_uniqueness(model, seed, trials, tol)
    checks += verify_pure_state_sampling(model, seed, min(trials, 64))
    checks += verify_certainty_order(model, seed, trials, tol)
    checks.append(_uncertain_samples(model, seed, trials))
    checks += verify_strong_state_space(model, seed, trials, tol)
    return checks


def _uncertain_samples(model: Model, seed: int, trials: int) -> CheckResult:
    """Counts sampled effects an atom state is not certain of; no claim made."""
    rngs = trial_rngs(seed, trials)
    params = model.random_atom_param_batch(rngs)
    effects = random_coords_batch(model, rngs, "unit_interval")
    uncertain = int(np.sum(model.state_values(params, effects) < 1.0 - 1e-6))
    return CheckResult("certainty.uncertain_samples_no_claim", 0.0, 0.0,
                       note=f"{uncertain}/{trials} sampled effects had P_e(a) < 1; no claim made")


# ---------------------------------------------------------------------------
# self-dual cone suite
# ---------------------------------------------------------------------------


def selfdual_suite(model: Model, seed: int, trials: int,
                   tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """The Moreau sweep draws every trial's element from ``trial_rng(seed,
    k)``; its Moreau parts, and those of their differences, come from two
    ``moreau_parts`` calls, and every order norm and cone defect from one
    ``eigenvalues_batch``.  The peel checks on every fifth trial peel the
    thinned rows as stacks, without the spectral kernel they check."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
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
    sweep = min(trials, 120)
    thinned = range(0, sweep, 5)
    rngs = trial_rngs(seed, sweep)
    a = random_coords_batch(model, rngs)
    effects = random_coords_batch(model, rngs[::5], "unit_interval")
    plus, minus = cone.moreau_parts(a, tol)
    again_plus, again_minus = cone.moreau_parts(plus - minus, tol)
    # order norms of the reconstruction and uniqueness residuals and of the
    # minus parts, cone defects of both parts, spectra of the thinned elements
    stacks = [(plus - minus) - a, again_plus - plus, again_minus - minus, minus, plus, a[thinned]]
    eigs = np.split(model.eigenvalues_batch(np.concatenate(stacks), tol),
                    np.cumsum([len(stack) for stack in stacks])[:-1])
    recon, again_plus_norm, again_minus_norm, minus_norm = (
        np.abs(eig).max(axis=1) for eig in eigs[:4])
    minus_in, plus_in = (cone_distances(eig) <= tol.cone_slack for eig in eigs[3:5])
    # the peel checks: the Moreau parts of the thinned elements, then the
    # effects and the thinned plus parts, each peeled as one stack
    peel_match = _sorted_gap(peel_spectral(cone, a[thinned], tol=tol)[0], eigs[5])
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
    checks += verify_unity_resolution(cone, seed, sweep, tol)
    checks += verify_certainty_order(cone, seed, sweep, tol, names=(
        "certainty_ip.pairing_attains_one", "certainty_ip.atom_below_effect"))
    checks += self_duality_report(cone, seed, min(trials, 200), tol)
    return checks


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
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    start = time.monotonic()
    names = list(SUITES) if suite == "all" else [suite]
    checks: list[CheckResult] = []
    for name in names:
        checks += SUITES[name](model, seed, trials, tol)
    report = VerificationReport(
        model=model.descriptor.to_json(),
        suite=suite,
        seed=seed,
        trials=trials,
        checks=checks,
        wall_time_ms=int((time.monotonic() - start) * 1000),
    )
    return report.canonical()
