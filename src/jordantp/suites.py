"""Named verification suites producing machine-readable reports.

Each suite is a pure function of (model, seed, trials, tolerances) returning
a list of CheckResults; ``run_suite`` wraps them into a VerificationReport
with canonical check ordering.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

from .backends.base import Model, cone_distance, remembering_spectra
from .core import cone_contains, order_norm, order_norms
from .elements import DEFAULT_TOL, Tolerance, resum
from .logic import (
    information_capacity_empirical,
    is_logic_element,
    is_orthogonal_family,
    join,
    logic_element,
    meet,
    orthocomplement,
)
from .reports import CheckResult, VerificationReport, skipped_check
from .selfdual import (
    SpectralSelfDualCone,
    moreau_decompose,
    peel_positive,
    peel_spectral,
    recover_order_unit,
    self_duality_report,
)
from .spectral import (
    _random_element,
    linearity_defects,
    polarized_coords,
    trial_coords,
    trial_rng,
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
    contained = [cone_distance(least) <= tol.cone_slack for least in eigs.min(axis=1).tolist()]
    oracle = [model.cone_oracle(row, tol.cone_slack) for row in a]
    # frame orthogonality and calculus identities, thinned
    thinned = slice(0, trials, 10)
    frame_orth = [_tp_of_atoms(model, e1, e2)
                  for frame in atoms[thinned] for e1, e2 in combinations(frame, 2)]
    unit_product = order_norms(model, polarized_coords(model, a[thinned], unit, tol)
                               - a[thinned], tol)
    lin_defect = worst(linearity_defects(model, a[:lin], b, c, tol))
    checks = [
        CheckResult("spectral.reconstruction", worst(residuals), tol.check_tol),
        CheckResult("spectral.frame_sums_to_unit", worst(frame_sum), tol.check_tol),
        CheckResult("spectral.frame_orthogonality", worst(np.array(frame_orth)), tol.check_tol),
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


def _random_logic_pair_leq(model: Model, rng: np.random.Generator):
    """Logic elements p <= q built from one random frame."""
    frame = [model.atom(param) for param in model.random_frame_params(rng)]
    m = len(frame)
    in_q = rng.integers(0, 2, size=m).astype(bool)
    in_p = in_q & rng.integers(0, 2, size=m).astype(bool)
    p = model.zero()
    q = model.zero()
    for flag_p, flag_q, atom in zip(in_p, in_q, frame):
        if flag_q:
            q = q + atom
        if flag_p:
            p = p + atom
    return p, q, frame, in_p, in_q


def logic_suite(model: Model, seed: int, trials: int,
                tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    unit = model.order_unit()
    involution = 0.0
    complement_logic = 0
    sum_rule = 0
    difference_rule = 0
    orthomodular = 0.0
    bounds = 0.0
    difference_identity = 0.0
    family_agreement = 0
    for k in range(min(trials, 250)):
        rng = trial_rng(seed, k)
        p, q, frame, in_p, in_q = _random_logic_pair_leq(model, rng)
        pl = logic_element(model, p, tol)
        ql = logic_element(model, q, tol)
        cp = orthocomplement(model, pl, tol)
        involution = max(involution, order_norm(
            model, orthocomplement(model, cp, tol).value - p, tol))
        if not is_logic_element(model, unit - p, tol):
            complement_logic += 1
        # adding an orthogonal atom / removing a contained atom stays in the logic
        free = [i for i in range(len(frame)) if not in_q[i]]
        if free and not is_logic_element(model, q + frame[free[0]], tol):
            sum_rule += 1
        used = [i for i in range(len(frame)) if in_p[i]]
        if used and not is_logic_element(model, p - frame[used[0]], tol):
            difference_rule += 1
        # orthomodularity and the difference identity for p <= q
        diff = meet(model, ql, cp, tol)
        rec = join(model, pl, diff, tol)
        orthomodular = max(orthomodular, order_norm(model, rec.value - q, tol))
        difference_identity = max(difference_identity,
                                  order_norm(model, (q - p) - diff.value, tol))
        # meet/join bracket the pair
        mq = meet(model, pl, ql, tol).value
        jq = join(model, pl, ql, tol).value
        for upper in (p, q):
            bounds = max(bounds, model.cone_defect(upper - mq, tol),
                         model.cone_defect(jq - upper, tol))
        # orthogonal family criterion equals the pairwise criterion
        atoms = [frame[i] for i in range(len(frame)) if in_q[i]]
        if len(atoms) >= 2:
            pairwise = all(
                _tp_of_atoms(model, atoms[i].coords, atoms[j].coords) <= 1e-7
                for i in range(len(atoms)) for j in range(i + 1, len(atoms)) )
            if pairwise != is_orthogonal_family(model, atoms, tol):
                family_agreement += 1
            doubled = atoms + [atoms[0]]
            if is_orthogonal_family(model, doubled, tol):
                family_agreement += 1
    capacity = information_capacity_empirical(model, seed, max(4, min(trials, 12)), tol)
    return [
        CheckResult("logic.involution", involution, tol.check_tol),
        CheckResult("logic.complement_stays_extreme", float(complement_logic), 0.0),
        CheckResult("logic.atom_sum_stays_extreme", float(sum_rule), 0.0),
        CheckResult("logic.atom_difference_stays_extreme", float(difference_rule), 0.0),
        CheckResult("logic.orthomodular_law", orthomodular, 1e-8),
        CheckResult("logic.difference_identity", difference_identity, 1e-8),
        CheckResult("logic.meet_join_bracket", bounds, tol.cone_slack * 10.0),
        CheckResult("logic.orthogonal_family_pairwise", float(family_agreement), 0.0),
        CheckResult("logic.information_capacity",
                    float(abs(capacity - model.info_capacity)), 0.0,
                    note=f"greedy search found {capacity}, analytic {model.info_capacity}"),
    ]


def _tp_of_atoms(model: Model, e1: np.ndarray, e2: np.ndarray) -> float:
    """The larger transition probability between two atoms, by coordinates."""
    if model.symmetric_tp:
        return abs(model.native_pairing(e1, e2))
    p1 = model.atom_param_from_coords(e1)
    p2 = model.atom_param_from_coords(e2)
    return max(abs(model.transition_from_params(p1, p2)),
               abs(model.transition_from_params(p2, p1)))


# ---------------------------------------------------------------------------
# transition-probability suite
# ---------------------------------------------------------------------------


def tp_suite(model: Model, seed: int, trials: int,
             tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    diag = 0.0
    value_range = 0.0
    biconditional = 0
    top_atom = 0.0
    top_atom_cone = 0.0
    symmetry = 0.0
    for k in range(trials):
        rng = trial_rng(seed, k)
        p1 = model.random_atom_param(rng)
        p2 = model.random_atom_param(rng)
        t11 = model.transition_from_params(p1, p1)
        t12 = model.transition_from_params(p1, p2)
        t21 = model.transition_from_params(p2, p1)
        diag = max(diag, abs(t11 - 1.0))
        symmetry = max(symmetry, abs(t12 - t21))
        for t in (t12, t21):
            value_range = max(value_range, max(0.0, -t), max(0.0, t - 1.0))
        # orthogonality biconditional on the pair and on an orthogonal frame pair;
        # pairs in the gray band around zero are set aside, not classified
        e1, e2 = model.atom(p1), model.atom(p2)
        values = (t12, t21, model.cone_defect(model.order_unit() - e1 - e2, tol))
        if not any(1e-8 < v < 1e-4 for v in values):
            flags = tuple(v <= 1e-8 for v in values)
            if len(set(flags)) != 1:
                biconditional += 1
        frame = model.random_frame_params(rng)
        if len(frame) >= 2:
            f12 = model.transition_from_params(frame[0], frame[1])
            f21 = model.transition_from_params(frame[1], frame[0])
            both = cone_contains(model, model.order_unit()
                                 - model.atom(frame[0]) - model.atom(frame[1]), tol)
            if not (abs(f12) <= 1e-8 and abs(f21) <= 1e-8 and both):
                biconditional += 1
        # a positive element attains its norm at the top frame atom
        a = _random_element(model, rng, "positive")
        top = model.spectral_form(a, tol).atom_coords[0]
        top_param = model.atom_param_from_coords(top)
        norm = order_norm(model, a, tol)
        top_atom = max(top_atom, abs(model.state_value(top_param, a.coords) - norm))
        top_atom_cone = max(top_atom_cone, model.cone_defect(a.coords - norm * top, tol))
    checks = [
        CheckResult("tp.diagonal_is_one", diag, tol.check_tol),
        CheckResult("tp.values_in_unit_range", value_range, tol.check_tol),
        CheckResult("tp.orthogonality_biconditional", float(biconditional), 0.0),
        CheckResult("tp.top_atom_attains_norm", top_atom, tol.check_tol),
        CheckResult("tp.top_atom_below_element", top_atom_cone, tol.cone_slack * 10.0),
        CheckResult("tp.symmetry", symmetry, tol.check_tol,
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
    uncertain = 0
    for k in range(trials):
        rng = trial_rng(seed, k)
        ep = model.random_atom_param(rng)
        b = _random_element(model, rng, "unit_interval")
        uncertain += model.state_value(ep, b.coords) < 1.0 - 1e-6
    return CheckResult("certainty.uncertain_samples_no_claim", 0.0, 0.0,
                       note=f"{uncertain}/{trials} sampled effects had P_e(a) < 1; no claim made")


# ---------------------------------------------------------------------------
# self-dual cone suite
# ---------------------------------------------------------------------------


def selfdual_suite(model: Model, seed: int, trials: int,
                   tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
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
    recon = 0.0
    cross = 0.0
    membership = 0
    uniqueness = 0.0
    peel_match = 0.0
    peel_interval = 0.0
    orth_parts = 0.0
    sweep = min(trials, 120)
    for k in range(sweep):
        rng = trial_rng(seed, k)
        a = cone.random_element(rng)
        pair = moreau_decompose(cone, a, tol)
        recon = max(recon, order_norm(model, (pair.a_plus - pair.a_minus) - a, tol))
        cross = max(cross, abs(cone.inner(pair.a_plus, pair.a_minus)))
        if not (cone.contains(pair.a_plus, tol) and cone.contains(pair.a_minus, tol)):
            membership += 1
        again = moreau_decompose(cone, pair.a_plus - pair.a_minus, tol)
        uniqueness = max(uniqueness,
                         order_norm(model, again.a_plus - pair.a_plus, tol),
                         order_norm(model, again.a_minus - pair.a_minus, tol))
        if k % 5 == 0:
            peeled = peel_spectral(cone, a, tol=tol)
            coeffs = np.array([p.coefficient for p in peeled])
            eigs = model.eigenvalues(a, tol)
            width = max(len(coeffs), len(eigs))
            coeffs = np.sort(np.pad(coeffs, (0, width - len(coeffs))))
            eigs = np.sort(np.pad(eigs, (0, width - len(eigs))))
            peel_match = max(peel_match, float(np.max(np.abs(coeffs - eigs))))
            b = _random_element(model, rng, "unit_interval")
            for p in peel_positive(cone, b, tol=tol):
                peel_interval = max(peel_interval, -p.coefficient, p.coefficient - 1.0)
            # orthogonal positive parts inherit orthogonality from their sum
            parts = peel_positive(cone, pair.a_plus, tol=tol)
            if parts and order_norm(model, pair.a_minus, tol) > 1e-6:
                half = sum(p.coefficient * cone.as_vec(p.atom) for p in parts[::2])
                orth_parts = max(orth_parts,
                                 abs(cone.inner(cone.wrap(half), pair.a_minus)))
    unit_defect = order_norm(model, recover_order_unit(cone, seed) - model.order_unit(), tol)
    checks = [
        CheckResult("moreau.reconstruction", recon, tol.check_tol),
        CheckResult("moreau.orthogonality", cross, tol.check_tol),
        CheckResult("moreau.parts_in_cone", float(membership), 0.0),
        CheckResult("moreau.uniqueness", uniqueness, tol.check_tol),
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
    with remembering_spectra():
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
