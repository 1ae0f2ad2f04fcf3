"""The batched axioms and selfdual suites against per-element references.

``axioms_suite``, ``selfdual_suite`` and the verifiers they call
(``verify_atom_state_uniqueness``, ``verify_certainty_order``,
``verify_strong_state_space`` and ``self_duality_report``) gather every
trial's samples into (K, d) stacks and run each stage through the stack forms
of models and cones.  The references below are the per-trial loops they
replaced: every spectrum, cone defect, pairing, frame and Moreau split is
taken one element at a time (``spectral_form``, ``order_norm``,
``cone_defect``, ``inner``, ``frame``, ...), drawing from the same
``trial_rng`` streams in the same order.  Every defect, note and witness must
agree exactly, signs of zeros included.

Peeling runs on stacks, and its one-element form is the stack of one, so
the references peel with the per-element peel and split oracles frozen
below, as they were before the stacks; the stacked peel is pinned to them
row by row.  A cone's per-element methods are the one-row cases of its
stack forms too, so the references also freeze a generator cone's Moreau
split, cone defect and completion of an atom, and read a spectral cone's
frames and cone defects from its model's per-element kernels.
"""

import numpy as np
import pytest

from conftest import ALL_MODEL_SPECS, SYMMETRIC_MODEL_SPECS, draw_element
from jordantp import get_model
from jordantp.backends import ClassicalModel, LpQubitModel, SpinFactorModel
from jordantp.backends.base import Model
from jordantp.backends.qubit import half_atom
from jordantp.core import cone_contains, order_norm
from jordantp.errors import ConeProjectionError
from jordantp.logic import atomic_decomposition
from jordantp.reports import CheckResult, dump_canonical_json, skipped_check
from jordantp.selfdual import (
    GeneratorSelfDualCone,
    MoreauPair,
    PeeledAtom,
    SpectralSelfDualCone,
    peel_positive,
    peel_spectral,
    recover_order_unit,
)
from jordantp.spectral import random_element, trial_rng
from jordantp.suites import (
    _random_bounded_mixtures,
    _sorted_gap,
    axioms_suite,
    self_duality_report,
    selfdual_suite,
    verify_atom_state_uniqueness,
    verify_certainty_order,
    verify_pure_state_sampling,
    verify_strong_state_space,
    verify_unity_resolution,
)
from jordantp.transition import _mixture_value, atom_param
from test_selfdual import rotated_orthant, square_cone


# ---------------------------------------------------------------------------
# the per-element peel, frozen
# ---------------------------------------------------------------------------


def split_one(cone, x, tol):
    """The per-element orthogonal split: ``(head, rest)`` or None.  The
    model kernels are the per-element forms the stacked kernels replaced;
    a generator cone splits off the first active generator orthogonal to
    the rest, with cutoffs relative to the norm of ``x``."""
    if isinstance(cone, GeneratorSelfDualCone):
        vec = np.asarray(x, dtype=float)
        coeffs, residual = cone.nnls_fit(vec)
        if residual > 1e-7 * max(np.sqrt(abs(np.dot(vec, vec))), 1e-30):
            raise ConeProjectionError("orthogonal-split oracle needs a cone element")
        if coeffs.max() <= 0.0:
            return None
        active = np.flatnonzero(coeffs > 1e-12 * coeffs.max())
        scale = max(float(np.linalg.norm(vec)), 1e-30)
        for j in active if len(active) > 1 else []:
            head = coeffs[j] * cone.generators[j]
            if abs(np.dot(head, vec - head)) <= 1e-9 * scale**2:
                return head, vec - head
        return None
    model, coords = cone.model, cone.as_vec(x)
    if isinstance(model, ClassicalModel):
        support = np.flatnonzero(np.abs(coords) > tol.check_tol)
        if len(support) <= 1:
            return None
        head = np.zeros_like(coords)
        head[support[0]] = coords[support[0]]
        return head, coords - head
    if isinstance(model, (SpinFactorModel, LpQubitModel)):
        t, f = float(coords[0]), coords[1:]
        r = model.pnorm(f, 2.0) if isinstance(model, LpQubitModel) else float(np.linalg.norm(f))
        if abs(t - r) <= 10.0 * tol.check_tol * max(1.0, abs(t)):
            return None
        u = f / r if r > 0 else np.eye(len(f))[0]
        return (t + r) * half_atom(u), (t - r) * half_atom(-u)
    mat = model.to_matrix(coords)
    scale = max(float(np.real(np.trace(mat))), 1e-30)
    v = np.linalg.svd(mat)[0][:, 0]
    lam = float(np.real(np.vdot(v, mat @ v)))
    if lam <= 1e-12 * scale or np.linalg.norm(mat @ v - lam * v) > 1e-9 * scale:
        raise ConeProjectionError("orthogonal-split oracle needs a cone element")
    head = lam * np.outer(v, v.conj())
    rest = mat - head
    if float(np.linalg.norm(rest)) <= 1e-9 * scale:
        return None
    return model.matrix_coords(head), model.matrix_coords(rest)


def peel_one(cone, a, tol):
    """``peel_positive`` of one element, one split at a time."""
    out = []
    current = cone.as_vec(a).copy()
    scale = max(np.sqrt(abs(cone.inner(current, current))), 1e-30)
    budget = 4 * cone.ambient_dim + 8
    while np.sqrt(abs(cone.inner(current, current))) > 1e-10 * scale:
        if budget <= 0:
            raise ConeProjectionError("peeling did not terminate (oracle failure)")
        budget -= 1
        split = split_one(cone, current, tol)
        if split is None:
            s = float(np.sqrt(cone.inner(current, current)))
            out.append(PeeledAtom(s, cone.wrap(current / s)))
            break
        head, current = split
        s = float(np.sqrt(cone.inner(head, head)))
        if s > 1e-12 * scale:
            out.append(PeeledAtom(s, cone.wrap(head / s)))
    return out


def peel_spectral_one(cone, a, tol):
    """``peel_spectral`` of one element: both Moreau parts peeled, a part
    at most 1e-10 of the input's norm skipped."""
    pair = _moreau(cone, a, tol)
    vec = cone.as_vec(a)
    scale = np.sqrt(abs(cone.inner(vec, vec)))
    out = []
    for sign, part in ((1.0, pair.a_plus), (-1.0, pair.a_minus)):
        pv = cone.as_vec(part)
        if np.sqrt(abs(cone.inner(pv, pv))) > 1e-10 * scale:
            out += [PeeledAtom(sign * p.coefficient, p.atom) for p in peel_one(cone, part, tol)]
    return out


def frame_one(cone, x, tol):
    """A cone's frame of one element: a generator cone peels the
    projections of x and -x, a projection at most 1e-10 of the input's
    norm skipped; a spectral cone reads its spectral form."""
    if not isinstance(cone, GeneratorSelfDualCone):
        form = cone.model.spectral_form(cone.wrap(cone.as_vec(x)), tol)
        return list(map(PeeledAtom, form.eigenvalues.tolist(), form.atom_coords))
    vec = cone.as_vec(x)
    scale = np.sqrt(abs(cone.inner(vec, vec)))
    out = []
    for sign, part in ((1.0, cone.project(vec)), (-1.0, cone.project(-vec))):
        if np.sqrt(abs(cone.inner(part, part))) > 1e-10 * scale:
            out += [PeeledAtom(sign * p.coefficient, p.atom) for p in peel_one(cone, part, tol)]
    return out


def _random_bounded_mixture(space, rng):
    """One generator's mixture: the one-row draw of ``_random_bounded_mixtures``."""
    (first, second), (lam, rest) = _random_bounded_mixtures(space, [rng])
    return (first[0], second[0]), (lam[0], rest[0])


def _complement(space, e, tol):
    """The atoms completing ``e``, one element at a time: on a model the
    frame of unit - e from ``spectral_form``, on a cone its own method."""
    if isinstance(space, Model):
        form = space.spectral_form(space.element(space.order_unit().coords - e), tol)
        return list(form.atom_coords[form.eigenvalues > 0.5])
    if isinstance(space, GeneratorSelfDualCone):
        family = [e]
        for cand in space.extreme_generators():
            if all(abs(np.dot(cand, f)) <= 1e-12 * np.linalg.norm(f) for f in family):
                family.append(cand)
        return family[1:]
    rest = space.model.order_unit().coords - e
    if np.sqrt(abs(space.inner(rest, rest))) <= 1e3 * tol.check_tol:
        return []
    return [space.as_vec(p.atom) for p in peel_one(space, rest, tol)]


def _moreau(cone, a, tol):
    """The Moreau split of one element: a generator cone projects and checks
    the Moreau conditions, a spectral cone adds up the signed parts of its
    frame one atom at a time."""
    if isinstance(cone, GeneratorSelfDualCone):
        vec = np.asarray(a, dtype=float)
        plus = cone.project(vec)
        minus = plus - vec
        scale = max(float(np.linalg.norm(vec)), 1.0)
        cross = abs(float(np.dot(plus, minus)))
        dual_slack = float(np.min(cone.generators @ minus))
        if cross > 1e-8 * scale**2 or dual_slack < -1e-8 * scale:
            raise ConeProjectionError(
                f"projection failed Moreau conditions (cross={cross:.3e}, "
                f"dual slack={dual_slack:.3e})", residual=cross)
        return MoreauPair(plus, minus)
    plus = np.zeros(cone.ambient_dim)
    minus = np.zeros(cone.ambient_dim)
    for p in frame_one(cone, a, tol):
        if p.coefficient >= 0.0:
            plus += p.coefficient * cone.as_vec(p.atom)
        else:
            minus -= p.coefficient * cone.as_vec(p.atom)
    return MoreauPair(cone.wrap(plus), cone.wrap(minus))


def _cone_defect(space, x, tol):
    """The cone defect of one element: a generator cone's NNLS residual
    relative to max(|x|, 1), in hundredths, otherwise the model's."""
    if isinstance(space, GeneratorSelfDualCone):
        vec = np.asarray(x, dtype=float)
        return space.nnls_fit(vec)[1] / (1e2 * max(float(np.linalg.norm(vec)), 1.0))
    return (space if isinstance(space, Model) else space.model).cone_defect(x, tol)


def _contains(cone, x, tol):
    return _cone_defect(cone, x, tol) <= tol.cone_slack


def reference_uniqueness(space, seed, trials, tol):
    self_defect = 0.0
    mixed_max = 0.0
    half_defect = 0.0
    can_mix = space.info_capacity >= 2
    for k in range(trials):
        ep = space.random_atom_param(trial_rng(seed, k))
        e = space.atom_coords(ep)
        self_defect = max(self_defect, abs(space.state_value(ep, e) - 1.0))
        if not can_mix:
            continue
        mixture = _random_bounded_mixture(space, trial_rng(seed, k, "mixtures"))
        mixed_max = max(mixed_max, _mixture_value(space, *mixture, e))
        comp = _complement(space, e, tol)
        if comp:
            half = (ep, space.atom_param_from_coords(comp[0]))
            half_defect = max(half_defect, abs(_mixture_value(space, half, (0.5, 0.5), e) - 0.5))
    checks = [CheckResult("states.atom_state_attains_one", self_defect, tol.check_tol)]
    if can_mix:
        checks.append(CheckResult(
            "states.mixed_states_below_one", mixed_max, 1.0 - 1e-6,
            note="uniqueness is analytic per backend; sampled evidence only"))
        checks.append(CheckResult("states.half_mixture_value", half_defect, tol.check_tol))
    else:
        checks += [skipped_check(name, "capacity-1 model has a single state")
                   for name in ("states.mixed_states_below_one", "states.half_mixture_value")]
    return checks


def reference_certainty(space, seed, trials, tol,
                        names=("certainty.state_attains_one", "certainty.atom_below_effect")):
    value_defect = 0.0
    order_defect = 0.0
    for k in range(trials):
        ep = space.random_atom_param(trial_rng(seed, k))
        e = space.atom_coords(ep)
        a = e
        rng = trial_rng(seed, k, "junk")
        for f in _complement(space, e, tol):
            a = a + float(rng.uniform()) * f
        value_defect = max(value_defect, abs(space.state_value(ep, a) - 1.0))
        order_defect = max(order_defect, _cone_defect(space, a - e, tol))
    return [CheckResult(names[0], value_defect, tol.check_tol),
            CheckResult(names[1], order_defect, tol.cone_slack)]


def reference_uncertain(model, seed, trials):
    uncertain = 0
    for k in range(trials):
        ep = model.random_atom_param(trial_rng(seed, k))
        b = draw_element(model, trial_rng(seed, k, "uncertain"), "unit_interval")
        uncertain += model.state_value(ep, b.coords) < 1.0 - 1e-6
    return CheckResult("certainty.uncertain_samples_no_claim", 0.0, 0.0,
                       note=f"{uncertain}/{trials} sampled effects had P_e(a) < 1; no claim made")


def reference_strong(model, seed, trials, tol):
    consistency = 0.0
    witness_missing = 0
    witness_level = 0.0
    worst_margin = 0.0
    comparable = 0
    incomparable = 0
    for k in range(trials):
        rng = trial_rng(seed, k)
        p = draw_element(model, rng, "logic")
        q = draw_element(model, rng, "logic")
        params = [atom_param(model, e) for e in atomic_decomposition(model, p, tol)]
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


def reference_axioms(model, seed, trials, tol):
    checks = reference_uniqueness(model, seed, trials, tol)
    checks += verify_pure_state_sampling(model, seed, min(trials, 64))
    checks += reference_certainty(model, seed, trials, tol)
    checks.append(reference_uncertain(model, seed, trials))
    return checks + reference_strong(model, seed, trials, tol)


def reference_cloud_systems(model, seed, trials):
    """The NNLS systems (matrix, target) of ``verify_pure_state_sampling``,
    one element at a time: ``trial_rng(seed, 0)`` draws the m first atoms,
    then in each rejection round one candidate for every mixture still
    pending, in mixture order, then the m weights; each pure state is the
    atom of ``trial_rng(seed, k + 1)``."""
    rng = trial_rng(seed, 0)
    m = min(max(trials, 8), 64)
    first = [model.random_atom_param(rng) for _ in range(m)]
    second = [None] * m
    pending = list(range(m))
    while pending:
        for i in pending:
            cand = model.random_atom_param(rng)
            if (model.transition_from_params(first[i], cand) <= 0.95
                    and model.transition_from_params(cand, first[i]) <= 0.95):
                second[i] = cand
        pending = [i for i in pending if second[i] is None]
    lam = [rng.uniform(0.2, 0.8) for _ in range(m)]
    basis = np.eye(model.ambient_dim)
    cloud = np.array([[_mixture_value(model, (f, g), (w, 1.0 - w), e) for e in basis]
                      for f, g, w in zip(first, second, lam)])
    matrix = np.vstack([cloud.T, 1e3 * np.ones(m)])
    pures = [[_mixture_value(model, (model.random_atom_param(trial_rng(seed, k + 1)),),
                             (1.0,), e) for e in basis] for k in range(8)]
    return [(matrix, np.concatenate([pure, [1e3]])) for pure in pures]


def reference_self_duality(cone, seed, trials, tol):
    # every pair of listed extreme rays, then the sampled pairs
    rays = cone.extreme_generators()
    forward = max([0.0] + [-cone.inner(r, s) for r in rays for s in rays])
    reverse = 0.0
    mismatches = 0
    witness_defect = 0.0
    witness = None
    plus_pairing = 0.0
    dual_in_cone = 0.0
    for k in range(trials):
        rng = trial_rng(seed, k)
        a = cone.random_positive(rng)
        forward = max(forward, -cone.inner(a, cone.random_positive(rng)))
        c = cone.random_element(rng)
        frame = frame_one(cone, c, tol)
        pairings = [cone.inner(p.atom, c) for p in frame]
        reverse = max([reverse] + [abs(v - p.coefficient) for v, p in zip(pairings, frame)])
        if all(v >= -tol.cone_slack for v in pairings) != _contains(cone, c, tol):
            mismatches += 1
        family = cone.random_frame_params(rng)
        coeffs = np.abs(rng.normal(size=len(family))) + 0.1
        neg = int(rng.integers(len(family)))
        coeffs[neg] = -0.1 - abs(rng.normal())
        bad = sum(w * cone.as_vec(f) for w, f in zip(coeffs, family))
        pairing = cone.inner(bad, family[neg])
        if pairing + 0.05 > witness_defect:
            witness_defect = pairing + 0.05
            witness = tuple(bad)
        pair = _moreau(cone, c, tol)
        plus_pairing = max(plus_pairing, -cone.inner(pair.a_plus, a))
        if not _contains(cone, pair.a_minus, tol):
            dual_in_cone = 1.0
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


def reference_selfdual(model, seed, trials, tol):
    if not model.symmetric_tp:  # this branch samples nothing
        return selfdual_suite(model, seed, trials, tol)
    cone = SpectralSelfDualCone(model)
    recon = cross = uniqueness = peel_match = peel_interval = orth_parts = 0.0
    membership = 0
    sweep = min(trials, 120)
    for k in range(sweep):
        rng = trial_rng(seed, k)
        a = cone.random_element(rng)
        pair = _moreau(cone, a, tol)
        recon = max(recon, order_norm(model, (pair.a_plus - pair.a_minus) - a, tol))
        cross = max(cross, abs(cone.inner(pair.a_plus, pair.a_minus)))
        if not (_contains(cone, pair.a_plus, tol) and _contains(cone, pair.a_minus, tol)):
            membership += 1
        again = _moreau(cone, pair.a_plus - pair.a_minus, tol)
        uniqueness = max(uniqueness,
                         order_norm(model, again.a_plus - pair.a_plus, tol),
                         order_norm(model, again.a_minus - pair.a_minus, tol))
        if k % 5 == 0:
            coeffs = np.array([p.coefficient for p in peel_spectral_one(cone, a, tol)])
            eigs = model.eigenvalues(a, tol)
            width = max(len(coeffs), len(eigs))
            coeffs = np.sort(np.pad(coeffs, (0, width - len(coeffs))))
            eigs = np.sort(np.pad(eigs, (0, width - len(eigs))))
            peel_match = max(peel_match, float(np.max(np.abs(coeffs - eigs))))
            b = draw_element(model, trial_rng(seed, k, "effects"), "unit_interval")
            for p in peel_one(cone, b, tol):
                peel_interval = max(peel_interval, -p.coefficient, p.coefficient - 1.0)
            parts = peel_one(cone, pair.a_plus, tol)
            if parts and order_norm(model, pair.a_minus, tol) > 1e-6:
                half = sum(p.coefficient * cone.as_vec(p.atom) for p in parts[::2])
                orth_parts = max(orth_parts, abs(cone.inner(cone.wrap(half), pair.a_minus)))
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
    checks += reference_certainty(cone, seed, sweep, tol, names=(
        "certainty_ip.pairing_attains_one", "certainty_ip.atom_below_effect"))
    return checks + reference_self_duality(cone, seed, min(trials, 200), tol)


def _report(checks):
    """The checks as the report prints them: names, defects to the last bit
    and the sign of zero, tolerances, notes and witnesses."""
    return dump_canonical_json([check.to_json() for check in checks])


# 130 trials pass the Moreau sweep's cap of 120 trials and 260 the
# self-duality report's cap of 200
@pytest.mark.parametrize("kind,n,p", ALL_MODEL_SPECS)
@pytest.mark.parametrize("trials", [1, 8, 24, 130, 260])
def test_axioms_and_selfdual_suites_equal_the_per_element_references(kind, n, p, trials, tol):
    model = get_model(kind, n, p)
    for seed in range(5):
        want_axioms = _report(reference_axioms(model, seed, trials, tol))
        want_selfdual = _report(reference_selfdual(model, seed, trials, tol))
        assert _report(axioms_suite(model, seed, trials, tol)) == want_axioms
        assert _report(selfdual_suite(model, seed, trials, tol)) == want_selfdual


GENERATOR_CONES = {
    "rotated orthant": rotated_orthant,
    "rotated orthant, scale 1e-8": lambda: rotated_orthant(scale=1e-8),
    "rotated 5-orthant": lambda: rotated_orthant(5, seed=3),
    "square cone": square_cone,
    "square cone, scale 1e8": lambda: square_cone(1e8),
    "oblique cone": lambda: GeneratorSelfDualCone(
        np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.6, 0.8]])),
}


@pytest.mark.parametrize("make", list(GENERATOR_CONES.values()), ids=list(GENERATOR_CONES))
def test_cone_verifiers_equal_the_per_element_references_on_generator_cones(make, tol):
    cone = make()
    for seed in range(3):
        for trials in (1, 8, 30):
            assert (_report(self_duality_report(cone, seed, trials, tol))
                    == _report(reference_self_duality(cone, seed, trials, tol)))
            assert (_report(verify_certainty_order(cone, seed, trials, tol))
                    == _report(reference_certainty(cone, seed, trials, tol)))
            assert (_report(verify_atom_state_uniqueness(cone, seed, trials, tol))
                    == _report(reference_uniqueness(cone, seed, trials, tol)))


def _assert_rows_peeled(cone, stacked, per_row):
    """Padded frames (K, m), (K, m, d) against one list of ``PeeledAtom``
    per row: the same number of atoms, the same bits, zero padding."""
    values, atoms = stacked
    assert len(values) == len(per_row)
    for row_values, row_atoms, want in zip(values, atoms, per_row):
        count = len(want)
        assert np.count_nonzero(row_values) == count
        assert row_values[:count].tobytes() == np.array([p.coefficient for p in want]).tobytes()
        got = row_atoms[:count].tobytes()
        want_atoms = np.array([cone.as_vec(p.atom) for p in want]).reshape(count, cone.ambient_dim)
        assert got == want_atoms.tobytes()
        assert not row_values[count:].any() and not row_atoms[count:].any()


@pytest.mark.parametrize("kind,n,p", SYMMETRIC_MODEL_SPECS)
def test_the_stacked_peel_equals_the_per_element_peel_row_by_row(kind, n, p, tol):
    # the atom count of a complement fixes the junk-weight draws of
    # verify_certainty_order, so counts must agree exactly
    model = get_model(kind, n, p)
    cone = SpectralSelfDualCone(model)
    draws = {shape: np.array([random_element(model, seed, shape).coords for seed in range(40)])
             for shape in ("positive", "any", "logic", "unit_interval")}
    atoms = model.atom_coords_batch(model.random_atom_param_batch(
        [trial_rng(5, k) for k in range(40)]))
    positive = draws["positive"]
    for stack in (positive, 1e-6 * positive, 1e6 * positive, draws["logic"],
                  draws["unit_interval"], model.order_unit().coords - atoms):
        _assert_rows_peeled(cone, peel_positive(cone, stack, tol),
                            [peel_one(cone, x, tol) for x in stack])
    for stack in (draws["any"], positive, draws["logic"]):
        _assert_rows_peeled(cone, peel_spectral(cone, stack, tol),
                            [peel_spectral_one(cone, x, tol) for x in stack])
    for got, e in zip(cone.complements(atoms, tol), atoms):
        want = _complement(cone, e, tol)
        assert len(got) == len(want)
        assert got.tobytes() == np.array(want).reshape(len(want), cone.ambient_dim).tobytes()


@pytest.mark.parametrize("make", list(GENERATOR_CONES.values()), ids=list(GENERATOR_CONES))
def test_the_stacked_peel_equals_the_per_element_peel_on_generator_cones(make, tol):
    # on a cone that is not self-dual, a minus part may lie outside the cone,
    # and the stack raises where a row raises
    cone = make()
    rngs = [trial_rng(2, k) for k in range(12)]
    positive = np.array([cone.random_positive(rng) for rng in rngs])
    mixed = np.array([cone.random_element(rng) for rng in rngs])
    rays = cone.extreme_generators()  # whose opposite projections are rounding noise
    for stacked, one, stack in ((peel_positive, peel_one, positive),
                                (type(cone).frames, frame_one,
                                 np.concatenate((mixed, rays, -rays))),
                                (peel_spectral, peel_spectral_one, mixed)):
        try:
            per_row = [one(cone, x, tol) for x in stack]
        except ConeProjectionError:
            with pytest.raises(ConeProjectionError):
                stacked(cone, stack, tol)
            continue
        _assert_rows_peeled(cone, stacked(cone, stack, tol), per_row)


def test_the_peel_comparison_pads_both_sides_with_zeros():
    # the zero of a frame that skipped its first atom is compared like any
    # other entry, and a shorter spectrum has zero eigenvalues to fill it
    assert _sorted_gap(np.array([[0.0, -1.2, 1.0]]), np.array([[-1.2]])) == 1.0
    assert _sorted_gap(np.array([[2.0, 0.0], [0.0, 0.5]]),
                       np.array([[2.0, 0.0, 0.0], [0.25, 0.0, 0.0]])) == 0.25
    assert _sorted_gap(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0, 0.0]])) == 0.0


def test_the_square_cone_fails_the_same_self_duality_checks(tol):
    # the cone over a square lies in its dual but is not self-dual
    checks = self_duality_report(square_cone(), 5, 60, tol)
    assert _report(checks) == _report(reference_self_duality(square_cone(), 5, 60, tol))
    assert [c.name for c in checks if not c.passed] == [
        "selfdual.membership_agreement", "selfdual.dual_vectors_in_cone"]


@pytest.mark.parametrize("kind,n,p", ALL_MODEL_SPECS)
def test_trial_counts_below_one_are_refused(kind, n, p, tol):
    model = get_model(kind, n, p)
    spaces = [model, square_cone()] + ([SpectralSelfDualCone(model)] if model.symmetric_tp else [])
    for trials in (0, -3):
        for suite in (axioms_suite, selfdual_suite, verify_strong_state_space):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                suite(model, 1, trials, tol)
        for space in spaces:
            for verifier in (verify_atom_state_uniqueness, verify_certainty_order,
                             verify_unity_resolution):
                with pytest.raises(ValueError, match="trials must be >= 1"):
                    verifier(space, 1, trials, tol)
        for cone in spaces[1:]:
            with pytest.raises(ValueError, match="trials must be >= 1"):
                self_duality_report(cone, 1, trials, tol)


# ---------------------------------------------------------------------------
# the pure-state cloud: one rejection batch on one generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,n,p", ALL_MODEL_SPECS)
def test_the_pure_state_cloud_draws_the_stream_of_the_per_element_loop(monkeypatch, kind, n, p):
    import scipy.optimize

    model = get_model(kind, n, p)
    systems = []
    nnls = scipy.optimize.nnls

    def captured(matrix, target, **kwargs):
        systems.append((matrix.copy(), target.copy()))
        return nnls(matrix, target, **kwargs)

    monkeypatch.setattr(scipy.optimize, "nnls", captured)
    for seed in range(3):
        for trials in (1, 24, 64):
            systems.clear()
            verify_pure_state_sampling(model, seed, trials)
            want = reference_cloud_systems(model, seed, trials)
            assert len(systems) == len(want) == 8
            for (matrix, target), (want_matrix, want_target) in zip(systems, want):
                assert matrix.shape == want_matrix.shape
                assert matrix.tobytes() == want_matrix.tobytes()
                assert target.tobytes() == want_target.tobytes()


@pytest.mark.parametrize("kind,n,p", ALL_MODEL_SPECS)
def test_the_pure_states_stay_outside_the_cloud(kind, n, p):
    # the residual's margin over the 1e-3 threshold is the check's only
    # numerics: a cloud that came near a pure state would fail it
    model = get_model(kind, n, p)
    for seed in range(20):
        for trials in (1, 8, 24, 64):
            (check,) = verify_pure_state_sampling(model, seed, trials)
            assert check.name == "states.pure_states_extremal"
            assert check.passed and check.defect == 0.0, (seed, trials)
