"""The batched tp and logic suites against per-element references.

``tp_suite`` (with ``check_inner_product``) and ``logic_suite`` gather every
trial's samples into (K, d) stacks and run each stage through the batch
kernels.  The references below are the per-trial loops they replaced: each
sample is an ``Element`` and every spectrum goes through the per-element API
(``spectral_form``, ``order_norm``, ``cone_defect``, ``meet``, ``join``,
``is_logic_element``, ...), drawing from the same ``trial_rng`` streams in
the same order.
Every defect and note must agree exactly, signs of zeros included.
"""

import numpy as np
import pytest

from conftest import ALL_MODEL_SPECS, draw_element, report_text
from jordantp import get_model
from jordantp.core import cone_contains, order_norm
from jordantp.logic import (
    atomic_decomposition,
    is_logic_element,
    is_orthogonal_family,
    join,
    logic_element,
    meet,
    orthocomplement,
)
from jordantp.reports import CheckResult
from jordantp.spectral import trial_rng
from jordantp.suites import check_inner_product, logic_suite, tp_suite, verify_unity_resolution


def _tp(model, e1, e2):
    if model.symmetric_tp:
        return abs(model.native_pairing(e1, e2))
    p1 = model.atom_param_from_coords(e1)
    p2 = model.atom_param_from_coords(e2)
    return max(abs(model.transition_from_params(p1, p2)),
               abs(model.transition_from_params(p2, p1)))


def _inner_product(model, a, b, tol):
    """<a|b> from the frame of a, one atom pairing at a time, added in frame
    order from zero."""
    form = model.spectral_form(a, tol)
    total = 0.0
    for s, atom in zip(form.eigenvalues.tolist(), form.atom_coords):
        total += s * model.native_pairing(atom, b.coords)
    return total


def reference_inner_product(model, seed, trials, tol):
    if not model.symmetric_tp:  # this branch samples nothing
        return check_inner_product(model, seed, trials, tol)
    m = model.info_capacity
    sym_defect = bilin_defect = atom_defect = lower = upper = 0.0
    pd_defect = -np.inf
    for k in range(trials):
        a, b, c = (draw_element(model, trial_rng(seed, k, stream)) for stream in ("", "b", "c"))
        rng = trial_rng(seed, k, "ip")
        alpha = float(rng.normal())
        ab = _inner_product(model, a, b, tol)
        ba = _inner_product(model, b, a, tol)
        sym_defect = max(sym_defect, abs(ab - ba))
        lhs = _inner_product(model, alpha * a + c, b, tol)
        bilin_defect = max(bilin_defect, abs(lhs - alpha * ab - _inner_product(model, c, b, tol)))
        lhs2 = _inner_product(model, b, alpha * a + c, tol)
        bilin_defect = max(bilin_defect, abs(lhs2 - alpha * ba - _inner_product(model, b, c, tol)))
        norm_a = order_norm(model, a, tol)
        aa = _inner_product(model, a, a, tol)
        pd_defect = max(pd_defect, norm_a**2 - aa)
        hilbert = np.sqrt(max(aa, 0.0))
        lower = max(lower, norm_a - hilbert)
        upper = max(upper, hilbert - np.sqrt(m) * norm_a)
        e1 = model.random_atom_param(rng)
        e2 = model.random_atom_param(rng)
        atom_defect = max(atom_defect, abs(
            _inner_product(model, model.atom(e1), model.atom(e2), tol)
            - model.transition_from_params(e1, e2)))
    unit = model.order_unit()
    unit_unit = _inner_product(model, unit, unit, tol)
    e = model.atom(model.random_atom_param(trial_rng(seed, trials)))
    tight_unit = abs(np.sqrt(unit_unit) - np.sqrt(m) * order_norm(model, unit, tol))
    tight_atom = max(abs(np.sqrt(_inner_product(model, e, e, tol)) - 1.0),
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


def reference_tp(model, seed, trials, tol):
    diag = value_range = top_atom = top_atom_cone = symmetry = 0.0
    biconditional = 0
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
        a = draw_element(model, rng, "positive")
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
    return checks + reference_inner_product(model, seed, min(trials, 200), tol)


def _random_logic_pair_leq(model, rng):
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


def reference_capacity(model, seed, trials, tol):
    unit = model.order_unit()
    best = 0
    for k in range(trials):
        family = [model.atom(model.random_atom_param(trial_rng(seed, k)))]
        rng = trial_rng(seed, k, "picks")
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


def reference_logic(model, seed, trials, tol):
    unit = model.order_unit()
    involution = orthomodular = bounds = difference_identity = 0.0
    complement_logic = sum_rule = difference_rule = family_agreement = 0
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
        free = [i for i in range(len(frame)) if not in_q[i]]
        if free and not is_logic_element(model, q + frame[free[0]], tol):
            sum_rule += 1
        used = [i for i in range(len(frame)) if in_p[i]]
        if used and not is_logic_element(model, p - frame[used[0]], tol):
            difference_rule += 1
        diff = meet(model, ql, cp, tol)
        rec = join(model, pl, diff, tol)
        orthomodular = max(orthomodular, order_norm(model, rec.value - q, tol))
        difference_identity = max(difference_identity,
                                  order_norm(model, (q - p) - diff.value, tol))
        mq = meet(model, pl, ql, tol).value
        jq = join(model, pl, ql, tol).value
        for upper in (p, q):
            bounds = max(bounds, model.cone_defect(upper - mq, tol),
                         model.cone_defect(jq - upper, tol))
        atoms = [frame[i] for i in range(len(frame)) if in_q[i]]
        if len(atoms) >= 2:
            pairwise = all(
                _tp(model, atoms[i].coords, atoms[j].coords) <= 1e-7
                for i in range(len(atoms)) for j in range(i + 1, len(atoms)))
            if pairwise != is_orthogonal_family(model, atoms, tol):
                family_agreement += 1
            if is_orthogonal_family(model, atoms + [atoms[0]], tol):
                family_agreement += 1
    capacity = reference_capacity(model, seed, max(4, min(trials, 12)), tol)
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


# 260 trials pass the logic suite's cap of 250 trials and check_inner_product's
# cap of 200
@pytest.mark.parametrize("kind,n,p", ALL_MODEL_SPECS)
@pytest.mark.parametrize("trials", [1, 8, 24, 260])
def test_tp_and_logic_suites_equal_the_per_element_references(kind, n, p, trials, tol):
    model = get_model(kind, n, p)
    for seed in range(5):
        want_tp = report_text(reference_tp(model, seed, trials, tol))
        want_logic = report_text(reference_logic(model, seed, trials, tol))
        assert report_text(tp_suite(model, seed, trials, tol)) == want_tp
        assert report_text(logic_suite(model, seed, trials, tol)) == want_logic


@pytest.mark.parametrize("kind,n,p", ALL_MODEL_SPECS)
def test_trial_counts_below_one_are_refused(kind, n, p, tol):
    model = get_model(kind, n, p)
    for trials in (0, -3):
        for sampler in (check_inner_product, logic_suite, tp_suite):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                sampler(model, 1, trials, tol)
