"""The batched spectral suite against a per-element reference.

``spectral_suite`` and ``linearity_defect`` decompose every trial's samples
as one (K, d) stack.  The reference below computes the same defects one
element at a time through the public per-element API (``spectral_form``,
``order_norm``, ``cone_contains``, ``jordan_product_polarized``), drawing
each trial's elements from ``trial_rng`` as the suite does, a, b and c each
the first draw of its own stream; every defect must agree exactly, not
merely to rounding.
"""

from itertools import combinations

import numpy as np
import pytest

from conftest import ALL_MODEL_SPECS, draw_element
from jordantp import get_model
from jordantp.core import cone_contains, order_norm
from jordantp.spectral import jordan_product_polarized, linearity_defect, trial_rng
from jordantp.suites import spectral_suite


def _tp(model, e1, e2):
    if model.symmetric_tp:
        return abs(model.native_pairing(e1.coords, e2.coords))
    p1 = model.atom_param_from_coords(e1.coords)
    p2 = model.atom_param_from_coords(e2.coords)
    return max(abs(model.transition_from_params(p1, p2)),
               abs(model.transition_from_params(p2, p1)))


def reference_linearity(model, seed, trials, tol):
    worst = 0.0
    for k in range(trials):
        a, b, c = (draw_element(model, trial_rng(seed, k, stream)) for stream in ("", "b", "c"))
        lhs = jordan_product_polarized(model, a, b + c, tol)
        rhs = (jordan_product_polarized(model, a, b, tol)
               + jordan_product_polarized(model, a, c, tol))
        worst = max(worst, order_norm(model, lhs - rhs, tol))
    return worst


def reference_spectral(model, seed, trials, tol):
    """Defects of the spectral suite by check name, one element at a time."""
    unit = model.order_unit()
    out = dict.fromkeys(["reconstruction", "frame_sums_to_unit", "frame_orthogonality",
                         "eigenvalues_sorted", "norm_is_top_eigenvalue",
                         "calculus_identity", "unit_acts_neutrally"], 0.0)
    out["cone_matches_spectrum"] = out["cone_matches_oracle"] = 0.0
    size = 0
    for k in range(trials):
        a = draw_element(model, trial_rng(seed, k))
        form = model.spectral_form(a, tol)
        eigs = form.eigenvalues
        residual = order_norm(model, form.reconstruct() - a, tol)
        total = model.zero()
        for atom in form.atoms:
            total = total + atom
        size = max(size, len(form.pairs))
        defects = {
            "reconstruction": residual,
            "frame_sums_to_unit": order_norm(model, total - unit, tol),
            "eigenvalues_sorted": float(np.max(np.diff(eigs), initial=0.0)),
            "norm_is_top_eigenvalue": abs(order_norm(model, a, tol)
                                          - float(np.max(np.abs(eigs)))),
        }
        if k % 10 == 0:
            defects["frame_orthogonality"] = max(
                [0.0] + [_tp(model, e1, e2) for e1, e2 in combinations(form.atoms, 2)])
            defects["calculus_identity"] = residual
            defects["unit_acts_neutrally"] = order_norm(
                model, jordan_product_polarized(model, a, unit, tol) - a, tol)
        for name, value in defects.items():
            out[name] = max(out[name], value)
        member = bool(eigs.min() >= -tol.cone_slack)
        out["cone_matches_spectrum"] += member != cone_contains(model, a, tol)
        out["cone_matches_oracle"] += member != model.cone_oracle(a.coords, tol.cone_slack)
    out["frame_within_capacity"] = float(max(0, size - model.info_capacity))
    return {f"spectral.{name}": value for name, value in out.items()}


@pytest.mark.parametrize("kind,n,p", ALL_MODEL_SPECS)
@pytest.mark.parametrize("trials", [8, 24])
def test_spectral_suite_equals_the_per_element_reference(kind, n, p, trials, tol):
    model = get_model(kind, n, p)
    for seed in range(5):
        checks = {check.name: check for check in spectral_suite(model, seed, trials, tol)}
        lin = reference_linearity(model, seed, min(trials, 100), tol)
        assert linearity_defect(model, seed, trials, tol) == lin
        bilinear = checks.pop("spectral.product_bilinear")
        if model.symmetric_tp:
            assert bilinear.defect == lin
        else:
            assert f"(measured defect {lin:.6e})" in bilinear.note
        reference = reference_spectral(model, seed, trials, tol)
        assert {name: check.defect for name, check in checks.items()} == reference
