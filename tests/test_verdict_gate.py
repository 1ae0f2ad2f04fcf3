"""Verdict gate: a faster or leaner build must give the same verdicts and the
same check names on every conftest model spec.

The expected verdicts come from theory: every symmetric family passes every
check, and lpq:2:3 (a non-Euclidean ball) fails exactly ``tp.symmetry``.
"""

import json

import pytest

from conftest import ALL_MODEL_SPECS
from jordantp.cli import main

GATE_SEEDS = range(5)
GATE_TRIALS = "8"

# The report's contract: every verify report carries all of these names,
# skipped checks included.
COMMON_CHECKS = frozenset("""
certainty.atom_below_effect certainty.state_attains_one
certainty.uncertain_samples_no_claim certainty_ip.atom_below_effect
certainty_ip.pairing_attains_one ip.atom_pairing ip.bilinearity
ip.positive_definite ip.symmetry logic.atom_difference_stays_extreme
logic.atom_sum_stays_extreme logic.complement_stays_extreme
logic.difference_identity logic.information_capacity logic.involution
logic.meet_join_bracket logic.orthogonal_family_pairwise logic.orthomodular_law
moreau.orthogonality moreau.parts_in_cone moreau.reconstruction moreau.uniqueness
norms.lower norms.tightness norms.upper orthogonal.parts_inherit_orthogonality
peel.matches_spectrum peel.unit_interval_coefficients
selfdual.cone_pairings_nonnegative selfdual.dual_vectors_in_cone selfdual.forward
selfdual.negative_witness selfdual.reverse spectral.calculus_identity
spectral.cone_matches_oracle spectral.cone_matches_spectrum
spectral.eigenvalues_sorted spectral.frame_orthogonality
spectral.frame_sums_to_unit spectral.frame_within_capacity
spectral.norm_is_top_eigenvalue spectral.product_bilinear spectral.reconstruction
spectral.unit_acts_neutrally states.atom_state_attains_one
states.half_mixture_value states.mixed_states_below_one states.pure_states_extremal
strong.comparable_consistency strong.witness_certain_of_p strong.witness_found
tp.diagonal_is_one tp.orthogonality_biconditional tp.symmetry
tp.top_atom_attains_norm tp.top_atom_below_element tp.unity_resolution_columns
tp.unity_resolution_rows tp.values_in_unit_range unit.recovered_from_families
unity.families_share_one_sum unity.family_pairings_sum_to_one
""".split())
SYMMETRIC_CHECKS = COMMON_CHECKS | {"ip.unit_pairing", "selfdual.membership_agreement"}
ASYMMETRIC_CHECKS = COMMON_CHECKS | {"ip.unsupported_raises"}


def _spec(kind, n, p):
    return f"{kind}:{n}" + (f":{p:g}" if p else "")


@pytest.mark.parametrize("seed", GATE_SEEDS)
@pytest.mark.parametrize("spec", [_spec(*s) for s in ALL_MODEL_SPECS])
def test_theory_verdicts(capsys, spec, seed):
    code = main(["verify", spec, "--suite", "all", "--seed", str(seed),
                 "--trials", GATE_TRIALS])
    report = json.loads(capsys.readouterr().out)
    names = [c["name"] for c in report["checks"]]
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert names == sorted(set(names))
    if spec == "lpq:2:3":
        assert (code, failed) == (1, {"tp.symmetry"})
        assert set(names) == ASYMMETRIC_CHECKS
    else:
        assert (code, failed) == (0, set())
        assert set(names) == SYMMETRIC_CHECKS
