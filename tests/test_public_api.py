"""The package's public names: the lazy table lists exactly these, each
resolves to the object of its owning submodule, and ``dir`` lists it.  The
CLI's suite names are the suite table's keys."""

import importlib
import math
import re

import pytest

import jordantp
from conftest import SHAPES, run_fresh
from jordantp import cli
from jordantp.spectral import DrawRecord, trial_rngs
from jordantp.suites import SUITES

PUBLIC_NAMES = [
    "AffineFunction", "AtomSpace", "CheckResult", "ClassicalModel", "ConeProjectionError",
    "DEFAULT_TOL", "DimensionMismatchError", "EOmegaReport", "Element",
    "GeneratorSelfDualCone", "HermMatrixModel", "InfeasiblePointError", "InputError",
    "JordanTpError",
    "LinearProgramError", "LogicElement", "LpQubitModel", "MeetThresholdWarning", "Model",
    "ModelDescriptor", "ModelMismatchError", "MoreauPair", "NotAtomError", "PeeledAtom",
    "PolytopeAffineModel", "PolytopeStateSpace", "SUITES", "SelfDualCone", "SpectralForm",
    "SpectralPair", "SpectralSelfDualCone", "SpinFactorModel", "State", "SymMatrixModel",
    "TPMatrix", "Tolerance", "UnnormalizedParamError", "UnsupportedModelError",
    "VerificationReport", "atomic_decomposition", "check_extreme_affinity",
    "check_inner_product", "cone_contains", "dump_canonical_json", "e_omega_value",
    "func_calculus", "generator_cone_from_csv", "get_model", "in_unit_interval",
    "induced_affine_model", "information_capacity_empirical", "inner_product",
    "is_atom_sd", "is_logic_element", "is_orthogonal_family", "join",
    "jordan_product_polarized", "linearity_defect", "logic_element", "meet", "mix_states",
    "moreau_decompose", "order_norm", "orthocomplement", "parse_model_spec",
    "peel_positive", "peel_spectral", "polytope_from_csv", "random_element",
    "recover_order_unit", "run_suite", "self_duality_report", "square", "state_of_atom",
    "symmetry_defect", "tp_matrix", "tp_matrix_from_params", "transition_prob",
    "verify_atom_state_uniqueness", "verify_certainty_order", "verify_pure_state_sampling",
    "verify_strong_state_space", "verify_unity_resolution", "vertex_tp_matrix",
]


def test_the_table_lists_exactly_the_public_names():
    assert sorted(jordantp._EXPORTS) == PUBLIC_NAMES
    assert sorted(jordantp.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_resolves_to_its_owners_object(name):
    owner = importlib.import_module(f"jordantp.{jordantp._EXPORTS[name]}")
    assert getattr(jordantp, name) is getattr(owner, name)
    namespace = {}
    exec(f"from jordantp import {name}", namespace)
    assert namespace[name] is getattr(owner, name)
    assert name in dir(jordantp)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        jordantp.no_such_name


def test_the_cli_suite_names_are_the_suite_keys():
    assert cli.SUITE_NAMES == tuple(SUITES)


LAZY_SCRIPT = """
import json, sys
import jordantp

def loaded():
    return sorted(m for m in sys.modules if m.startswith("jordantp."))

bare = loaded()
from jordantp import run_suite
print(json.dumps({"bare": bare, "after": loaded()}))
"""


def test_import_jordantp_loads_a_layer_on_first_use():
    result = run_fresh(LAZY_SCRIPT)
    assert result["bare"] == []
    assert {"jordantp.suites", "jordantp.transition", "jordantp.selfdual"} <= set(result["after"])



SPIN = jordantp.get_model("spin", 2)
CLASSICAL = jordantp.get_model("classical", 2)


def _square():
    return jordantp.PolytopeStateSpace(SHAPES["square"][0])


def _spin_state():
    return jordantp.state_of_atom(SPIN, SPIN.atom([1.0, 0.0]))


def _induced_past_the_affinity_check(monkeypatch):
    from jordantp import convexgeom

    monkeypatch.setattr(convexgeom, "check_extreme_affinity", lambda poly, tol, samples: [])
    return jordantp.induced_affine_model(_square())


# name -> (a call, given the monkeypatch fixture, on a value its caller got
# wrong; the start of its message)
CALLER_CHECKS = {
    "trial_rngs trials": (lambda mp: trial_rngs(0, 0), "trials must be >= 1"),
    "random_element shape": (lambda mp: jordantp.random_element(SPIN, 0, "flat"),
                             "shape must be one of"),
    "DrawRecord.rows trials": (lambda mp: DrawRecord(0, SPIN, jordantp.DEFAULT_TOL).rows("a", 0),
                               "trials must be >= 1"),
    "check_inner_product trials": (lambda mp: jordantp.check_inner_product(SPIN, 0, 0),
                                   "trials must be >= 1"),
    "selfdual_suite trials": (lambda mp: SUITES["selfdual"](SPIN, 0, 0), "trials must be >= 1"),
    "run_suite suite": (lambda mp: jordantp.run_suite(SPIN, "bogus", 0, 1), "unknown suite"),
    "e_omega_value omega_index": (lambda mp: jordantp.e_omega_value(_square(), 4, [0.5, 0.5]),
                                  "omega_index 4 out of range"),
    "e_omega_value query point": (lambda mp: jordantp.e_omega_value(_square(), 0, [0.5]),
                                  "query point must live in R^2"),
    "induced_affine_model affinity": (lambda mp: jordantp.induced_affine_model(_square()),
                                      "polytope fails the affinity property"),
    "induced_affine_model independence": (_induced_past_the_affinity_check,
                                          "vertex-value representation needs affinely "
                                          "independent vertices"),
    "State weights per parameter": (lambda mp: jordantp.State(SPIN, ([1.0, 0.0],), (0.5, 0.5)),
                                    "a state needs one weight per atom parameter"),
    "State weight finite": (lambda mp: jordantp.State(SPIN, ([1.0, 0.0],), (math.nan,)),
                            "state weights must be finite"),
    "mix_states no state": (lambda mp: jordantp.mix_states([], []), "a mixture needs"),
    "mix_states negative weight": (lambda mp: jordantp.mix_states([_spin_state()], [-1.0]),
                                   "mixture weights must be finite and nonnegative"),
    "mix_states zero weights": (lambda mp: jordantp.mix_states([_spin_state()], [0.0]),
                                "mixture weights must not all be zero"),
    "mix_states two models": (lambda mp: jordantp.mix_states(
        [_spin_state(), jordantp.state_of_atom(CLASSICAL, CLASSICAL.atom(0))], [1.0, 1.0]),
        "states must share one model"),
    "logic_element": (lambda mp: jordantp.logic_element(SPIN, SPIN.element([0.5, 0.0, 0.0])),
                      "element is not in the quantum logic"),
}


@pytest.mark.parametrize("check", list(CALLER_CHECKS))
def test_a_caller_s_wrong_value_raises_an_input_error(monkeypatch, check):
    # an InputError, still a ValueError, tells a library caller's own mistake
    # from a fault of the library, and the CLI exits 2 on it, 3 on a fault
    call, message = CALLER_CHECKS[check]
    with pytest.raises(jordantp.InputError, match=f"^{re.escape(message)}"):
        call(monkeypatch)
    assert issubclass(jordantp.InputError, ValueError)
