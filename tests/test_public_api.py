"""The package's public names: the lazy table lists exactly these, each
resolves to the object of its owning submodule, and ``dir`` lists it.  The
CLI's suite names are the suite table's keys."""

import importlib

import pytest

import jordantp
from conftest import run_fresh
from jordantp import cli
from jordantp.suites import SUITES

PUBLIC_NAMES = [
    "AffineFunction", "AtomSpace", "CheckResult", "ClassicalModel", "ConeProjectionError",
    "DEFAULT_TOL", "DimensionMismatchError", "EOmegaReport", "Element",
    "GeneratorSelfDualCone", "HermMatrixModel", "InfeasiblePointError", "JordanTpError",
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
