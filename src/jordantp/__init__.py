"""Desk-scale order unit spaces with transition probabilities.

Spectral decomposition across five model families, the quantum logic as an
atomic orthomodular lattice, transition probability matrices (symmetric and
not), the self-dualizing inner product, Moreau splits in self-dual cones and
an LP layer deciding the extreme-point affinity property of polytopes.

Each public name is imported from its owning submodule on first use
(PEP 562), so ``import jordantp`` and a command that needs only some layers
do not load the others.
"""

import importlib

__version__ = "0.1.0"

# public name -> owning submodule
_EXPORTS = {name: module for module, names in {
    "backends": (
        "AtomSpace", "ClassicalModel", "HermMatrixModel", "LpQubitModel", "Model",
        "ModelDescriptor", "SpinFactorModel", "SymMatrixModel", "get_model",
        "parse_model_spec"),
    "convexgeom": (
        "AffineFunction", "EOmegaReport", "PolytopeAffineModel", "PolytopeStateSpace",
        "check_extreme_affinity", "e_omega_value", "induced_affine_model",
        "polytope_from_csv", "vertex_tp_matrix"),
    "core": ("cone_contains", "in_unit_interval", "order_norm"),
    "elements": ("DEFAULT_TOL", "Element", "SpectralForm", "SpectralPair", "Tolerance"),
    "errors": (
        "ConeProjectionError", "DimensionMismatchError", "InfeasiblePointError", "InputError",
        "JordanTpError", "LinearProgramError", "ModelMismatchError", "NotAtomError",
        "UnnormalizedParamError", "UnsupportedModelError"),
    "logic": (
        "LogicElement", "MeetThresholdWarning", "atomic_decomposition",
        "information_capacity_empirical", "is_logic_element", "is_orthogonal_family",
        "join", "logic_element", "meet", "orthocomplement"),
    "reports": ("CheckResult", "VerificationReport", "dump_canonical_json"),
    "selfdual": (
        "GeneratorSelfDualCone", "MoreauPair", "PeeledAtom", "SelfDualCone",
        "SpectralSelfDualCone", "generator_cone_from_csv", "is_atom_sd",
        "moreau_decompose", "peel_positive", "peel_spectral", "recover_order_unit"),
    "spectral": (
        "func_calculus", "jordan_product_polarized", "linearity_defect",
        "random_element", "square"),
    "suites": (
        "SUITES", "check_inner_product", "run_suite", "self_duality_report",
        "symmetry_defect", "verify_atom_state_uniqueness", "verify_certainty_order",
        "verify_pure_state_sampling", "verify_strong_state_space",
        "verify_unity_resolution"),
    "transition": (
        "State", "TPMatrix", "inner_product", "mix_states", "state_of_atom", "tp_matrix",
        "tp_matrix_from_params", "transition_prob"),
}.items() for name in names}

__all__ = [*_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
