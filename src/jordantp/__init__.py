"""Desk-scale order unit spaces with transition probabilities.

Spectral decomposition across five model families, the quantum logic as an
atomic orthomodular lattice, transition probability matrices (symmetric and
not), the self-dualizing inner product, Moreau splits in self-dual cones and
an LP layer deciding the extreme-point affinity property of polytopes.
"""

from .backends import (
    ClassicalModel,
    HermMatrixModel,
    LpQubitModel,
    Model,
    ModelDescriptor,
    SpinFactorModel,
    SymMatrixModel,
    get_model,
    parse_model_spec,
)
from .convexgeom import (
    AffineFunction,
    EOmegaReport,
    PolytopeAffineModel,
    PolytopeStateSpace,
    check_extreme_affinity,
    e_omega_value,
    induced_affine_model,
    polytope_from_csv,
    smooth_ball_e_omega,
    vertex_tp_matrix,
)
from .core import (
    cone_contains,
    element_from_json,
    element_to_json,
    in_unit_interval,
    leq,
    order_norm,
    order_unit,
)
from .elements import DEFAULT_TOL, Element, SpectralForm, SpectralPair, Tolerance
from .errors import (
    ConeProjectionError,
    DimensionMismatchError,
    InfeasiblePointError,
    JordanTpError,
    LinearProgramError,
    ModelMismatchError,
    NotAtomError,
    TransitionProbabilityViolation,
    UnnormalizedParamError,
    UnsupportedModelError,
)
from .logic import (
    LogicElement,
    MeetThresholdWarning,
    atomic_decomposition,
    information_capacity_empirical,
    is_logic_element,
    is_orthogonal_family,
    join,
    logic_element,
    meet,
    orthocomplement,
)
from .reports import CheckResult, VerificationReport, dump_canonical_json
from .selfdual import (
    GeneratorSelfDualCone,
    MoreauPair,
    PeeledAtom,
    SelfDualCone,
    SpectralSelfDualCone,
    generator_cone_from_csv,
    is_atom_sd,
    moreau_decompose,
    peel_positive,
    peel_spectral,
    recover_order_unit,
    self_duality_report,
    verify_induced_axioms,
    verify_unity_resolution,
)
from .spectral import (
    atom_from_param,
    func_calculus,
    jordan_product_polarized,
    linearity_defect,
    random_element,
    spectral_decompose,
    square,
)
from .suites import SUITES, run_suite
from .transition import (
    State,
    TPMatrix,
    check_inner_product,
    inner_product,
    mix_states,
    state_of_atom,
    symmetry_defect,
    tp_matrix,
    tp_matrix_from_params,
    transition_prob,
    verify_atom_state_uniqueness,
    verify_certainty_order,
    verify_pure_state_sampling,
    verify_strong_state_space,
)

__version__ = "0.1.0"
