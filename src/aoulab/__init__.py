"""Exact computation for finite-dimensional Archimedean order unit spaces.

Everything runs over the rationals: each cone's one double description
gives its states and extreme rays, order norms come out of exact linear
programs with self-verifying dual evidence, and every yes/no answer (membership,
nuclearity, quotient, factorization) ships a certificate that re-checks by
substitution.
"""

from .cones import (
    Certificate,
    Cone,
    contains,
    dual,
    extreme_rays,
    image_cone,
    is_pointed,
    is_simplicial,
    member,
    pack_sym,
    same_cone,
    sym_dim,
    unpack_sym,
)
from .errors import (
    AoulabError,
    InputError,
    InvariantViolation,
    NotPointedError,
    PolyhedralRequired,
    ShapeError,
    SizeLimitError,
    StrictConeError,
)
from .linalg import Matrix, Vec, det, dot, frac, integerize, inverse, nullspace, rank, solve, vec
from .lp import EQ, GE, INFEASIBLE, OPTIMAL, LPOutcome, solve_lp
from .maps import (
    MapReport,
    QuotientReport,
    UnitalMap,
    archimedean_quotient,
    auerbach_basis,
    check_map,
    dual_norm,
    extend_unital_positive,
    interval_min,
    is_order_ideal,
    is_order_quotient,
    norm_bound_equiv,
    operator_norm,
    pert,
    perturb,
)
from .psd import PsdResult, ldlt_psd
from .psd_examples import (
    BELL,
    I4,
    SEGRE_RELATION,
    SWAP,
    BlockPositivityReport,
    TensorVerdict,
    WitnessReport,
    block_positive,
    partial_transpose,
    psd_example_suite,
    sos_matches,
)
from .serialize import dumps, from_dict, loads, to_dict
from .spaces import (
    AOUSpace,
    ValidationReport,
    archimedeanize,
    dual_augmented,
    extreme_states,
    kadison_embed,
    lin_space,
    linf,
    order_interval_vertices,
    order_norm,
    sym_space,
    unit_ball_vertices,
    validate,
)
from .tensors import (
    EPSILON,
    PI,
    DefectStep,
    FactorizationResult,
    NuclearityReport,
    TensorElement,
    TensorSpace,
    factorize,
    injective_banach_norm,
    is_nuclear_fd,
    is_nuclear_pairwise,
    kron_vec,
    member_tensor,
    tensor_map,
    tensor_space,
)

__version__ = "0.1.0"
