"""Tensor-generated matrices: H-tensor certification, H-eigenvalue
inclusion regions, and spin-state classicality certificates."""

from .dominance import (
    Certificate,
    DominanceReport,
    HMatrixResult,
    certify_h_tensor,
    check_dominance,
    comparison_matrix,
    is_h_matrix,
    is_irreducible,
    is_m_tensor,
    is_weakly_chained_dd,
    is_weakly_irreducible,
    is_z_tensor,
    tensor_dd,
)
from .oracle import EigenPair, h_eigen_exact_2d, h_eigen_newton, nqz_spectral_radius
from .regions import KINDS, RealBounds, Region, build_region, grid_sample, membership, real_bounds
from .spin import (
    ClassicalityVerdict,
    SpinState,
    certify_classicality,
    classical_mixture,
    coefficient_tensor,
    coherent_direction,
    coherent_state,
    dicke_isometry,
    reconstruct_state,
    s_operator,
    spin_state,
)
from .tensor import (
    DenseTensor,
    GeneratedMatrix,
    build_tensor,
    classify_symmetry,
    contract,
    diagonal,
    generated_matrix,
    load_tensor,
    poly_value,
    poly_values,
    representation_matrix,
    row_sums,
    s_matrix,
    scale_tensor,
    tensor_from_json,
    tensor_to_json,
    unit_tensor,
    zero_tensor,
)

__version__ = "0.1.0"
