"""Wold decompositions and commuting isometry pairs on truncated models.

The package builds finite compressions of shifts and analytic multipliers
on truncated Hardy spaces, splits isometries and contractions into their
unitary and shift-like parts, decides whether the hyper-range of one
isometry in a commuting pair reduces the other, and extracts the
canonical three-part model together with its boundary moment system.
"""

from .errors import (
    DimensionError,
    DomainError,
    PrecisionError,
    PreconditionError,
    SchemaError,
    ValidationError,
    WoldlabError,
)
from .hardy import (
    GradedOperator,
    TruncatedSpace,
    abstract_space,
    compress,
    direct_sum,
    double_commutation_defect,
    hardy_space,
    multiplier,
    shift,
)
from .linalg import (
    Subspace,
    complement,
    intersect,
    kernel,
    operator_norm,
    orthonormalize,
    pivoted_cholesky,
    reducing_residual,
    subspace_distance,
)
from .moments import (
    BlockModel,
    ForcingReport,
    block_model_check,
    block_model_from_assembly,
    finite_spectrum_forcing,
    moment_match,
)
from .pairs import (
    ExampleAssembly,
    ModelDecomposition,
    OperatorPair,
    SlocinskiDecomposition,
    VerdictReport,
    biunitary_pair,
    constant_shift_pair,
    construct_example,
    finiteness_checks,
    four_block_pair,
    model_decomposition,
    point_spectrum_part,
    slocinski,
    tensor_shift_pair,
    three_part_pair,
    validate_pair,
    verdict_battery,
)
from .symbols import (
    MomentSequence,
    SchurSymbol,
    blaschke,
    constant,
    defect_weight,
    evaluate,
    is_inner,
    polynomial,
    taylor,
)
from .wold import (
    CanonicalDecomposition,
    WoldDecomposition,
    cnu_eigenvector_span_residual,
    hyper_range,
    unitary_part,
    wold_split,
)

__version__ = "0.1.0"

__all__ = [
    "WoldlabError", "DomainError", "DimensionError", "ValidationError",
    "PrecisionError", "PreconditionError", "SchemaError",
    "Subspace", "orthonormalize", "intersect", "complement", "kernel",
    "operator_norm", "subspace_distance", "reducing_residual",
    "pivoted_cholesky",
    "SchurSymbol", "MomentSequence", "polynomial", "constant", "blaschke",
    "taylor", "evaluate", "is_inner", "defect_weight",
    "TruncatedSpace", "GradedOperator", "hardy_space", "abstract_space",
    "direct_sum", "shift", "multiplier", "compress",
    "double_commutation_defect",
    "CanonicalDecomposition", "WoldDecomposition", "unitary_part",
    "hyper_range", "wold_split", "cnu_eigenvector_span_residual",
    "OperatorPair", "ExampleAssembly", "VerdictReport",
    "ModelDecomposition", "SlocinskiDecomposition", "validate_pair",
    "construct_example", "verdict_battery", "model_decomposition",
    "slocinski", "point_spectrum_part", "finiteness_checks",
    "tensor_shift_pair", "biunitary_pair",
    "constant_shift_pair", "three_part_pair", "four_block_pair",
    "BlockModel", "ForcingReport", "block_model_from_assembly",
    "block_model_check", "moment_match", "finite_spectrum_forcing",
    "__version__",
]
