"""Superposition states on lattice tensor algebras.

Models attach a tuple of fiber vectors to every site of a graph or
integer lattice.  The induced states evaluate through entrywise
products of small per-site matrices, admit infinite-volume limits under
summable tail conditions, and expose mixing diagnostics on the lattice.
"""

from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    GeometryError,
    PreconditionError,
    ResourceLimitError,
    SchurStateError,
    ValidationError,
)
from .homogeneous import (
    HomogeneousModel,
    OverlapMatrix,
    constant_offdiagonal_vectors,
    finite_volume_normalized,
    generic_limit,
    overlaps,
)
from .kernel import (
    FarFieldTail,
    FiberFamily,
    SchurKernelMap,
    certify_cp,
    choi_matrix,
    kernel_gram_matrix,
    kernel_matrix,
    product_kernel_gram_matrix,
    product_kernel_matrix,
    transfer_matrix,
)
from .limit import (
    BoundaryMatrix,
    GeneratorSpec,
    boundary_matrix,
    build_from_generators,
    check_projectivity,
    limit_state_eval,
    right_square_root,
)
from .lattice import Sites, Zd
from .linalg import (
    PsdReport,
    hadamard,
    hermitian_function,
    matrix_exp,
    matrix_log,
    psd_report,
)
from .mixing import (
    AlphaLimitReport,
    Embedding,
    alpha_limit,
    decaying_perturbation_family,
    embed,
    mixing_gap,
    mixing_scan,
)
from .modelfile import ModelSpec, load_model, load_observable, parse_model
from .state import (
    DenseState,
    LocalObservable,
    expectation_dense,
    expectation_extended,
    expectation_schur,
    superposition_vector,
)

__version__ = "0.1.0"
