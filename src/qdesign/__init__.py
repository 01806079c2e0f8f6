"""qdesign: exact-arithmetic toolkit for subspace (q-analog) designs.

Everything is computed over arbitrary-precision integers and exact
rationals; there is no floating point anywhere in the library.
"""

from .errors import (
    AmbientMismatch,
    DegenerateSystem,
    DimensionMismatch,
    InvalidParameters,
    QDesignError,
    ResourceLimitError,
    SingularMap,
    TooLarge,
    TooManyTerms,
    UnsupportedOrder,
)
from .gf import (
    SUPPORTED_ORDERS,
    FieldSpec,
    MatrixGFq,
    identity_matrix,
    make_field,
    mat_inverse,
    mat_mul,
    random_invertible,
    rank,
    rref,
)
from .grassmann import (
    SubspaceBasis,
    apply_map,
    contains,
    enumerate_subspaces,
    extensions,
    gl_map_between,
    intersect_dim,
    iter_subspaces,
    subspace_from_rows,
    subspace_rank,
    t_subspace_ranks,
    unrank,
)
from .incidence import (
    IncidenceStructure,
    average_row,
    build_incidence,
    check_constant_vector_property,
    check_symmetry_transitivity,
)
from .klp import KLPReport, divisibility_witness, klp_report
from .localdecode import (
    C3Report,
    CoefficientCertificate,
    DecodeSystem,
    DetBoundsReport,
    Lemma2GridReport,
    build_D,
    c3_bound,
    check_cond2,
    check_det_bounds,
    decode_certificate,
    lemma2_count,
    lemma2_count_bruteforce,
    lemma2_grid_report,
    solve_coefficients,
    verify_certificate,
)
from .qcount import BinomialBounds, check_bounds, q_binomial, q_binomial_via_sum, q_factorial
from .search import CoverInstance, NotFound, Timeout, search_design
from .verifier import (
    DesignCandidate,
    VerificationReport,
    lambda_identity_check,
    load_design,
    save_design,
    verify_design,
)

__version__ = "0.1.0"
