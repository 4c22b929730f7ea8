"""zarlat: exact Zariski decompositions, lattice discriminants and bound reports.

The package splits an effective divisor, given by a rational Gram matrix
over its prime components and a nonnegative coefficient vector, into its
nef and exceptional parts using exact rational arithmetic, verifies the
result against a brute-force oracle, computes discriminant groups of
integral lattices (including the second-cohomology lattices of the four
known deformation families of irreducible symplectic manifolds), and
evaluates the associated closed-form negativity, denominator and
birationality bounds as exact big integers.
"""

from .bounds import (
    BoundReport,
    BoundSet,
    CramerAnalysis,
    DeferredFactorial,
    DeferredPower,
    DeferredReverse,
    birationality_bound,
    chow_degree_bound,
    cramer_analysis,
    denominator_bound,
    det_trace_bound_holds,
    factorial_guard,
    full_report,
    reverse_negativity_bound,
)
from .errors import (
    AxiomViolationError,
    DomainError,
    InconsistencyError,
    OracleMismatchError,
    ShapeError,
    SingularMatrixError,
    ZarlatError,
)
from .lattice import (
    DeformationPreset,
    DiscriminantGroup,
    DualCurveClass,
    IntegralLattice,
    a2_minus,
    block,
    direct_sum,
    discriminant_group,
    dual_curve_integrality,
    e8_minus,
    format_group,
    hyperbolic_plane,
    preset,
    presets,
    rank_one,
)
from .linalg import (
    Inertia,
    RationalMatrix,
    SmithNormalForm,
    as_rational,
    det,
    is_negative_definite,
    leading_principal_minors,
    signature,
    smith_normal_form,
    solve,
)
from .zariski import (
    CertificateOutcome,
    Decomposition,
    InstanceSpec,
    IntersectionForm,
    SplitMix64,
    as_divisor,
    decompose,
    decompose_bruteforce,
    decomposition_checks,
    exceptional_certificate,
    in_nef_region,
    intersection_axiom_violations,
    is_exceptional,
    random_instance,
    support_of,
)

__version__ = "0.1.0"
