"""schwarztri: exact integrability classification of Schwarz triangle
equations, triangle-group signature classification, and numerical
verification of the associated differential identities."""

from .groups import (
    ARITHMETIC_SIGNATURES,
    INF,
    Geometry,
    GroupReport,
    Signature,
    SpecialPolynomials,
    geometry,
    group_report,
    is_arithmetic,
    is_maximal,
)
from .minimality import (
    Condition1Witness,
    Condition2Witness,
    KimuraWitness,
    MinimalityVerdict,
    Verdict,
    check_condition1,
    check_condition2,
    classify,
)
from .monodromy import (
    InconclusiveError,
    LoopSpec,
    MonodromyRep,
    ProjectiveClass,
    classify_projective,
    continue_solution,
    monodromy,
)
from .rational import (
    MobiusMap,
    Poly,
    RatFunc,
    compose,
    derivative,
    mobius_apply,
    schwarz_pullback,
    schwarzian,
)
from .series import (
    PowerSeries,
    ResidualReport,
    residual_inverse,
    residual_principal,
    residual_riccati,
    schwarz_map,
    series_compose,
    series_invert,
    series_schwarzian,
    series_solve_linear,
    taylor_coefficients,
    verify_pullback,
)
from .triangle import (
    GENERIC,
    AngleParams,
    ExponentTriple,
    HGParams,
    build_r,
    exponent_differences,
    to_hypergeometric,
)

__version__ = "0.1.0"
