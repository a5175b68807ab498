"""Exponential-polynomial densities on the half line, the whole line, and
the positive quadrant: normalizing constants by holonomic transport of
derivative vectors, maximum likelihood and score tests for the polynomial
order, and the resultant/discriminant geometry of the bivariate parameter
space."""

from .domain import (
    Membership,
    SuffStats,
    Support,
    ThetaBi,
    ThetaUni,
    classify_theta_uni,
    effective_theta,
    in_proper_bivariate_space,
    monomials_bi,
    suff_stats,
)
from .errors import (
    DivergentIntegral,
    DomainError,
    EmptySample,
    ExpPolyError,
    InputError,
    LinearSystemError,
    NotConverged,
    OdeDivergence,
    OnDiscriminant,
    PathCrossesSingularity,
    PolynomialError,
    SingularInformation,
    ToleranceNotMet,
    TransportError,
    UnsupportedOrder,
)
from .holo_bi import (
    DerivTableBi,
    extend_table,
    initial_state_bi,
    pfaffian_det,
    table_at,
    transport_bi,
)
from .holo_uni import (
    HoloStateUni,
    OdeOptions,
    extend_derivatives,
    initial_state,
    norm_const_and_derivs,
    state_at,
    transport,
    transport_condition,
)
from .inference import (
    BiHoloProvider,
    FitOptions,
    FitResult,
    TestNull,
    TestResult,
    UniHoloProvider,
    fisher_info,
    fit_mle,
    loglik_and_grad,
    mle_existence_check,
    score_test_halfline,
    score_test_realline,
    select_order,
)
from .oracle import (
    QuadOptions,
    closed_form_A,
    numeric_cdf,
    quad_A_bi,
    quad_moment_uni,
    sample_uni,
)
from .polyalg import (
    ChamberLabel,
    classify_chamber,
    count_real_roots,
    discriminant,
    sylvester_resultant,
    squarefree_part,
)
from .verify import SuiteResult, run_suites, suite_names

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # domain
    "Membership",
    "SuffStats",
    "Support",
    "ThetaBi",
    "ThetaUni",
    "classify_theta_uni",
    "effective_theta",
    "in_proper_bivariate_space",
    "monomials_bi",
    "suff_stats",
    # errors
    "DivergentIntegral",
    "DomainError",
    "EmptySample",
    "ExpPolyError",
    "InputError",
    "LinearSystemError",
    "NotConverged",
    "OdeDivergence",
    "OnDiscriminant",
    "PathCrossesSingularity",
    "PolynomialError",
    "SingularInformation",
    "ToleranceNotMet",
    "TransportError",
    "UnsupportedOrder",
    # univariate engine
    "HoloStateUni",
    "OdeOptions",
    "extend_derivatives",
    "initial_state",
    "norm_const_and_derivs",
    "state_at",
    "transport",
    "transport_condition",
    # bivariate engine
    "DerivTableBi",
    "extend_table",
    "initial_state_bi",
    "pfaffian_det",
    "table_at",
    "transport_bi",
    # inference
    "BiHoloProvider",
    "FitOptions",
    "FitResult",
    "TestNull",
    "TestResult",
    "UniHoloProvider",
    "fisher_info",
    "fit_mle",
    "loglik_and_grad",
    "mle_existence_check",
    "score_test_halfline",
    "score_test_realline",
    "select_order",
    # oracle
    "QuadOptions",
    "closed_form_A",
    "numeric_cdf",
    "quad_A_bi",
    "quad_moment_uni",
    "sample_uni",
    # polynomial algebra
    "ChamberLabel",
    "classify_chamber",
    "count_real_roots",
    "discriminant",
    "sylvester_resultant",
    "squarefree_part",
    # verification
    "SuiteResult",
    "run_suites",
    "suite_names",
]
