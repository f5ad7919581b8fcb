"""Exact symbolic engine for a two-parameter deformed Poisson model.

Five independent routes compute the same moment polynomials in lambda, q, t:
set-partition statistics, the truncated Fock-space operator, the
card-arrangement calculus, weighted Motzkin paths over Jacobi data, and
J-fraction series.  Everything is exact (big integers and fractions); the
test suite cross-verifies the routes as polynomial identities.
"""

from .ring import (
    LAMBDA,
    MissingVariable,
    Monomial,
    Poly,
    Q,
    T,
    VARIABLES,
    X,
)
from .qtnum import qt_factorial, qt_number
from .partitions import (
    SetPartition,
    enumerate_partitions,
    moment_by_partitions,
    partition_record,
    restricted_crossings,
    restricted_nestings,
)
from .fock import (
    CheckReport,
    FockVector,
    OperatorWord,
    ScalarGauge,
    TruncationOverflow,
    apply_poisson,
    check_adjointness,
    check_commutation,
    check_gram_positivity,
    moment_by_operator,
    qt_inner_product,
    vacuum_expectation_word,
)
from .cards import (
    CardArrangement,
    NotContributor,
    arrangement_record,
    contributor_count,
    enumerate_contributors,
    expand_arrangements,
    moment_by_cards,
)
from .orthopoly import (
    InsufficientMoments,
    JacobiParams,
    binomial,
    charlier_strict,
    charlier_t_gauge,
    check_charlier_fock_identity,
    check_orthogonality,
    ejsmont,
    jfraction_series,
    moment_functional,
    moments_by_motzkin,
    poisson_limit_check,
    specialize,
    three_term_polys,
)
from .cfrac import (
    ContinuedFractionSpec,
    InsufficientDepth,
    cf_series,
    cf_spec,
    render_cf,
)

__version__ = "0.1.0"
