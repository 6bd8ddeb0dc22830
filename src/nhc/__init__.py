"""nhc: exact and asymptotic counts of elliptic curves by naive height.

Integer short-Weierstrass curves y^2 = x^3 + Ax + B are ordered by
H(A, B) = max(alpha |A|^3, beta B^2) for positive rational weights.  The
package provides exact closed-form counts (all curves, Q-isomorphism class
representatives, fixed j-invariant, complex multiplication), the lattice
parametrization behind them, their asymptotic main terms, and a
brute-force census that independently verifies every formula.
"""

from .asymptotics import (
    AsymptoticReport,
    cm_asymptotic,
    cm_coefficient_sum,
    cm_curves_asymptotic,
    coefficient_table,
    density_limit,
    error_table,
    fixed_j_coefficient,
    format_percent,
    main_term_curves,
    main_term_curves_with_j,
    main_term_representatives,
    main_term_representatives_with_j,
    report,
)
from .cm import (
    CM_J_INVARIANTS,
    CM_ORDERS,
    CmCountTable,
    CmOrder,
    cm_count_table,
    cm_minimal_table,
    cm_order,
    cm_orders,
    count_cm_curves,
    count_cm_representatives,
    is_cm_j,
)
from .cuspidal import cubic_param
from .exactarith import (
    Factorization,
    count_kfree,
    factorize,
    factorize_rational,
    floor_rational_root,
    iroot,
    is_kfree,
    is_prime,
    moebius_sieve,
    ord_p,
    zeta_value,
)
from .families import (
    SingularCurveError,
    SpecialJError,
    TwistDecomposition,
    WeierstrassCurve,
    count_curves,
    count_curves_with_j,
    count_representatives,
    count_representatives_with_j,
    count_singular,
    cubic_coefficient,
    curve_from_parameter,
    discriminant,
    is_representative,
    j_invariant,
    minimal_curves,
    param_bound,
    twist,
    twist_decompose,
)
from .heights import (
    CALIBRATED,
    UNCALIBRATED,
    HeightBox,
    HeightSpec,
    box,
    format_height_spec,
    height,
    parse_height_spec,
)
from .oracle import CensusResult, ScanBudgetError, brute_census, brute_minimal, scan_budget

__version__ = "1.0.0"
