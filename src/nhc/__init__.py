"""nhc: exact and asymptotic counts of elliptic curves by naive height.

Integer short-Weierstrass curves y^2 = x^3 + Ax + B are ordered by
H(A, B) = max(alpha |A|^3, beta B^2) for positive rational weights.  The
package provides exact closed-form counts (all curves, Q-isomorphism class
representatives, fixed j-invariant, complex multiplication), the lattice
parametrization behind them, their asymptotic main terms, and a
brute-force census that independently verifies every formula.

The public names below are loaded on first use, so an exact count never
imports mpmath (``asymptotics``) or the census (``oracle``); only a census
whose box outweighs a pool's start-up loads its process pool, from
``concurrent.futures``.
"""

import importlib

__version__ = "1.0.0"

_SUBMODULE_NAMES = {
    "asymptotics": (
        "AsymptoticReport",
        "cm_asymptotic",
        "cm_coefficient_sum",
        "cm_curves_asymptotic",
        "coefficient_table",
        "density_limit",
        "error_table",
        "fixed_j_coefficient",
        "format_percent",
        "main_term_curves",
        "main_term_curves_with_j",
        "main_term_representatives",
        "main_term_representatives_with_j",
        "report",
        "zeta_value",
    ),
    "cm": (
        "CM_ORDERS",
        "CmCountTable",
        "CmOrder",
        "cm_count_table",
        "cm_minimal_table",
        "cm_order",
        "count_cm_curves",
        "count_cm_representatives",
    ),
    "cuspidal": ("cubic_param",),
    "exactarith": (
        "Factorization",
        "ScanBudgetError",
        "count_kfree",
        "factorize_rational",
        "floor_rational_root",
        "iroot",
        "is_prime",
        "moebius_sieve",
    ),
    "families": (
        "FixedJFamily",
        "SingularCurveError",
        "SpecialJError",
        "TwistDecomposition",
        "WeierstrassCurve",
        "count_curves",
        "count_curves_with_j",
        "count_representatives",
        "count_representatives_with_j",
        "count_singular",
        "cubic_coefficient",
        "curve_from_parameter",
        "discriminant",
        "fixed_j_family",
        "is_representative",
        "j_invariant",
        "minimal_curves",
        "param_bound",
        "twist",
        "twist_decompose",
    ),
    "heights": (
        "CALIBRATED",
        "UNCALIBRATED",
        "HeightBox",
        "HeightSpec",
        "box",
        "format_height_spec",
        "height",
        "parse_height_spec",
    ),
    "oracle": ("CensusResult", "brute_census", "scan_budget"),
}
_SUBMODULE = {name: mod for mod, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name in _SUBMODULE_NAMES:  # a submodule not yet imported
        return importlib.import_module(f".{name}", __name__)
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
