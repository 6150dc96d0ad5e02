"""Numeric conventions: tolerances, extended-real bandwidths, rational rates.

Bandwidths live in the extended non-negative reals. Finite values are kept
as exact ``Fraction``s so that rate arithmetic (least common period, grid
counts, harmonic counts) never suffers float drift; infinity is the plain
``float('inf')``, which compares correctly against ``Fraction``.

A single relative singular-value threshold (``SV_RTOL``) drives every
rank/invertibility/null-space decision so the dependence oracle, the
uniqueness-set tests and the planner stay mutually consistent.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np

INF = float("inf")

# Singular values below SV_RTOL * sigma_max are treated as zero everywhere.
SV_RTOL = 1e-9

# Component threshold for "this null-space direction has zero v-component"
# and for "this x-vector entry vanishes".  Null bases are orthonormal and
# x-vectors are O(1), so an absolute cutoff a little above SV_RTOL is safe.
COMPONENT_TOL = 1e-8

# Absolute tolerance for coefficient-support checks on synthesized signals.
COEFF_TOL = 1e-9

_FLOAT_TO_FRACTION_MAX_DEN = 10**9


def as_bandwidth(value, pointer=""):
    """Coerce a JSON-ish value to an extended-real bandwidth.

    Accepts non-negative ints/floats, ``Fraction``, exact ``"p/q"``
    strings, the string ``"inf"`` and float infinity. Non-rational floats
    are snapped to a nearby rational with a warning (periodic-mode grids
    need exact rationals).
    """
    from .errors import ProblemFormatError

    if isinstance(value, str):
        if value.strip().lower() in ("inf", "infinity"):
            return INF
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ProblemFormatError(
                f"bandwidth string must be 'inf' or 'p/q', got {value!r}", pointer) from None
    elif isinstance(value, bool):
        raise ProblemFormatError("bandwidth must be a number or 'inf'", pointer)
    elif isinstance(value, Fraction):
        frac = value
    elif isinstance(value, int):
        frac = Fraction(value)
    elif isinstance(value, float):
        if math.isinf(value):
            if value < 0:
                raise ProblemFormatError("bandwidth must be non-negative", pointer)
            return INF
        if math.isnan(value):
            raise ProblemFormatError("bandwidth must not be NaN", pointer)
        frac = Fraction(value).limit_denominator(_FLOAT_TO_FRACTION_MAX_DEN)
        if abs(float(frac) - value) > 1e-12 * max(1.0, abs(value)):
            warnings.warn(
                f"bandwidth {value!r} is not exactly rational; rounded to {frac}",
                stacklevel=2,
            )
    else:
        raise ProblemFormatError(f"bandwidth must be a number or 'inf', got {type(value).__name__}", pointer)
    if frac < 0:
        raise ProblemFormatError("bandwidth must be non-negative", pointer)
    return frac


def is_inf(value) -> bool:
    return isinstance(value, float) and math.isinf(value)


def bandwidth_to_json(value):
    """Inverse of :func:`as_bandwidth` for report emission."""
    if is_inf(value):
        return "inf"
    frac = Fraction(value)
    if frac.denominator == 1:
        return int(frac)
    return f"{frac.numerator}/{frac.denominator}"


def json_to_number(value, pointer=""):
    """Parse a number emitted by :func:`bandwidth_to_json` (or a plain one)."""
    from .errors import ProblemFormatError

    if isinstance(value, str):
        if value.strip().lower() in ("inf", "infinity"):
            return INF
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemFormatError(f"bad numeric literal {value!r}", pointer) from exc
    return as_bandwidth(value, pointer)


def harmonic_cutoff(bound, period) -> int:
    """Largest harmonic index with frequency strictly below ``bound``.

    Harmonic ``k`` of a ``period``-periodic signal has frequency ``k/period``;
    it is admitted iff ``k/period < bound``. Returns -1 when no harmonic
    (not even DC) is admitted, i.e. for ``bound == 0``.
    """
    if is_inf(bound):
        raise ValueError("harmonic_cutoff needs a finite bound")
    limit = Fraction(bound) * Fraction(period)
    return math.ceil(limit) - 1


def n_trig_coeffs(cutoff: int) -> int:
    """Real degrees of freedom of a trig polynomial with top harmonic ``cutoff``."""
    return 0 if cutoff < 0 else 2 * cutoff + 1


def grid_points_per_period(rate, period) -> int:
    """Number of samples one uniform rate-``rate`` grid puts in one period."""
    count = Fraction(rate) * Fraction(period)
    if count.denominator != 1:
        raise ValueError(f"rate*period = {count} is not integral")
    return int(count)


def least_period(rates) -> Fraction:
    """Smallest positive T with rate*T integral for every positive rate given."""
    positive = [Fraction(r) for r in rates if r > 0]
    if not positive:
        return Fraction(1)
    num = math.gcd(*(r.numerator for r in positive))
    den = math.lcm(*(r.denominator for r in positive))
    return Fraction(den, num)


def _sv_threshold(sigma) -> float:
    # All ranked matrices here are submatrices of orthonormal eigenbases,
    # whose natural scale is 1; flooring the reference at 1 keeps a
    # numerically-zero entry (~1e-16) from masquerading as full rank.
    top = float(sigma[0]) if len(sigma) else 0.0
    return SV_RTOL * max(top, 1.0)


def svd_rank(matrix: np.ndarray) -> int:
    """Rank with the package-wide singular-value threshold."""
    if matrix.size == 0:
        return 0
    sigma = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(sigma > _sv_threshold(sigma)))


def null_space(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of ``matrix``.

    Rows are constraint normals; a matrix with zero rows has full null space.
    """
    n_cols = matrix.shape[1]
    if n_cols == 0:
        return np.zeros((0, 0))
    if matrix.shape[0] == 0:
        return np.eye(n_cols)
    _, sigma, vt = np.linalg.svd(matrix)
    rank = int(np.sum(sigma > _sv_threshold(sigma)))
    return vt[rank:].T


def is_invertible(matrix: np.ndarray) -> bool:
    """Square-matrix invertibility under the package threshold (0x0 counts)."""
    if matrix.shape[0] != matrix.shape[1]:
        return False
    if matrix.shape[0] == 0:
        return True
    return svd_rank(matrix) == matrix.shape[0]
