"""Closed forms for the complete graph on odd n with one distance class
deleted, in two backends.

Float backend: everything is evaluated through inverse powers exp(-m*log rho),
which stay in (0, 1], so nothing overflows no matter how large n gets.
Exact backend: the same expressions evaluated in Q(rho); tree and forest
counts must come out as plain integers, and failure to do so is treated as
a bug, not rounded away.

Covers a single deleted class r coprime to n, via the distance relabeling
that maps such a graph onto the r = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from .errors import UnsupportedCaseError
from .quadfield import QuadElem, delta_element, rho_element

__all__ = [
    "RhoConstants",
    "AsymptoticPredictors",
    "rho_constants",
    "resistance_closed",
    "resistance_closed_exact",
    "tree_count_closed",
    "tree_count_closed_log",
    "forest_count_closed",
    "forest_count_closed_log",
    "hitting_time_closed",
    "hitting_time_closed_exact",
    "kirchhoff_closed",
    "kirchhoff_closed_exact",
    "reduce_coprime",
    "root_of_unity_sum",
    "root_of_unity_sum_closed",
    "asymptotic_predictors",
]


def _require_odd(n: int) -> None:
    if not isinstance(n, int) or n < 5 or n % 2 == 0:
        raise ValueError(f"closed forms need an odd n >= 5, got {n!r}")


def _check_q(n: int, q: int, allow_zero: bool) -> None:
    lo = 0 if allow_zero else 1
    if not lo <= q <= n - 1:
        raise ValueError(f"q={q} outside {{{lo}..{n - 1}}} for n={n}")


@dataclass(frozen=True)
class RhoConstants:
    n: int
    delta: float
    rho: float
    log_rho: float


def rho_constants(n: int) -> RhoConstants:
    """delta = sqrt(n(n-4)) and rho = (n-2+delta)/2, the constants every
    closed form is written in."""
    _require_odd(n)
    delta = math.sqrt(n * (n - 4))
    rho = (n - 2 + delta) / 2
    return RhoConstants(n=n, delta=delta, rho=rho, log_rho=math.log(rho))


def _bracket(n: int, q: int, log_rho: float) -> float:
    """(rho^n - 1 + (-1)^q (rho^q - rho^{n-q})) / rho^n via inverse powers."""
    sign = -1.0 if q % 2 else 1.0
    return (
        1.0
        - math.exp(-n * log_rho)
        + sign * (math.exp((q - n) * log_rho) - math.exp(-q * log_rho))
    )


def resistance_closed(n: int, q: int) -> float:
    """Effective resistance across oriented residue q, single deleted class."""
    _require_odd(n)
    _check_q(n, q, allow_zero=True)
    if q == 0:
        return 0.0
    c = rho_constants(n)
    return (2.0 / c.delta) * _bracket(n, q, c.log_rho) / (1.0 + math.exp(-n * c.log_rho))


def resistance_closed_exact(n: int, q: int) -> Fraction:
    """Same value in Q(rho); the irrational part must cancel."""
    _require_odd(n)
    _check_q(n, q, allow_zero=True)
    rho = rho_element(n)
    sign = -1 if q % 2 else 1
    bracket = rho**n - 1 + sign * (rho**q - rho ** (n - q))
    value = 2 * bracket / (delta_element(n) * (rho**n + 1))
    if not value.is_rational:
        raise RuntimeError(f"resistance at n={n}, q={q} came out irrational: {value!r}")
    return value.as_fraction()


def tree_count_closed_log(n: int) -> float:
    """log of the spanning-tree count, safe for very large n."""
    _require_odd(n)
    c = rho_constants(n)
    return (
        -math.log(n)
        + (n + 1) * c.log_rho
        + 2.0 * math.log1p(math.exp(-n * c.log_rho))
        - 2.0 * math.log(c.rho + 1.0)
    )


def tree_count_closed(n: int) -> int:
    """Exact spanning-tree count (rho^n + 1)^2 / (n rho^{n-1} (rho+1)^2).

    Integrality is verified, not assumed; a non-integer result aborts."""
    _require_odd(n)
    rho = rho_element(n)
    value = (rho**n + 1) ** 2 / (n * rho ** (n - 1) * (rho + 1) ** 2)
    try:
        return value.as_integer()
    except ValueError as exc:
        raise RuntimeError(f"tree count at n={n} is not an integer: {value!r}") from exc


def forest_count_closed(n: int, q: int) -> int:
    """Exact count of two-component forests separating residue q, as tau * R."""
    _require_odd(n)
    _check_q(n, q, allow_zero=False)
    value = tree_count_closed(n) * resistance_closed_exact(n, q)
    if value.denominator != 1 or value < 0:
        raise RuntimeError(f"forest count at n={n}, q={q} is not a whole number: {value}")
    return int(value)


def forest_count_closed_log(n: int, q: int) -> float:
    _require_odd(n)
    _check_q(n, q, allow_zero=False)
    return tree_count_closed_log(n) + math.log(resistance_closed(n, q))


def hitting_time_closed(n: int, q: int) -> float:
    """Expected hitting time across residue q: half the volume times R."""
    _require_odd(n)
    _check_q(n, q, allow_zero=True)
    return n * (n - 3) / 2.0 * resistance_closed(n, q)


def hitting_time_closed_exact(n: int, q: int) -> Fraction:
    _require_odd(n)
    _check_q(n, q, allow_zero=True)
    return Fraction(n * (n - 3), 2) * resistance_closed_exact(n, q)


def kirchhoff_closed(n: int) -> float:
    """Sum of resistances over all unordered pairs, single deleted class."""
    _require_odd(n)
    c = rho_constants(n)
    t = math.exp(-n * c.log_rho)
    inner = (n - 1) * (1.0 - t) + 2.0 * (1.0 - math.exp((1 - n) * c.log_rho)) / (c.rho + 1.0)
    return n * inner / (c.delta * (1.0 + t))


def kirchhoff_closed_exact(n: int) -> Fraction:
    _require_odd(n)
    rho = rho_element(n)
    inner = (n - 1) * (rho**n - 1) + 2 * (rho**n - rho) / (rho + 1)
    value = n * inner / (delta_element(n) * (rho**n + 1))
    if not value.is_rational:
        raise RuntimeError(f"Kirchhoff index at n={n} came out irrational: {value!r}")
    return value.as_fraction()


def reduce_coprime(n: int, r: int, q: int) -> int:
    """Distance relabeling for a deleted class r coprime to n.

    Returns delta_r(q) = min(sq mod n, n - sq mod n) with s the inverse of r
    mod n; every invariant of the graph with class r deleted at residue q
    equals the r = 1 invariant at this distance.
    """
    _require_odd(n)
    if math.gcd(r, n) != 1:
        raise UnsupportedCaseError(
            f"r={r} shares a factor with n={n}; no closed form covers that case"
        )
    s = pow(r, -1, n)
    t = (s * q) % n
    return min(t, n - t)


def _sum_digits(n: int, rho: float) -> int:
    """Working precision for the root-of-unity sum.

    The n terms are O(1) individually but the sum collapses to O(rho^-n)
    for most m, so double precision loses everything past n*log10(rho)
    digits.  Carry that spread plus comfortable headroom.
    """
    spread = abs(n * math.log10(rho)) if rho != 1.0 else 0.0
    return 36 + math.ceil(spread)


@lru_cache(maxsize=8)
def _roots_of_unity(n: int, dps: int) -> tuple:
    """w_j = exp(2 pi i j / n) for j = 0..n-1, at dps working digits."""
    with mpmath.workdps(dps):
        return tuple(mpmath.expjpi(mpmath.mpf(2 * j) / n) for j in range(n))


def root_of_unity_sum(n: int, m: int, rho: float) -> complex:
    """Direct summation of sum_j w^{jm} / (rho + w^j) over the n-th roots w.

    Summed with enough working digits to survive the near-total
    cancellation, then rounded once at the end.  The roots are built once
    per (n, digits) and w_j^m is read off as w_{jm mod n}.
    """
    _require_odd(n)
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    dps = _sum_digits(n, rho)
    roots = _roots_of_unity(n, dps)
    with mpmath.workdps(dps):
        r = mpmath.mpf(rho)
        total = mpmath.mpc(0)
        for j in range(n):
            total += roots[(j * m) % n] / (r + roots[j])
        return complex(total)


def root_of_unity_sum_closed(n: int, m: int, rho: float) -> float:
    """Closed evaluation of the same sum: n rho^{n-1}/(rho^n + 1) when
    m = 0 mod n, else -n (-1)^mbar rho^{mbar-1}/(rho^n + 1)."""
    _require_odd(n)
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    mbar = m % n
    with mpmath.workdps(_sum_digits(n, rho)):
        r = mpmath.mpf(rho)
        denom = r**n + 1
        if mbar == 0:
            return float(n * r ** (n - 1) / denom)
        sign = -1 if mbar % 2 else 1
        return float(-n * sign * r ** (mbar - 1) / denom)


@dataclass(frozen=True)
class AsymptoticPredictors:
    n: int
    rho_approx: float
    resistance_limit: float
    kirchhoff_approx: float
    tree_ratio: float
    tree_ratio_limit: float


def asymptotic_predictors(n: int) -> AsymptoticPredictors:
    """Leading-order large-n behavior: rho ~ n-2-1/n, R -> 2/n,
    Kf ~ n(n-1)/delta, and tau / n^{n-2} -> exp(-2)."""
    _require_odd(n)
    c = rho_constants(n)
    return AsymptoticPredictors(
        n=n,
        rho_approx=n - 2 - 1.0 / n,
        resistance_limit=2.0 / n,
        kirchhoff_approx=n * (n - 1) / c.delta,
        tree_ratio=math.exp(tree_count_closed_log(n) - (n - 2) * math.log(n)),
        tree_ratio_limit=math.exp(-2.0),
    )
