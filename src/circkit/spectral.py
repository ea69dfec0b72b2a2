"""Invariants computed from the Fourier eigenvalues alone.

Works for every distance-weight profile and any n, even or odd.  Every
quantity reads one cached per-spec spectrum, built once in numpy in the
cancellation-free form

    lambda_j = sum_k 4 w(k) sin^2(pi j k / n)   (the n/2 class at half weight)
    R(q)     = (4/n) sum_j sin^2(pi j q / n) / lambda_j,

where every term is nonnegative.  sin^2 comes from one table per n, filled
for t <= n/2 and mirrored, and lambda_j is filled for j <= n/2 and mirrored,
so the reflections j <-> n-j and q <-> n-q hold bit for bit.  Connectivity is
decided exactly, gcd(n, support) == 1, never by an eigenvalue threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DisconnectedGraphError
from .graphs import CirculantSpec, is_connected, oriented_residue, volume

__all__ = [
    "Spectrum",
    "TreeCount",
    "eigenvalues",
    "resistance_spectral",
    "tree_count_spectral",
    "forest_count_spectral",
    "hitting_time_spectral",
    "kirchhoff_spectral",
]

# the integer channel claims a tree count only when its rounding bound is
# below this, so the true integer is the nearest one
_INT_CLAIM_DEV = 0.25
_LD_EPS = float(np.finfo(np.longdouble).eps)
_FLOAT_RANGE_MSG = "weights are outside the float range of the spectral method"


@dataclass(frozen=True)
class Spectrum:
    """Laplacian eigenvalues in Fourier order; min_positive is the smallest
    among j >= 1 (the algebraic connectivity)."""

    n: int
    eigenvalues: tuple[float, ...]
    min_positive: float
    connected: bool


@dataclass(frozen=True)
class TreeCount:
    """log of the spanning-tree count, plus the exact integer when it can
    be claimed with confidence (unweighted, with a rounding bound below 1/4)."""

    log_value: float
    integer: int | None


def _sin2_half(n: int, dtype=np.float64) -> np.ndarray:
    """sin^2(pi t / n) for t = 0..n//2, where the argument stays in [0, pi/2]."""
    t = np.arange(n // 2 + 1, dtype=dtype)
    pi = np.arccos(dtype(-1))
    s = np.sin(pi * t / dtype(n))
    return s * s


def _mirror(half: np.ndarray, n: int) -> np.ndarray:
    """Extend values at 0..n//2 to 0..n-1 by x[n - i] = x[i]."""
    return np.concatenate((half, half[1:n - n // 2][::-1]))


@lru_cache(maxsize=8)
def _sin2_table(n: int) -> np.ndarray:
    """sin^2(pi t / n) for t = 0..n-1, with entries t and n-t bitwise equal."""
    table = _mirror(_sin2_half(n), n)
    table.flags.writeable = False
    return table


def _eigenvalue_half(spec: CirculantSpec, table: np.ndarray) -> np.ndarray:
    """lambda_j for j = 0..n//2 in the precision of ``table``, accumulated one
    distance class at a time so that memory stays O(n) whatever the support."""
    n = spec.n
    j = np.arange(n // 2 + 1)
    lam = np.zeros(n // 2 + 1, dtype=table.dtype)
    for k in spec.support:
        try:
            weight = float(spec.weights[k])
        except OverflowError:
            raise ValueError(_FLOAT_RANGE_MSG) from None
        lam += weight * (2.0 if 2 * k == n else 4.0) * table[(j * k) % n]
    return lam


def _scaled_product(x: np.ndarray) -> tuple[np.floating, int]:
    """Product of the positive entries of x as (m, e) with x.prod() == m * 2**e
    and m in [1/2, 1).  The factors are split by frexp and multiplied in
    blocks of 64 mantissas, so no partial product under- or overflows, and
    every multiplication rounds once, as in a plain running product."""
    m, e = np.frexp(np.concatenate((x, np.ones(1, x.dtype))))
    exponent = int(e.sum())
    while m.size > 1:
        pad = np.ones(-m.size % 64, m.dtype)
        m, e = np.frexp(np.concatenate((m, pad)).reshape(-1, 64).prod(axis=1))
        exponent += int(e.sum())
    return m[0], exponent


class _SpectralData:
    """Everything the spectral quantities of one spec derive from."""

    def __init__(self, spec: CirculantSpec) -> None:
        n = self.n = spec.n
        self.spec = spec
        self.table = _sin2_table(n)
        self.connected = is_connected(spec)
        self.lam_half = _eigenvalue_half(spec, self.table)
        # j = 1..n//2 stand for the pairs {j, n-j}; n/2 for itself alone
        self.j = np.arange(1, n // 2 + 1)
        self.mult = np.full(n // 2, 2.0)
        if n % 2 == 0:
            self.mult[-1] = 1.0
        if self.connected:
            # a positive weight can still round to 0 or inf as a float
            lam = self.lam_half[1:]
            if not (lam.min() > 0 and np.isfinite(lam.max()) and np.isfinite(1.0 / lam.min())):
                raise ValueError(_FLOAT_RANGE_MSG)
            recip = self.mult / lam
            # R(q) = sum over the half range of sin^2(pi j q / n) * coef_j
            self.coef = (4.0 / n) * recip
            self.log_tau = math.fsum([*(self.mult * np.log(lam)), -math.log(n)])
            self.kirchhoff = n * math.fsum(recip)
        else:
            self.log_tau = -math.inf

    @cached_property
    def half_volume(self) -> float:
        return float(volume(self.spec)) / 2.0

    def require_connected(self) -> None:
        if not self.connected:
            raise DisconnectedGraphError(
                f"gcd(n, support) > 1; graph on {self.n} vertices is disconnected"
            )

    def resistance(self, q: int) -> float:
        self.require_connected()
        if q == 0:
            return 0.0
        h = min(q, self.n - q)
        return float(np.dot(self.table[(self.j * h) % self.n], self.coef))

    @cached_property
    def spectrum(self) -> Spectrum:
        lams = _mirror(self.lam_half, self.n)
        return Spectrum(
            n=self.n,
            eigenvalues=tuple(lams.tolist()),
            min_positive=float(self.lam_half[1:].min()),
            connected=self.connected,
        )

    @cached_property
    def tree_count(self) -> TreeCount:
        spec, n = self.spec, self.n
        if not self.connected:
            return TreeCount(log_value=-math.inf, integer=0)
        if not spec.is_indicator:
            return TreeCount(log_value=self.log_tau, integer=None)
        # relative error of the long-double product: each sin^2 within a few
        # eps, each lambda within (|support| + 10) eps, then n - 1 factors;
        # the bound carries about a factor 2 over that first-order estimate
        rel_bound = _LD_EPS * n * (len(spec.support) + 11)
        # skip the long-double pass where log tau already rules out a claim
        if math.log(_INT_CLAIM_DEV / rel_bound) < self.log_tau - 1e-6 * abs(self.log_tau) - 1.0:
            return TreeCount(log_value=self.log_tau, integer=None)
        lam = _eigenvalue_half(spec, _mirror(_sin2_half(n, np.longdouble), n))
        # tau = (prod_{0<j<n/2} lambda_j)^2 * lambda_{n/2} / n, kept as m * 2**e
        mantissa, exponent = _scaled_product(lam[1:(n + 1) // 2])
        mantissa *= mantissa
        if n % 2 == 0:
            mantissa *= lam[n // 2]
        mantissa, shift = np.frexp(mantissa / np.longdouble(n))
        exponent = 2 * exponent + int(shift)
        # a connected graph has tau >= 1; above 2**64 no claim can pass the bound
        if not 1 <= exponent <= 64:
            return TreeCount(log_value=self.log_tau, integer=None)
        product = np.ldexp(mantissa, exponent)
        nearest = int(np.rint(product))
        deviation = abs(float(product - np.longdouble(nearest)))
        agrees = abs(math.log(float(product)) - self.log_tau) < 1e-6 * (1.0 + self.log_tau)
        if float(product) * rel_bound < _INT_CLAIM_DEV and deviation < _INT_CLAIM_DEV and agrees:
            return TreeCount(log_value=self.log_tau, integer=nearest)
        return TreeCount(log_value=self.log_tau, integer=None)

@lru_cache(maxsize=16)
def _data(spec: CirculantSpec) -> _SpectralData:
    return _SpectralData(spec)


def eigenvalues(spec: CirculantSpec) -> Spectrum:
    """All n Laplacian eigenvalues, lambda_j = sum_k 4 w(k) sin^2(pi jk/n)."""
    return _data(spec).spectrum


def resistance_spectral(spec: CirculantSpec, u: int, v: int) -> float:
    """Effective resistance (4/n) sum_j sin^2(pi jq/n) / lambda_j."""
    return _data(spec).resistance(oriented_residue(u, v, spec.n))


def tree_count_spectral(spec: CirculantSpec) -> TreeCount:
    """Spanning-tree count from the eigenvalue product, in log domain.

    For disconnected graphs the count is 0 and the log is -inf.  For
    unweighted specs the integer channel recomputes the product from
    long-double eigenvalues and claims the nearest integer only when an
    explicit bound on its rounding error is below 1/4.
    """
    return _data(spec).tree_count


def forest_count_spectral(spec: CirculantSpec, u: int, v: int) -> float:
    """Two-component forests separating u and v, as tau * R(u, v)."""
    if u == v:
        raise ValueError("forest count needs two distinct vertices")
    data = _data(spec)
    log_value = data.log_tau + math.log(data.resistance(oriented_residue(u, v, spec.n)))
    return math.exp(log_value) if log_value < 709.0 else float("inf")


def hitting_time_spectral(spec: CirculantSpec, u: int, v: int) -> float:
    """Expected hitting time, (volume/2) * R(u, v); symmetric in u and v."""
    return _data(spec).half_volume * resistance_spectral(spec, u, v)


def kirchhoff_spectral(spec: CirculantSpec) -> float:
    """Kirchhoff index n * sum_j 1/lambda_j over j >= 1."""
    data = _data(spec)
    data.require_connected()
    return data.kirchhoff
