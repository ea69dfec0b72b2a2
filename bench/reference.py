"""Independent reference values for circulant graphs, written apart from circkit.

Nothing here imports circkit.  Each reference is computed by a different
route or at a higher precision than the program's own paths:

- exact spanning-tree counts of G_{n,1} from a Lucas sequence;
- the paper's closed resistance formula evaluated in mpmath at high precision;
- exact cycle and complete-graph values;
- a high-precision Fourier sum (sin^2 form, so no 1 - cos cancellation), using
  the complement K_n - H when fewer classes are deleted than kept;
- a numpy dense Laplacian pseudo-inverse and eigenvalue solver for moderate n.

Run this file to self-test every reference against hand-known values.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property

import mpmath
import numpy as np

DPS = 40


class Mismatch(Exception):
    """An output disagrees with its reference or breaks a required identity."""


def lucas_tree_count(n: int) -> int:
    """tau(G_{n,1}) = (V_n - 2(-1)^n) / n^2 with V_0 = 2, V_1 = n-2,
    V_{k+1} = (n-2) V_k - V_{k-1}; for odd n that is (V_n + 2) / n^2."""
    x = n - 2
    v0, v1 = 2, x
    for _ in range(n - 1):
        v0, v1 = v1, x * v1 - v0
    tau, rem = divmod(v1 - 2 * (-1) ** n, n * n)
    if rem:
        raise ArithmeticError(f"Lucas tree count at n={n} is not an integer")
    return tau


def relabel(n: int, r: int, q: int) -> int:
    """Distance that residue q of G_{n,r} maps to in G_{n,1}, gcd(r, n) = 1."""
    t = (pow(r, -1, n) * q) % n
    return min(t, n - t)


def mp_of(x) -> mpmath.mpf:
    """mpf of an int, Fraction or float at the working precision."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(float(x) if isinstance(x, np.floating) else x)


# every weight of 0 or 1 is one of these two objects, so the many classes of
# a deletion spec are told apart by identity, not by Fraction comparisons;
# building graphs is part of the benchmark's set-up time
_ZERO, _ONE = Fraction(0), Fraction(1)


def _weight(x) -> Fraction:
    if x is _ZERO or x is _ONE:
        return x
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative weight")
    return _ZERO if x == 0 else _ONE if x == 1 else x


class Graph:
    """A circulant on Z_n with rational weights per distance class 1..n//2."""

    def __init__(self, n: int, weights: dict[int, Fraction]):
        self.n = n
        self.w = {k: _weight(weights.get(k, _ZERO)) for k in range(1, n // 2 + 1)}
        self.support = tuple(k for k, w in self.w.items() if w is not _ZERO)

    @classmethod
    def deleted(cls, n: int, classes) -> "Graph":
        dels = set(classes)
        return cls(n, {k: _ZERO if k in dels else _ONE for k in range(1, n // 2 + 1)})

    @cached_property
    def key(self) -> tuple:
        """(n, deleted classes, the other weights that are not 1): equal for
        equal graphs, and cheap to hash."""
        other = tuple((k, w) for k, w in self.w.items() if w is not _ZERO and w is not _ONE)
        return (self.n, self.deleted_classes, other)

    def mult(self, k: int) -> int:
        """Edges per vertex of distance k: 1 for the antipodal class, else 2."""
        return 1 if 2 * k == self.n else 2

    @cached_property
    def is_indicator(self) -> bool:
        return all(w is _ZERO or w is _ONE for w in self.w.values())

    @cached_property
    def deleted_classes(self) -> tuple[int, ...]:
        return tuple(k for k, w in self.w.items() if w is _ZERO)

    @property
    def connected(self) -> bool:
        return math.gcd(self.n, *self.support) == 1

    @property
    def volume(self) -> Fraction:
        return self.n * sum((self.mult(k) * w for k, w in self.w.items()), Fraction(0))

    @property
    def closed_r(self) -> int | None:
        """The deleted class r when the paper's closed forms apply, else None."""
        dels = self.deleted_classes
        if (self.is_indicator and len(dels) == 1 and self.n % 2 == 1 and self.n >= 5
                and math.gcd(dels[0], self.n) == 1):
            return dels[0]
        return None

    @property
    def coprime_single(self) -> int | None:
        """A single deleted class coprime to n (any parity): G_{n,r} ~ G_{n,1}."""
        dels = self.deleted_classes
        if self.is_indicator and len(dels) == 1 and self.n >= 5 and math.gcd(dels[0], self.n) == 1:
            return dels[0]
        return None

    @property
    def cycle_weight(self) -> Fraction | None:
        """w when the graph is the cycle with weight w on class 1 and n >= 3."""
        if self.support == (1,) and self.n >= 3:
            return self.w[1]
        return None

    @cached_property
    def complete_weight(self) -> Fraction | None:
        """w when every class has the same weight w > 0: K_n scaled by w."""
        weights = set(self.w.values())
        return weights.pop() if len(weights) == 1 and self.support else None


class Reference:
    """High-precision values of one graph's invariants.

    Resistances, hitting times, forests and Kirchhoff indices come back as
    mpf; tree counts as an exact int or Fraction where one is known.
    """

    def __init__(self, graph: Graph):
        self.g = graph
        self._r: dict[int, mpmath.mpf] = {}

    # --- resistance -------------------------------------------------------
    def resistance(self, q: int) -> mpmath.mpf:
        g = self.g
        q %= g.n
        if q == 0:
            return mpmath.mpf(0)
        if q not in self._r:
            with mpmath.workdps(DPS):
                self._r[q] = self._resistance(q)
        return self._r[q]

    def _resistance(self, q: int) -> mpmath.mpf:
        exact = self.exact_resistance(q)
        if exact is not None:
            return mp_of(exact)
        n, r = self.g.n, self.g.closed_r
        if r is not None:
            return closed_resistance(n, relabel(n, r, q))
        return self.fourier.resistance(q)

    def exact_resistance(self, q: int) -> Fraction | None:
        """R(0, q) exactly on a weighted cycle or complete graph, else None."""
        g, n = self.g, self.g.n
        q %= n
        w = g.cycle_weight
        if w is not None:
            return Fraction(q * (n - q), n) / w
        w = g.complete_weight
        if w is not None:
            return Fraction(0 if q == 0 else 2, n) / w
        return None

    def hitting(self, q: int) -> mpmath.mpf:
        with mpmath.workdps(DPS):
            return mp_of(self.g.volume) / 2 * self.resistance(q)

    # --- trees and forests ------------------------------------------------
    @cached_property
    def trees_exact(self) -> int | Fraction | None:
        g, n = self.g, self.g.n
        w = g.cycle_weight
        if w is not None:
            return n * w ** (n - 1)
        w = g.complete_weight
        if w is not None:
            return n ** (n - 2) * w ** (n - 1)
        if g.coprime_single is not None:
            return lucas_tree_count(n)
        if not g.connected:
            return 0
        return None

    @cached_property
    def log_trees(self) -> mpmath.mpf:
        with mpmath.workdps(DPS):
            exact = self.trees_exact
            if exact is not None:
                return mpmath.log(mp_of(exact)) if exact else mpmath.mpf("-inf")
            return self.fourier.log_trees

    def forests(self, q: int) -> mpmath.mpf:
        with mpmath.workdps(DPS):
            return mpmath.exp(self.log_trees) * self.resistance(q)

    def log_forests(self, q: int) -> mpmath.mpf:
        with mpmath.workdps(DPS):
            return self.log_trees + mpmath.log(self.resistance(q))

    # --- Kirchhoff index --------------------------------------------------
    @cached_property
    def kirchhoff(self) -> mpmath.mpf:
        g, n = self.g, self.g.n
        with mpmath.workdps(DPS):
            w = g.cycle_weight
            if w is not None:
                return mp_of(Fraction(n ** 3 - n, 12) / w)
            w = g.complete_weight
            if w is not None:
                return mp_of(Fraction(n - 1) / w)
            if g.closed_r is not None:
                # Kf = (n/2) sum_{q=1}^{n-1} R(q), and relabeling permutes residues
                return n * closed_resistance_sum(n)
            return self.fourier.kirchhoff

    # --- spectrum ----------------------------------------------------------
    @cached_property
    def fourier(self) -> "FourierSum":
        return FourierSum(self.g)

    def eigenvalues(self) -> list[mpmath.mpf]:
        return self.fourier.eigenvalues


def closed_resistance(n: int, q: int) -> mpmath.mpf:
    """The paper's R(G_{n,1}; q) = (2/delta)(rho^n - 1 + (-1)^q (rho^q - rho^{n-q})) / (rho^n + 1),
    odd n, in mpmath at the working precision."""
    q %= n
    if q == 0:
        return mpmath.mpf(0)
    with mpmath.workdps(DPS):
        delta = mpmath.sqrt(n * (n - 4))
        rho = (n - 2 + delta) / 2
        sign = -1 if q % 2 else 1
        rn = rho ** n
        return 2 * (rn - 1 + sign * (rho ** q - rho ** (n - q))) / (delta * (rn + 1))


def closed_resistance_sum(n: int) -> mpmath.mpf:
    """sum_{q=1}^{h} R(G_{n,1}; q), h = (n-1)/2, with the three parts of the
    bracket summed as geometric series:
    h (rho^n - 1) + sum (-rho)^q - rho^n sum (-1/rho)^q."""
    h = (n - 1) // 2
    with mpmath.workdps(DPS):
        delta = mpmath.sqrt(n * (n - 4))
        rho = (n - 2 + delta) / 2
        rn = rho ** n

        def geometric(x):
            return x * (1 - x ** h) / (1 - x)

        total = h * (rn - 1) + geometric(-rho) - rn * geometric(-1 / rho)
        return 2 * total / (delta * (rn + 1))


def root_of_unity_closed(n: int, m: int, rho: float) -> mpmath.mpf:
    """sum_j w^{jm}/(rho + w^j) over the n-th roots of unity, odd n:
    n rho^{n-1}/(rho^n + 1) when n | m, else -n (-1)^mbar rho^{mbar-1}/(rho^n + 1)."""
    mbar = m % n
    with mpmath.workdps(DPS + int(n * math.log10(rho)) + 1):
        r = mpmath.mpf(rho)
        denom = r ** n + 1
        if mbar == 0:
            return n * r ** (n - 1) / denom
        sign = -1 if mbar % 2 else 1
        return -n * sign * r ** (mbar - 1) / denom


class FourierSum:
    """lambda_j = sum_k c_k w_k 2 sin^2(pi j k / n) in mpmath, with c_k the
    edges per vertex of class k.  Deletion specs that keep most classes use
    lambda_j = n - sum over the deleted classes instead (L(K_n) - L(H)).
    With precise=False the same sums run in double precision, which is
    enough to screen random draws and far cheaper."""

    def __init__(self, g: Graph, precise: bool = True):
        self.g = g
        n = g.n
        if precise:
            num, fsum = mp_of, mpmath.fsum
            sin2 = lambda t: 2 * mpmath.sinpi(mpmath.mpf(t) / n) ** 2  # noqa: E731
        else:
            num, fsum = float, math.fsum
            sin2 = lambda t: 2 * math.sin(math.pi * t / n) ** 2  # noqa: E731
        with mpmath.workdps(DPS):
            s = [num(0)] * n
            for t in range(1, n // 2 + 1):
                s[t] = s[n - t] = sin2(t)
            self.s = s
            dels = g.deleted_classes
            if g.is_indicator and len(dels) < len(g.support):
                terms = [(k, g.mult(k)) for k in dels]
                lams = [n - fsum(c * s[(j * k) % n] for k, c in terms) for j in range(n)]
            else:
                terms = [(k, g.mult(k) * num(g.w[k])) for k in g.support]
                lams = [fsum(c * s[(j * k) % n] for k, c in terms) for j in range(n)]
            lams[0] = num(0)
            self.eigenvalues = lams
            self.inv = [None] + [1 / x if x else None for x in lams[1:]]

    def resistance(self, q: int) -> mpmath.mpf:
        n = self.g.n
        with mpmath.workdps(DPS):
            return 2 * mpmath.fsum(self.s[(j * q) % n] * self.inv[j] for j in range(1, n)) / n

    @cached_property
    def log_trees(self) -> mpmath.mpf:
        with mpmath.workdps(DPS):
            return mpmath.fsum(mpmath.log(x) for x in self.eigenvalues[1:]) - mpmath.log(self.g.n)

    @cached_property
    def kirchhoff(self) -> mpmath.mpf:
        with mpmath.workdps(DPS):
            return self.g.n * mpmath.fsum(self.inv[1:])


# --- numpy dense reference -------------------------------------------------

def dense_laplacian(g: Graph) -> np.ndarray:
    n = g.n
    row = np.zeros(n)
    for k, w in g.w.items():
        row[k] -= float(w)
        row[n - k] = row[k]
    row[0] = -row.sum()
    return np.array([np.roll(row, i) for i in range(n)])


def dense_resistance_profile(g: Graph) -> np.ndarray:
    """R(0, v) for every v from the Moore-Penrose pseudo-inverse,
    taken as inv(L + J/n) - J/n since the graph is connected."""
    n = g.n
    p = np.linalg.inv(dense_laplacian(g) + 1.0 / n) - 1.0 / n
    return p[0, 0] + np.diag(p) - 2 * p[0]


def dense_eigenvalues(g: Graph) -> np.ndarray:
    return np.linalg.eigvalsh(dense_laplacian(g))


# --- identities every output must satisfy ---------------------------------

def foster_sum(g: Graph, resistances: dict[int, object]):
    """sum over edges of w_e R_e, from R at every distance class in the support.

    Equals n - 1 on every connected graph (Foster's theorem); with forest
    counts F = tau * R in place of R it gives (n - 1) tau."""
    return sum(g.n * g.mult(k) * g.w[k] * resistances[k] for k in g.support) / 2


def check_foster(g: Graph, resistances: dict[int, float], rel_tol: float = 1e-9) -> None:
    total = foster_sum(g, resistances)
    if not math.isclose(total, g.n - 1, rel_tol=rel_tol):
        raise Mismatch(f"Foster sum {total!r} != n-1 = {g.n - 1} on n={g.n}")


def check_forest_identity(g: Graph, forests: dict[int, int], tau: int) -> None:
    """Exact Foster in forest form: sum_e w_e F_e = (n-1) tau; for G_{n,1}
    that is n * sum_{k>=2} F(k) = (n-1) tau."""
    if foster_sum(g, forests) != (g.n - 1) * tau:
        raise Mismatch(f"forest identity fails on n={g.n}")


def check_mc(mean: float, stderr: float, exact) -> None:
    if not stderr > 0 or abs(mean - float(exact)) > 5 * stderr:
        raise Mismatch(f"Monte Carlo mean {mean} not within 5 stderr ({stderr}) of {float(exact)}")


# --- self-test ---------------------------------------------------------------

def self_test() -> None:
    """Check every reference against values known by hand; raise on failure."""
    def close(a, b, tol):
        with mpmath.workdps(DPS):
            a, b = mp_of(a), mp_of(b)
            if not abs(a - b) <= tol * max(1, abs(b)):
                raise AssertionError(f"{a} != {b}")

    assert lucas_tree_count(5) == 5
    assert lucas_tree_count(7) == 1183
    assert lucas_tree_count(6) == 75  # K_6 minus C_6 is the triangular prism
    g7 = Graph.deleted(7, {1})
    r38 = Fraction(38, 91)
    with mpmath.workdps(DPS):
        assert abs(closed_resistance(7, 2) - mp_of(r38)) < mpmath.mpf(10) ** (5 - DPS)
        assert abs(FourierSum(g7).resistance(2) - mp_of(r38)) < mpmath.mpf(10) ** (5 - DPS)
        assert abs(FourierSum(g7).log_trees - mpmath.log(1183)) < mpmath.mpf(10) ** (5 - DPS)
    close(dense_resistance_profile(g7)[2], r38, 1e-12)
    # G_{7,2} relabels onto G_{7,1}: residue 1 of G_{7,2} is distance 3 of G_{7,1}
    g72 = Reference(Graph.deleted(7, {2}))
    close(g72.resistance(1), Reference(g7).resistance(relabel(7, 2, 1)), 1e-30)
    close(g72.resistance(1), FourierSum(Graph.deleted(7, {2})).resistance(1), 1e-30)
    assert g72.trees_exact == 1183
    # hitting time H = vol/2 * R: vol(G_{7,1}) = 7 * 4
    close(Reference(g7).hitting(2), Fraction(28, 2) * r38, 1e-30)
    # cycle: R = q(n-q)/n, tau = n, Kf = (n^3 - n)/12
    c8 = Graph(8, {1: 1})
    close(Reference(c8).resistance(3), Fraction(15, 8), 1e-30)
    assert Reference(c8).trees_exact == 8
    close(Reference(c8).kirchhoff, 42, 1e-30)
    close(FourierSum(c8).resistance(3), Fraction(15, 8), 1e-30)
    close(FourierSum(c8).kirchhoff, 42, 1e-30)
    # Kirchhoff of G_{9,1} by geometric sums, by the term-by-term sum and by Fourier
    g9 = Graph.deleted(9, {1})
    with mpmath.workdps(DPS):
        termwise = 9 * mpmath.fsum(closed_resistance(9, q) for q in range(1, 5))
    close(Reference(g9).kirchhoff, termwise, 1e-30)
    close(Reference(g9).kirchhoff, FourierSum(g9).kirchhoff, 1e-30)
    close(dense_resistance_profile(c8)[3], Fraction(15, 8), 1e-12)
    # complete graph: R = 2/n, tau = n^(n-2), eigenvalues n
    k6 = Graph.deleted(6, ())
    close(FourierSum(k6).resistance(1), Fraction(1, 3), 1e-30)
    with mpmath.workdps(DPS):
        close(FourierSum(k6).log_trees, 4 * mpmath.log(6), 1e-30)
    assert Reference(k6).trees_exact == 6 ** 4
    # K_5 with every weight 1/2: R = 2/(n w), tau = n^(n-2) w^(n-1), Kf = (n-1)/w
    k5 = Graph(5, {1: Fraction(1, 2), 2: Fraction(1, 2)})
    close(Reference(k5).resistance(1), Fraction(4, 5), 1e-30)
    close(FourierSum(k5).resistance(1), Fraction(4, 5), 1e-30)
    assert Reference(k5).trees_exact == Fraction(125, 16)
    with mpmath.workdps(DPS):
        close(FourierSum(k5).log_trees, mpmath.log(mp_of(Fraction(125, 16))), 1e-30)
    close(Reference(k5).kirchhoff, 8, 1e-30)
    close(FourierSum(k5).kirchhoff, 8, 1e-30)
    assert np.allclose(dense_eigenvalues(Graph.deleted(5, ())), [0, 5, 5, 5, 5])
    # Foster and its forest form on G_{7,1}: 7 * (F(2) + F(3)) = 6 * 1183
    check_foster(g7, {k: float(Reference(g7).resistance(k)) for k in (1, 2, 3)})
    forests = {k: int(mpmath.nint(Reference(g7).forests(k))) for k in (1, 2, 3)}
    assert forests[2] == 1183 * r38
    check_forest_identity(g7, forests, 1183)
    # root-of-unity sum at n = 5, rho = 2, m = 0: 5 * 2^4 / 33
    close(root_of_unity_closed(5, 0, 2.0), Fraction(80, 33), 1e-30)
    check_mc(5.85, 0.01, Reference(g7).hitting(2))


if __name__ == "__main__":
    self_test()
    print("reference self-test passed")
    sys.exit(0)
