"""Circulant graph specifications and distance arithmetic on Z_N.

A graph here is always a circulant on vertex set Z_N whose edge weights
depend only on the circulant distance between endpoints.  The common case
is the complete graph K_N with one or more whole distance classes deleted,
encoded as a 0/1 weight profile.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

__all__ = [
    "CirculantSpec",
    "VertexPair",
    "oriented_residue",
    "circulant_distance",
    "degree",
    "volume",
    "is_connected",
    "spec_to_json",
    "spec_from_json",
]


def _check_vertex(label: str, x: int, n: int) -> None:
    if not isinstance(x, int) or not 0 <= x < n:
        raise ValueError(f"{label}={x} is not a vertex of Z_{n}")


def oriented_residue(u: int, v: int, n: int) -> int:
    """Oriented difference (v - u) mod n, in {0, ..., n-1}."""
    _check_vertex("u", u, n)
    _check_vertex("v", v, n)
    return (v - u) % n


def circulant_distance(u: int, v: int, n: int) -> int:
    """Unoriented circulant distance min(q, n - q) with q = (v - u) mod n."""
    q = oriented_residue(u, v, n)
    return min(q, n - q)


@dataclass(frozen=True, eq=False)
class CirculantSpec:
    """Identity of a circulant graph: vertex count plus distance weights.

    ``weights`` maps every distance k in {1, ..., n // 2} to a nonnegative
    rational weight.  ``deleted`` is set when the spec is the complete graph
    with whole distance classes removed; then the weights are the 0/1
    indicator of the surviving classes.

    Specs are immutable: ``weights`` is a read-only view of a private copy.
    Equality and the hash, computed once, go by ``(n, deleted)`` for
    deletion specs and by n and the nonzero weights otherwise.
    """

    n: int
    weights: Mapping[int, Fraction]
    deleted: frozenset[int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))
        if self.deleted is not None:
            object.__setattr__(self, "deleted", frozenset(self.deleted))
        if not isinstance(self.n, int) or self.n < 3:
            raise ValueError(f"vertex count must be an integer >= 3, got {self.n!r}")
        half = self.n // 2
        for k, w in self.weights.items():
            if not 1 <= k <= half:
                raise ValueError(f"distance {k} outside 1..{half} for n={self.n}")
            if w < 0:
                raise ValueError(f"negative weight {w} at distance {k}")
        if set(self.weights) != set(range(1, half + 1)):
            raise ValueError("weights must cover every distance in 1..n//2")
        if self.deleted is not None:
            if not self.deleted <= set(range(1, half + 1)):
                raise ValueError(f"deleted classes {sorted(self.deleted)} outside 1..{half}")
            for k in range(1, half + 1):
                expected = Fraction(0) if k in self.deleted else Fraction(1)
                if self.weights[k] != expected:
                    raise ValueError(
                        "weights of a deletion spec must be the 0/1 indicator of the deleted set"
                    )
            key = (self.n, self.deleted)
        else:
            key = (self.n, tuple((k, self.weights[k]) for k in range(1, half + 1) if self.weights[k]))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CirculantSpec):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # a mappingproxy does not pickle; rebuild (and revalidate) from a dict
        return (type(self), (self.n, dict(self.weights), self.deleted))

    @classmethod
    def from_deleted(cls, n: int, deleted: Iterable[int] = ()) -> "CirculantSpec":
        """K_n with the given distance classes deleted (0/1 weights)."""
        dels = frozenset(int(k) for k in deleted)
        half = n // 2
        weights = {k: Fraction(0) if k in dels else Fraction(1) for k in range(1, half + 1)}
        return cls(n=n, weights=weights, deleted=dels)

    @classmethod
    def complete(cls, n: int) -> "CirculantSpec":
        return cls.from_deleted(n)

    @classmethod
    def weighted(cls, n: int, weights: Mapping[int, Fraction | int | str]) -> "CirculantSpec":
        """General distance-weight profile; unspecified distances get weight 0."""
        half = n // 2
        table = {k: Fraction(0) for k in range(1, half + 1)}
        for k, w in weights.items():
            table[int(k)] = Fraction(w)
        return cls(n=n, weights=table, deleted=None)

    def weight(self, k: int) -> Fraction:
        """Weight of distance class k (0 for k = 0, i.e. no self-loops)."""
        if k == 0:
            return Fraction(0)
        return self.weights[k]

    @cached_property
    def support(self) -> tuple[int, ...]:
        """Distances with strictly positive weight, ascending."""
        return tuple(k for k in sorted(self.weights) if self.weights[k] > 0)

    @cached_property
    def is_indicator(self) -> bool:
        """True when every weight is 0 or 1 (an unweighted deletion graph)."""
        return all(w in (0, 1) for w in self.weights.values())


@dataclass(frozen=True)
class VertexPair:
    """A vertex pair together with its oriented residue and distance."""

    u: int
    v: int
    q: int
    h: int

    @classmethod
    def of(cls, u: int, v: int, n: int) -> "VertexPair":
        q = oriented_residue(u, v, n)
        return cls(u=u, v=v, q=q, h=min(q, n - q))


def degree(spec: CirculantSpec) -> Fraction:
    """Weighted degree of every vertex (the graph is vertex-transitive)."""
    n = spec.n
    total = sum((2 * spec.weights[k] for k in range(1, (n - 1) // 2 + 1)), Fraction(0))
    if n % 2 == 0:
        total += spec.weights[n // 2]
    return total


def volume(spec: CirculantSpec) -> Fraction:
    """Total weighted degree, n * degree."""
    return spec.n * degree(spec)


def is_connected(spec: CirculantSpec) -> bool:
    """Whether the circulant graph is connected: exactly when
    gcd(n, distances of positive weight) == 1, since weights are
    nonnegative rationals and only their support matters."""
    return math.gcd(spec.n, *spec.support) == 1


def spec_to_json(spec: CirculantSpec) -> str:
    """Serialize a spec: {"n": ..., "deleted": [...]} or {"n": ..., "weights": {...}}
    with the nonzero weights only."""
    return json.dumps(spec_to_dict(spec))


def spec_to_dict(spec: CirculantSpec) -> dict:
    if spec.deleted is not None:
        return {"n": spec.n, "deleted": sorted(spec.deleted)}
    # zero weights are left out; spec_from_dict refills them
    return {"n": spec.n, "weights": {str(k): str(spec.weights[k]) for k in spec.support}}


def spec_from_json(text: str) -> CirculantSpec:
    return spec_from_dict(json.loads(text))


def spec_from_dict(data: dict) -> CirculantSpec:
    if "deleted" in data:
        return CirculantSpec.from_deleted(int(data["n"]), data["deleted"])
    if "weights" in data:
        return CirculantSpec.weighted(int(data["n"]), data["weights"])
    raise ValueError("spec JSON needs either a 'deleted' or a 'weights' field")
