"""Judging circkit's outputs against the independent references.

Every judge returns the relative errors of the float outputs it looked at
(a log-domain value's absolute error is the relative error of the value it
stands for) and raises `Mismatch` when an output is wrong.  Exact outputs
are compared exactly, or to 30 digits where the reference is an mpf.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from reference import (
    DPS, Graph, Mismatch, Reference, check_forest_identity, check_foster, check_mc,
    closed_resistance, dense_eigenvalues, dense_resistance_profile, mp_of,
)

# the program's own default agreement tolerances, one per quantity
TOL = {"resistance": 1e-9, "trees": 1e-9, "forests": 1e-6, "hitting": 1e-9,
       "kirchhoff": 1e-9, "eigenvalues": 1e-9}
EXACT_TOL = mpmath.mpf(10) ** -30
DENSE_MAX_N = 300


@dataclass
class CliOut:
    code: int
    out: str
    err: str


class References:
    """One Reference per graph, reused across ops and passes."""

    def __init__(self) -> None:
        self._refs: dict[tuple, Reference] = {}
        self._dense: dict[tuple, np.ndarray] = {}

    def __call__(self, g: Graph) -> Reference:
        ref = self._refs.get(g.key)
        if ref is None:
            ref = self._refs[g.key] = Reference(g)
        return ref

    def dense_profile(self, g: Graph) -> np.ndarray:
        if g.key not in self._dense:
            self._dense[g.key] = dense_resistance_profile(g)
        return self._dense[g.key]


def _without_spec(obj: dict) -> dict:
    # each record repeats its spec, weight table included; dropping it while
    # parsing keeps the checks' memory below the program's own peak
    obj.pop("spec", None)
    return obj


def records(out) -> list[dict]:
    """JSON-lines records of a successful CLI call, without their specs."""
    if isinstance(out, Exception):
        raise Mismatch(f"raised {type(out).__name__}: {out}")
    if out.code != 0:
        raise Mismatch(f"exit {out.code}: {out.err.strip()[-200:]}")
    return [json.loads(line, object_hook=_without_spec)
            for line in out.out.splitlines() if line.strip()]


def rel_error(value: float, ref) -> float:
    with mpmath.workdps(DPS):
        ref = mp_of(ref) if not isinstance(ref, mpmath.mpf) else ref
        if ref == 0:
            return abs(value)
        return float(abs(mpmath.mpf(value) - ref) / abs(ref))


def judge_float(value, ref, tol: float, what: str) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise Mismatch(f"{what}: non-finite value {value!r}")
    err = rel_error(float(value), ref)
    if err > tol:
        raise Mismatch(f"{what}: {value!r} vs reference {mpmath.nstr(mp_of(ref), 17)} (rel {err:.2e})")
    return err


def judge_log(value, ref_log, tol: float, what: str) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise Mismatch(f"{what}: non-finite log value {value!r}")
    err = float(abs(mpmath.mpf(value) - ref_log))
    if err > tol:
        raise Mismatch(f"{what}: log {value!r} vs reference {mpmath.nstr(ref_log, 17)}")
    return err


def judge_exact(text, exact, approx, what: str, integer: bool) -> None:
    """An exact output: equal to `exact` when known, else to `approx` to 30 digits."""
    if integer and "/" in str(text):
        raise Mismatch(f"{what}: exact count {text!r} is not an integer")
    value = Fraction(str(text))
    if exact is not None:
        if value != exact:
            raise Mismatch(f"{what}: {text!r} != exact reference")
        return
    with mpmath.workdps(DPS):
        if abs(mp_of(value) - approx) > EXACT_TOL * abs(approx):
            raise Mismatch(f"{what}: {text!r} vs reference {mpmath.nstr(approx, 20)}")


def expected(ref: Reference, quantity: str, q: int | None):
    """(mp value, exact value or None, mp log value) of one quantity."""
    g = ref.g
    if quantity == "resistance":
        return ref.resistance(q), ref.exact_resistance(q), None
    if quantity == "hitting":
        exact = ref.exact_resistance(q)
        return ref.hitting(q), None if exact is None else g.volume / 2 * exact, None
    if quantity == "trees":
        with mpmath.workdps(DPS):
            return mpmath.exp(ref.log_trees), ref.trees_exact, ref.log_trees
    if quantity == "forests":
        exact = ref.exact_resistance(q)
        tau = ref.trees_exact
        f_exact = tau * exact if exact is not None and tau is not None else None
        return ref.forests(q), f_exact, ref.log_forests(q)
    if quantity == "kirchhoff":
        return ref.kirchhoff, None, None
    raise ValueError(quantity)


def judge_record(rec: dict, ref: Reference, quantity: str, q: int | None) -> list[float]:
    """One compute record against the reference, by its representation."""
    what = f"{quantity} n={ref.g.n} q={q} {rec['method']}"
    value, exact, log_value = expected(ref, quantity, q)
    rep = rec["representation"]
    if rep == "rational":
        judge_exact(rec["value"], exact, value, what,
                    integer=quantity in ("trees", "forests") and ref.g.is_indicator)
        return []
    if rep == "log":
        errs = [judge_log(rec["value"], log_value, TOL[quantity], what)]
        claimed = rec["metadata"].get("integer")
        if claimed is not None:
            judge_exact(claimed, exact, value, what + " integer", integer=True)
        return errs
    return [judge_float(rec["value"], value, TOL[quantity], what)]


def judge_compute(out, ref: Reference, quantity: str, pairs: list[tuple[int, int]]) -> list[float]:
    """A `circkit compute` call: one record per requested pair, or one in all."""
    recs = records(out)
    expect = len(pairs) if pairs else 1
    if len(recs) != expect:
        raise Mismatch(f"{len(recs)} records, expected {expect}")
    errs: list[float] = []
    for i, rec in enumerate(recs):
        q = None
        if pairs:
            u, v = pairs[i]
            meta = rec["metadata"]
            if (meta.get("u"), meta.get("v")) != (u, v):
                raise Mismatch(f"record {i} is for pair {meta.get('u')},{meta.get('v')}, not {u},{v}")
            q = (v - u) % ref.g.n
        errs += judge_record(rec, ref, quantity, q)
    return errs


def judge_monte_carlo(out, ref: Reference, q: int) -> None:
    (rec,) = records(out)
    meta = rec["metadata"]
    if meta["truncated"]:
        raise Mismatch(f"{meta['truncated']} truncated walks")
    check_mc(rec["value"], meta["stderr"], ref.hitting(q))


def judge_profile(g: Graph, profile: dict[int, float], refs: References) -> None:
    """A full resistance profile: Foster's theorem, and the dense pseudo-inverse
    at moderate n."""
    check_foster(g, profile)
    if g.n <= DENSE_MAX_N:
        dense = refs.dense_profile(g)
        for q, value in profile.items():
            if not math.isclose(value, dense[q], rel_tol=1e-8):
                raise Mismatch(f"R(0,{q}) = {value!r} vs dense pseudo-inverse {dense[q]!r}")


def judge_forest_profile(out, ref: Reference) -> None:
    """Exact forest counts at every residue: each F(q) against tau * R(q),
    and Foster in forest form, exactly."""
    g = ref.g
    recs = records(out)
    if len(recs) != g.n // 2:
        raise Mismatch(f"{len(recs)} forest records for n={g.n}")
    forests = {}
    for rec in recs:
        q = rec["metadata"]["q"]
        judge_record(rec, ref, "forests", q)
        forests[q] = int(rec["value"])
    check_forest_identity(g, forests, ref.trees_exact)


def judge_eigenvalues(out, ref: Reference) -> list[float]:
    g = ref.g
    recs = records(out)
    if [r["metadata"]["q"] for r in recs] != list(range(g.n)):
        raise Mismatch("eigenvalue records are not one per index j")
    values = [r["value"] for r in recs]
    lams = ref.eigenvalues()
    top = float(max(lams))
    errs = []
    for j, (v, lam) in enumerate(zip(values, lams)):
        if j == 0:
            if abs(v) > 1e-12 * top:
                raise Mismatch(f"lambda_0 = {v!r}")
            continue
        errs.append(judge_float(v, lam, TOL["eigenvalues"], f"lambda_{j} n={g.n}"))
    if g.n <= DENSE_MAX_N:
        dense = dense_eigenvalues(g)
        if not np.allclose(np.sort(values), dense, rtol=0, atol=1e-9 * top):
            raise Mismatch(f"spectrum of n={g.n} differs from the dense eigenvalue solver")
    return errs


VERIFY_METHODS = {"oracle", "spectral", "closed"}


def judge_verify(out, refs: References) -> list[float]:
    """A `circkit verify` report: every method's value against the reference,
    every case passing, and the case list complete."""
    if isinstance(out, Exception):
        raise Mismatch(f"raised {type(out).__name__}: {out}")
    if out.code != 0:
        raise Mismatch(f"verify exit {out.code}: {out.err.strip()[-200:]}")
    report = json.loads(out.out)
    cases = report["cases"]
    errs: list[float] = []
    by_spec: dict[tuple, int] = {}
    for case in cases:
        g = Graph.deleted(case["spec"]["n"], case["spec"]["deleted"])
        by_spec[g.key] = by_spec.get(g.key, 0) + 1
        ref = refs(g)
        quantity = case["quantity"]
        q = case["pair"][1] - case["pair"][0] if case["pair"] else None
        value = expected(ref, quantity, q)[0]
        if not case["pass"]:
            raise Mismatch(f"verify reports a failing {quantity} case on n={g.n}")
        if not set(case["values"]) <= VERIFY_METHODS or "oracle" not in case["values"]:
            raise Mismatch(f"unexpected methods {sorted(case['values'])}")
        for method, v in case["values"].items():
            errs.append(judge_float(v, value, TOL[quantity], f"verify {quantity} n={g.n} q={q} {method}"))
    for key, count in by_spec.items():
        n = key[0]
        if count != 2 + 3 * (n // 2):
            raise Mismatch(f"verify covered {count} cases on n={n}")
    if report["summary"]["failed"]:
        raise Mismatch("verify summary reports failures")
    return errs


def judge_sweep(out, quantity: str, q: int) -> list[float]:
    """Sweep rows against mpmath values; tree-ratio rows must also approach
    e^-2, with |ratio - e^-2| below 1/n and shrinking as n grows."""
    recs = records(out)
    if not recs:
        raise Mismatch("empty sweep")
    errs = []
    last_dev = math.inf
    with mpmath.workdps(DPS):
        for rec in recs:
            n = rec["n"]
            ref = Reference(Graph.deleted(n, {1}))
            if quantity == "tree-ratio":
                target = mpmath.exp(ref.log_trees - (n - 2) * mpmath.log(n))
                limit = mpmath.exp(-2)
            elif quantity == "resistance-scaled":
                target = n * closed_resistance(n, q % n) / 2
                limit = 1
            else:
                target = ref.kirchhoff / n
                limit = 1
            if rec["limit"] != float(limit):
                raise Mismatch(f"sweep limit {rec['limit']!r} at n={n}")
            errs.append(judge_float(rec["value"], target, 1e-9, f"sweep {quantity} n={n}"))
            if quantity == "tree-ratio":
                dev = abs(rec["value"] - float(limit))
                if not dev < min(last_dev, 1.0 / n):
                    raise Mismatch(f"tree ratio not converging to e^-2 at n={n}")
                last_dev = dev
    return errs
