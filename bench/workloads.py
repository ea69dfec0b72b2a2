"""The three workloads: the operations of one pass, built from the seed.

An operation is one timed call into the CLI (in process, through click) or
into the library.  Its check runs after the pass, outside the timed region,
against the references in reference.py.  crosscheck and profile repeat the
same operations every pass; single-queries draws fresh specs for every pass
so that no spec repeats within a run.
"""

from __future__ import annotations

import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import click

import circkit
from circkit import cli

from checks import (
    CliOut, References, judge_compute, judge_eigenvalues, judge_float, judge_forest_profile,
    judge_log, judge_monte_carlo, judge_profile, judge_sweep, judge_verify, records, TOL,
)
from reference import FourierSum, Graph, Mismatch, root_of_unity_closed

QUANTITIES = ("resistance", "hitting", "trees", "forests", "kirchhoff")
PER_PAIR = ("resistance", "hitting", "forests")


class _Capture:
    """A write-only text stream for one CLI call's stdout or stderr.

    It keeps the written strings as they are; a reused StringIO copies them
    into a buffer of four bytes per character, which set the peak memory of
    a run by how that buffer happened to be reallocated.  It has no weakref
    slot, so click cannot cache a wrapper for it: that cache keeps every
    stream it has seen alive."""

    __slots__ = ("chunks",)
    encoding = "utf-8"

    def __init__(self) -> None:
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        if not isinstance(text, str):  # click probes for a binary stream
            raise TypeError("text stream")
        if text:
            self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def isatty(self) -> bool:
        return False

    def getvalue(self) -> str:
        return "".join(self.chunks)


def run_cli(args: list[str]) -> CliOut:
    """`circkit <args>` in this process; stdout and stderr are captured."""
    out, err = _Capture(), _Capture()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="circkit", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
    return CliOut(code, out.getvalue(), err.getvalue())


@dataclass(frozen=True)
class Fault:
    """A known program fault: the operation fails, and `shows` recognises how."""

    name: str
    shows: Callable[[Any], bool]


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[float]]  # relative errors of float outputs; raises Mismatch
    is_cli: bool = True
    fault: Fault | None = None


@dataclass
class Pass:
    ops: list[Op]
    # run after every op of the pass has been checked
    checks: list[Callable[[], None]] = field(default_factory=list)


def shuffled(ops: list[Op], seed: str) -> list[Op]:
    """The ops in a seeded order that changes every pass: operations of one
    kind are spread over the pass, so a slow spell of the machine does not
    land on all of them at once."""
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


def cli_op(label: str, args: list, check: Callable[[Any], list[float]], **kw) -> Op:
    argv = [str(a) for a in args]
    return Op(label, lambda: run_cli(argv), check, **kw)


def spec_args(g: Graph, deleted: bool) -> list[str]:
    if deleted:
        dels = g.deleted_classes
        return ["--n", g.n] + (["--delete", ",".join(map(str, dels))] if dels else [])
    return ["--n", g.n, "--weights", ",".join(f"{k}={w}" for k, w in g.w.items() if w)]


def library_spec(g: Graph, deleted: bool) -> circkit.CirculantSpec:
    if deleted:
        return circkit.CirculantSpec.from_deleted(g.n, g.deleted_classes)
    return circkit.CirculantSpec.weighted(g.n, {k: w for k, w in g.w.items() if w})


# --- crosscheck --------------------------------------------------------------

VERIFY_N = range(5, 32)
ROU_N = range(5, 32, 2)
WALK_N = (25, 27, 29, 31)
WALKS = 100_000


def rho_of(n: int) -> float:
    return (n - 2 + math.sqrt(n * (n - 4))) / 2


class Crosscheck:
    """circkit verify over n = 5..31 with class 1 deleted and odd n with class 2
    deleted, the root-of-unity sums over odd n = 5..31 and m = 0..2n, and
    seeded Monte Carlo hitting times on G_{n,1}, n = 25..31."""

    def __init__(self, seed: int, refs: References):
        self.seed = seed
        self.rou_closed: dict[tuple[int, int], object] = {}
        rng = random.Random(f"crosscheck:{seed}")
        ops = []
        for n in VERIFY_N:
            ops.append(cli_op(f"verify n={n} delete=1", ["verify", "--n", n, "--delete", 1],
                              lambda out: judge_verify(out, refs)))
        for n in VERIFY_N[::2]:
            ops.append(cli_op(f"verify n={n} r=2", ["verify", "--n", n, "--r", 2],
                              lambda out: judge_verify(out, refs)))
        for n in ROU_N:
            rho = rho_of(n)
            for m in range(2 * n + 1):
                ops.append(Op(f"root_of_unity_sum n={n} m={m}",
                              lambda n=n, m=m, rho=rho: circkit.root_of_unity_sum(n, m, rho),
                              lambda out, n=n, m=m, rho=rho: self.judge_rou(out, n, m, rho),
                              is_cli=False))
        for n in WALK_N:
            q = rng.randrange(2, n - 1)
            walk_seed = rng.randrange(2 ** 31)
            ref = refs(Graph.deleted(n, {1}))
            ops.append(cli_op(
                f"monte-carlo n={n} q={q}",
                ["compute", "--n", n, "--delete", 1, "--quantity", "hitting", "--method",
                 "monte-carlo", "--q", q, "--seed", walk_seed, "--walks", WALKS],
                lambda out, ref=ref, q=q: judge_monte_carlo(out, ref, q) or []))
        self.ops = ops

    def judge_rou(self, out, n: int, m: int, rho: float) -> list[float]:
        if not isinstance(out, complex):
            raise Mismatch(f"root_of_unity_sum n={n} m={m} returned {out!r}")
        if (n, m) not in self.rou_closed:
            self.rou_closed[n, m] = root_of_unity_closed(n, m, rho)
        closed = self.rou_closed[n, m]
        if abs(out.imag) > 1e-9 * max(1.0, abs(float(closed))):
            raise Mismatch(f"root_of_unity_sum n={n} m={m} has imaginary part {out.imag!r}")
        return [judge_float(out.real, closed, 1e-9, f"root_of_unity_sum n={n} m={m}")]

    def build(self, index: int) -> Pass:
        return Pass(shuffled(self.ops, f"crosscheck:{self.seed}:{index}"))


# --- profile -----------------------------------------------------------------

# the dense specs cost more per call than the cycle, so the cycle's
# resistance calls, its hitting-time calls and the dense calls form three
# separate latency groups, and the median lies inside one of them
PROFILE_ODD_N = 251
PROFILE_EVEN_N = 250
PROFILE_CYCLE_N = 1201


class Profile:
    """Every residue of a few large specs: K_251 minus {1}, n = 250 minus three
    classes drawn from the seed (no closed form), and the cycle on 1201
    vertices.  Per spec: one `compute` over all q, resistance_spectral and
    hitting_time_spectral on the same spec object for every q, a tree count
    and a Kirchhoff index."""

    def __init__(self, seed: int, refs: References):
        self.seed = seed
        rng = random.Random(f"profile:{seed}")
        even_deleted = rng.sample(range(1, PROFILE_EVEN_N // 2 + 1), 3)
        graphs = [
            (Graph.deleted(PROFILE_ODD_N, {1}), True),
            (Graph.deleted(PROFILE_EVEN_N, even_deleted), True),
            (Graph(PROFILE_CYCLE_N, {1: 1}), False),
        ]
        self.ops: list[Op] = []
        self.checks: list[Callable[[], None]] = []
        for g, deleted in graphs:
            self._add(g, deleted, refs)

    def _add(self, g: Graph, deleted: bool, refs: References) -> None:
        ref = refs(g)
        spec = library_spec(g, deleted)
        half = g.n // 2
        qs = range(1, half + 1)
        lib_r: dict[int, float] = {}
        lib_h: dict[int, float] = {}

        def judge_all(out):
            profile = {r["metadata"]["q"]: r["value"] for r in records(out)}
            if list(profile) != list(range(1, half + 1)):
                raise Mismatch(f"compute over all q on n={g.n} returned the wrong residues")
            judge_profile(g, profile, refs)
            return judge_compute(out, ref, "resistance", [(0, q) for q in range(1, half + 1)])

        def judge_value(out, kind: str, q: int, store: dict):
            if not isinstance(out, float):
                raise Mismatch(f"{kind}_spectral n={g.n} q={q} returned {out!r}")
            store[q] = out
            value = ref.resistance(q) if kind == "resistance" else ref.hitting(q)
            return [judge_float(out, value, TOL[kind], f"{kind}_spectral n={g.n} q={q}")]

        def judge_trees(out):
            if isinstance(out, Exception):
                raise Mismatch(f"tree_count_spectral raised {out!r}")
            return [judge_log(out.log_value, ref.log_trees, TOL["trees"], f"trees n={g.n}")]

        def judge_kirchhoff(out):
            if not isinstance(out, float):
                raise Mismatch(f"kirchhoff_spectral n={g.n} returned {out!r}")
            return [judge_float(out, ref.kirchhoff, TOL["kirchhoff"], f"kirchhoff n={g.n}")]

        def judge_library_profile():
            try:
                judge_profile(g, lib_r, refs)
                half_volume = float(g.volume) / 2
                for q in qs:
                    if not math.isclose(lib_h[q], half_volume * lib_r[q], rel_tol=1e-12):
                        raise Mismatch(f"H != vol/2 * R at n={g.n}, q={q}")
            finally:  # a pass's values must not outlive it (see run.py)
                lib_r.clear()
                lib_h.clear()

        self.ops.append(cli_op(f"compute all q n={g.n}",
                               ["compute", *spec_args(g, deleted), "--quantity", "resistance",
                                "--method", "spectral"], judge_all))
        for q in qs:
            self.ops.append(Op(f"resistance_spectral n={g.n} q={q}",
                               lambda q=q: circkit.resistance_spectral(spec, 0, q),
                               lambda out, q=q: judge_value(out, "resistance", q, lib_r),
                               is_cli=False))
            self.ops.append(Op(f"hitting_time_spectral n={g.n} q={q}",
                               lambda q=q: circkit.hitting_time_spectral(spec, 0, q),
                               lambda out, q=q: judge_value(out, "hitting", q, lib_h),
                               is_cli=False))
        self.ops.append(Op(f"tree_count_spectral n={g.n}", lambda: circkit.tree_count_spectral(spec),
                           judge_trees, is_cli=False))
        self.ops.append(Op(f"kirchhoff_spectral n={g.n}", lambda: circkit.kirchhoff_spectral(spec),
                           judge_kirchhoff, is_cli=False))
        self.checks.append(judge_library_profile)

    def build(self, index: int) -> Pass:
        return Pass(shuffled(self.ops, f"profile:{self.seed}:{index}"), self.checks)


# --- single-queries ----------------------------------------------------------

def _fails_with(code: int, text: str) -> Callable[[Any], bool]:
    return lambda out: isinstance(out, CliOut) and out.code == code and text in out.err


def _value_is(value: float) -> Callable[[Any], bool]:
    def shows(out):
        if not isinstance(out, CliOut) or out.code != 0:
            return False
        recs = records(out)
        return len(recs) == 1 and recs[0]["value"] == value
    return shows


def _claims_integer_other_than(true_value: int) -> Callable[[Any], bool]:
    def shows(out):
        if not isinstance(out, CliOut) or out.code != 0:
            return False
        recs = records(out)
        claimed = recs[0]["metadata"].get("integer") if len(recs) == 1 else None
        return claimed is not None and claimed != true_value
    return shows


FALSE_DISCONNECTION = "false disconnection: spectral calls lambda_min <= 1e-9*n zero"
FOREST_OVERFLOW = "spectral forest overflow: forest_count_spectral returns inf once log F > 709"
EXACT_DIGIT_LIMIT = "exact output over 4300 digits: int-to-str conversion limit, exit 2"
WRONG_INTEGER = ("spectral tree count claims a wrong exact integer: the long-double product "
                 "of double eigenvalues is off by units near 2^53")

# (label, graph, deleted-spec?, quantity, method, pair, exact, fault)
KNOWN_FAULTS = [
    ("cycle n=4001 resistance spectral", Graph(4001, {1: 1}), False, "resistance", "spectral",
     (0, 1000), False, Fault(FALSE_DISCONNECTION, _fails_with(3, "disconnected"))),
    ("n=7 weight 1e-12 trees spectral", Graph(7, {1: Fraction(1, 10 ** 12)}), False, "trees",
     "spectral", None, False, Fault(FALSE_DISCONNECTION, _value_is(-math.inf))),
    ("G_151,1 forests spectral", Graph.deleted(151, {1}), True, "forests", "spectral", (0, 3),
     False, Fault(FOREST_OVERFLOW, _value_is(math.inf))),
    ("G_3001,1 trees closed exact", Graph.deleted(3001, {1}), True, "trees", "closed", None,
     True, Fault(EXACT_DIGIT_LIMIT, _fails_with(2, "integer string conversion"))),
    ("n=18 delete 2,4,6,7 trees spectral", Graph.deleted(18, {2, 4, 6, 7}), True, "trees",
     "spectral", None, False, Fault(WRONG_INTEGER, _claims_integer_other_than(1616935495148127))),
]

# per pass: closed float, closed exact, exact forest profiles, spectral, oracle, eig, sweep
N_CLOSED, N_EXACT, N_FOREST_PROFILES, N_SPECTRAL, N_ORACLE, N_EIG, N_SWEEP = 60, 30, 3, 40, 20, 4, 2
CLOSED_MAX_N = 3001
# largest n whose exact output stays under the 4300-digit int-to-str limit
EXACT_MAX_N = {"trees": 1201, "forests": 1201, "resistance": 2401, "hitting": 2401, "kirchhoff": 2401}
SPECTRAL_DENSE_MAX_N = 401
SPECTRAL_SPARSE_MAX_N = 2000
SPECTRAL_FOREST_MAX_N = 100
ORACLE_MAX_N = 30
EIG_MIN_N, EIG_MAX_N = 241, 301
# weighted specs whose smallest eigenvalue is at most 1e-9*n are called
# disconnected by the spectral path (the FALSE_DISCONNECTION fault) and are
# redrawn; the margin covers the rounding of the screening spectrum only
THRESHOLD_MARGIN = 1.001
MAX_DRAWS = 10_000
# unweighted tree counts in this range, at n <= 60, are where the spectral
# integer claim goes wrong (the WRONG_INTEGER fault); spectral tree queries
# are not drawn there
INTEGER_CLAIM_BAND = (1e12, 2.0 ** 53)
INTEGER_CLAIM_MAX_N = 60


def spectrum(g: Graph) -> list[float]:
    """lambda_1..lambda_{n-1} in double precision, to screen draws."""
    return FourierSum(g, precise=False).eigenvalues[1:]


def in_claim_band(g: Graph) -> bool:
    if not g.is_indicator or g.n > INTEGER_CLAIM_MAX_N:
        return False
    tau = math.exp(math.fsum(map(math.log, spectrum(g))) - math.log(g.n))
    return INTEGER_CLAIM_BAND[0] <= tau <= INTEGER_CLAIM_BAND[1]


class SingleQueries:
    """A seeded stream of `circkit compute` calls on specs that never repeat,
    plus a few eig and sweep calls and the fixed known-fault operations."""

    def __init__(self, seed: int, refs: References):
        self.seed = seed
        self.refs = refs  # replaced every pass: no spec comes back, so neither do its references
        self.seen: set[int] = set()  # hashes of the graph keys drawn so far

    # spec draws --------------------------------------------------------------
    def _log_uniform(self, rng, lo: int, hi: int, parity: int | None = None) -> int:
        while True:
            n = int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))
            if parity is not None and n % 2 != parity:
                n += 1
            if lo <= n <= hi:
                return n

    def _fresh(self, draw) -> tuple[Graph, bool]:
        for _ in range(MAX_DRAWS):
            g, deleted = draw()
            key = hash(g.key)
            if key not in self.seen and g.connected:
                self.seen.add(key)
                return g, deleted
        raise RuntimeError(f"no unseen spec in {MAX_DRAWS} draws")

    def _single_class(self, rng, lo: int, hi: int, parity: int | None = 1):
        def draw():
            n = self._log_uniform(rng, lo, hi, parity)
            r = rng.choice([k for k in range(1, n // 2 + 1) if math.gcd(k, n) == 1])
            return Graph.deleted(n, {r}), True
        return self._fresh(draw)

    def _multi_class(self, rng, lo: int, hi: int):
        def draw():
            n = rng.randint(lo, hi)
            count = min(rng.randint(2, 4), n // 2 - 1)
            return Graph.deleted(n, rng.sample(range(1, n // 2 + 1), count)), True
        return self._fresh(draw)

    def _weighted(self, rng, lo: int, hi: int):
        def draw():
            while True:
                n = self._log_uniform(rng, lo, hi)
                classes = rng.sample(range(1, n // 2 + 1), min(rng.randint(1, 3), n // 2))
                g = Graph(n, {k: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for k in classes})
                if g.connected and min(spectrum(g)) > THRESHOLD_MARGIN * 1e-9 * n:
                    return g, False
        return self._fresh(draw)

    def _complete(self, rng, lo: int, hi: int):
        def draw():
            n, w = rng.randint(lo, hi), Fraction(rng.randint(1, 9), rng.randint(1, 9))
            if w == 1:
                return Graph.deleted(n, ()), True
            return Graph(n, {k: w for k in range(1, n // 2 + 1)}), False
        return self._fresh(draw)

    def _pairs(self, rng, g: Graph, quantity: str) -> tuple[list, list[tuple[int, int]]]:
        if quantity not in PER_PAIR:
            return [], []
        if rng.random() < 0.5:
            q = rng.randrange(1, g.n)
            return ["--q", q], [(0, q)]
        u, v = rng.sample(range(g.n), 2)
        return ["--u", u, "--v", v], [(u, v)]

    # operations --------------------------------------------------------------
    def _compute(self, rng, g: Graph, deleted: bool, quantity: str, method: str,
                 exact: bool = False) -> Op:
        pair_args, pairs = self._pairs(rng, g, quantity)
        ref = self.refs(g)
        args = ["compute", *spec_args(g, deleted), "--quantity", quantity, "--method", method,
                *pair_args, *(["--exact"] if exact else [])]
        label = f"{method}{' exact' if exact else ''} {quantity} n={g.n} {' '.join(map(str, args[3:5]))}"
        return cli_op(label, args, lambda out: judge_compute(out, ref, quantity, pairs))

    def build(self, index: int) -> Pass:
        rng = random.Random(f"single-queries:{self.seed}:{index}")
        self.refs = References()
        ops: list[Op] = []
        for i in range(N_CLOSED):
            quantity = QUANTITIES[i % 5]
            g, _ = self._single_class(rng, 5, CLOSED_MAX_N)
            ops.append(self._compute(rng, g, True, quantity, "closed"))
        for i in range(N_EXACT):
            quantity = QUANTITIES[i % 5]
            g, _ = self._single_class(rng, 5, EXACT_MAX_N[quantity])
            ops.append(self._compute(rng, g, True, quantity, "closed", exact=True))
        for _ in range(N_FOREST_PROFILES):
            g, _ = self._single_class(rng, 7, 151)
            ref = self.refs(g)
            ops.append(cli_op(f"closed exact forests all q n={g.n}",
                              ["compute", *spec_args(g, True), "--quantity", "forests",
                               "--method", "closed", "--exact"],
                              lambda out, ref=ref: judge_forest_profile(out, ref) or []))
        spectral_kinds = (
            lambda hi: self._single_class(rng, 5, min(hi, SPECTRAL_DENSE_MAX_N)),
            lambda hi: self._multi_class(rng, 6, min(hi, SPECTRAL_DENSE_MAX_N - 1)),
            lambda hi: self._weighted(rng, 20, min(hi, SPECTRAL_SPARSE_MAX_N)),
            lambda hi: self._complete(rng, 3, min(hi, SPECTRAL_DENSE_MAX_N - 1)),
        )
        for i in range(N_SPECTRAL):
            quantity = QUANTITIES[(i // 4) % 5]
            hi = SPECTRAL_FOREST_MAX_N if quantity == "forests" else SPECTRAL_SPARSE_MAX_N
            g, deleted = spectral_kinds[i % 4](hi)
            while quantity == "trees" and in_claim_band(g):
                g, deleted = spectral_kinds[i % 4](hi)
            ops.append(self._compute(rng, g, deleted, quantity, "spectral"))
        for i in range(N_ORACLE):
            quantity = QUANTITIES[i % 5]
            g, deleted = (self._multi_class(rng, 5, ORACLE_MAX_N) if (i // 5) % 2 == 0
                          else self._weighted(rng, 5, ORACLE_MAX_N))
            ops.append(self._compute(rng, g, deleted, quantity, "oracle"))
        for i in range(N_EIG):
            # the spectrum dump dominates peak memory, so its sizes stay in a
            # narrow range that every run reaches
            g, deleted = (self._multi_class(rng, EIG_MIN_N, EIG_MAX_N) if i % 2 == 0
                          else self._weighted(rng, EIG_MIN_N, EIG_MAX_N))
            ref = self.refs(g)
            ops.append(cli_op(f"eig n={g.n}", ["eig", *spec_args(g, deleted)],
                              lambda out, ref=ref: judge_eigenvalues(out, ref)))
        for i in range(N_SWEEP):
            n_min, n_max = 2 * rng.randint(2, 10) + 1, 2 * rng.randint(50, 100) + 1
            quantity = "tree-ratio" if i % 2 == 0 else rng.choice(["resistance-scaled", "kirchhoff-scaled"])
            q = rng.randint(1, 4)
            ops.append(cli_op(f"sweep {quantity} n={n_min}..{n_max}",
                              ["sweep", "--quantity", quantity, "--n-min", n_min, "--n-max", n_max,
                               "--q", q],
                              lambda out, quantity=quantity, q=q: judge_sweep(out, quantity, q)))
        for label, g, deleted, quantity, method, pair, exact, fault in KNOWN_FAULTS:
            ref = self.refs(g)
            pair_args = ["--u", pair[0], "--v", pair[1]] if pair else []
            args = ["compute", *spec_args(g, deleted), "--quantity", quantity, "--method", method,
                    *pair_args, *(["--exact"] if exact else [])]
            ops.append(cli_op(label, args,
                              lambda out, ref=ref, quantity=quantity, pair=pair:
                              judge_compute(out, ref, quantity, [pair] if pair else []),
                              fault=fault))
        rng.shuffle(ops)
        return Pass(ops)


WORKLOADS = {"crosscheck": Crosscheck, "profile": Profile, "single-queries": SingleQueries}
