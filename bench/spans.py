"""Per-layer spans recorded around calls into circkit, from outside src/.

`install` replaces each listed function of circkit with a wrapper in every
circkit module namespace that holds it, so calls between modules (cli ->
spectral, report -> oracles) and within a module (hitting_time_spectral ->
resistance_spectral) are both seen.  A span's self time is its duration
minus the time its child spans cover.  Spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# span key -> the functions it covers, as "module:qualname"
SPANS = {
    "graphs.spec": ["graphs:CirculantSpec.from_deleted", "graphs:CirculantSpec.weighted"],
    "spectral.eigenvalues": ["spectral:eigenvalues"],
    "spectral.resistance": ["spectral:resistance_spectral"],
    "spectral.hitting": ["spectral:hitting_time_spectral"],
    "spectral.trees": ["spectral:tree_count_spectral"],
    "spectral.forests": ["spectral:forest_count_spectral"],
    "spectral.kirchhoff": ["spectral:kirchhoff_spectral"],
    "closedform.float": [
        "closedform:rho_constants", "closedform:resistance_closed",
        "closedform:tree_count_closed_log", "closedform:forest_count_closed_log",
        "closedform:hitting_time_closed", "closedform:kirchhoff_closed",
        "closedform:reduce_coprime", "closedform:asymptotic_predictors",
    ],
    "closedform.exact": [
        "closedform:resistance_closed_exact", "closedform:tree_count_closed",
        "closedform:forest_count_closed", "closedform:hitting_time_closed_exact",
        "closedform:kirchhoff_closed_exact",
    ],
    "closedform.rou": ["closedform:root_of_unity_sum", "closedform:root_of_unity_sum_closed"],
    "oracles.solve": ["oracles:resistance_oracle", "oracles:hitting_time_oracle"],
    "oracles.det": ["oracles:tree_count_oracle", "oracles:forest_count_oracle",
                    "oracles:spanning_tree_enumerate"],
    "oracles.inverse": ["oracles:resistance_profile_oracle", "oracles:kirchhoff_oracle"],
    "oracles.laplacian": ["oracles:build_laplacian"],
    "oracles.walk": ["oracles:hitting_time_monte_carlo"],
    "report.verify": ["report:run_verification"],
    "report.sweep": ["report:sweep_rows"],
}
# counted, not timed: a span per field multiplication would cost more than the work
COUNTED = {"quadfield.mul": ["quadfield:QuadElem.__mul__", "quadfield:QuadElem.__rmul__"]}

# per-layer metric -> (unit, how it is derived from the span totals)
METRICS = {
    "graphs.spec_s": ("s", ("self", ["graphs.spec"])),
    "graphs.spec_calls": ("count", ("calls", ["graphs.spec"])),
    "spectral.resistance_s": ("s", ("self", ["spectral.resistance"])),
    "spectral.hitting_s": ("s", ("self", ["spectral.hitting"])),
    "spectral.trees_s": ("s", ("self", ["spectral.trees"])),
    "spectral.kirchhoff_s": ("s", ("self", ["spectral.kirchhoff"])),
    "spectral.forests_s": ("s", ("self", ["spectral.forests"])),
    "spectral.eigenvalues_s": ("s", ("self", ["spectral.eigenvalues"])),
    "spectral.calls": ("count", ("calls", [k for k in SPANS if k.startswith("spectral.")])),
    "closedform.float_s": ("s", ("self", ["closedform.float"])),
    "closedform.exact_s": ("s", ("self", ["closedform.exact"])),
    "closedform.exact_calls": ("count", ("calls", ["closedform.exact"])),
    "closedform.rou_s": ("s", ("self", ["closedform.rou"])),
    "closedform.rou_calls": ("count", ("calls", ["closedform.rou"])),
    "quadfield.mul_calls": ("count", ("calls", ["quadfield.mul"])),
    "oracles.solve_s": ("s", ("self", ["oracles.solve"])),
    "oracles.solve_calls": ("count", ("calls", ["oracles.solve"])),
    "oracles.det_s": ("s", ("self", ["oracles.det"])),
    "oracles.det_calls": ("count", ("calls", ["oracles.det"])),
    "oracles.inverse_s": ("s", ("self", ["oracles.inverse"])),
    "oracles.laplacian_s": ("s", ("self", ["oracles.laplacian"])),
    "oracles.laplacian_builds": ("count", ("calls", ["oracles.laplacian"])),
    "oracles.walk_s": ("s", ("self", ["oracles.walk"])),
    "oracles.walk_steps_per_s": ("1/s", ("rate", ["oracles.walk"])),
    "report.verify_self_s": ("s", ("self", ["report.verify"])),
    "report.sweep_s": ("s", ("self", ["report.sweep"])),
    "cli.self_s": ("s", ("self", ["cli"])),
    "cli.calls": ("count", ("calls", ["cli"])),
    "cli.output_bytes": ("bytes", ("bytes", ["cli"])),
}


class Tracer:
    """Collects spans while `active`; inactive wrappers just call through."""

    def __init__(self) -> None:
        self.active = False
        self.op = 0
        self._stack: list[float] = []  # child time covered, one entry per open span
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.walk_steps = 0.0
        self.output_bytes = 0
        self.spans: list[tuple] = []

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, key: str, start: float) -> None:
        end = time.perf_counter()
        dur = end - start
        child = self._stack.pop()
        self.self_s[key] += dur - child
        self.calls[key] += 1
        if self._stack:
            self._stack[-1] += dur
        self.spans.append((self.op, key, len(self._stack), start, end))

    def span(self, key: str, fn, *args):
        """Run fn(*args) as one span; used for the benchmark's CLI calls."""
        start = self._enter()
        try:
            return fn(*args)
        finally:
            self._exit(key, start)

    def timed(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(key, start)
            if key == "oracles.walk":
                self.walk_steps += result.mean * (result.walks - result.truncated)
            return result
        return wrapper

    def counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, package) -> None:
        """Wrap every function named in SPANS and COUNTED."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for table, make in ((SPANS, self.timed), (COUNTED, self.counted)):
            for key, targets in table.items():
                for target in targets:
                    self._wrap(package, modules, key, target, make)

    def _wrap(self, package, modules, key, target, make) -> None:
        mod_name, qualname = target.split(":")
        module = sys.modules.get(f"{package.__name__}.{mod_name}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            print(f"trace: {target} not found; {key} will read 0", file=sys.stderr)
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(key, raw.__func__))
        else:
            wrapped = make(key, raw)
        if owner_name:
            setattr(owner, attr, wrapped)
            return
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is raw:
                    setattr(m, name, wrapped)

    def metrics(self, passes: int) -> dict[str, dict]:
        """Every per-layer metric, as a total per pass."""
        out = {}
        for name, (unit, (kind, keys)) in METRICS.items():
            if kind == "self":
                value = sum(self.self_s[k] for k in keys) / passes
            elif kind == "calls":
                value = sum(self.calls[k] for k in keys) / passes
            elif kind == "bytes":
                value = self.output_bytes / passes
            else:
                busy = sum(self.self_s[k] for k in keys)
                value = self.walk_steps / busy if busy > 0 else 0.0
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for op, key, depth, start, end in self.spans:
                fh.write(json.dumps({"op": op, "layer": key, "depth": depth,
                                     "start": start, "end": end}) + "\n")
