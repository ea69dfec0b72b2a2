"""circkit benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload crosscheck --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run repeats whole passes over the workload's operations until the passes
have taken --seconds, checks every output against the references in
reference.py after each pass, and prints one JSON object as its last line:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Load is one single-threaded closed loop: each operation starts when the
previous one has returned.  circkit is imported from src/ of this checkout.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, so the figures measure circkit and
# not the thread scheduler
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("crosscheck", "profile", "single-queries")
SETUP_PROBES = 5
LOOP_CAP_S = 120.0  # no pass starts after this much time, checks included
DIGITS_CAP = 16.0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import circkit, build the first pass's inputs, print the clock and exit")
    return p.parse_args(argv)


def import_circkit():
    """circkit from this checkout's src/, never from anywhere else."""
    if not (SRC / "circkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no circkit sources at {SRC}; run from a circkit checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import circkit

    if Path(circkit.__file__).resolve().parent != (SRC / "circkit").resolve():
        raise SystemExit(f"error: imported circkit from {circkit.__file__}, not {SRC}")
    return circkit


def setup_seconds(args) -> float:
    """Median over fresh processes of the time from process start until the
    first pass's inputs exist: interpreter start, import circkit, input
    generation.  The reference self-test is not part of it."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


def quantile(values: list[float], p: int) -> float:
    """The p-th percentile, p in 1..99."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_workload(args) -> dict:
    circkit = import_circkit()
    import reference
    from checks import CliOut, References
    from spans import Tracer
    from workloads import WORKLOADS

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, References()).build(0)
        print(time.monotonic())
        raise SystemExit(0)

    reference.self_test()
    refs = References()
    workload = WORKLOADS[args.workload](args.seed, refs)
    tracer = Tracer()
    if args.trace:
        tracer.install(circkit)

    # doubles in arrays, not float objects: objects that outlive a pass would
    # pin allocator arenas and make peak memory grow with the number of passes
    latencies = array("d")
    pass_sizes: list[int] = []
    worst = 0.0  # largest relative error of a float output
    attempted = failed = 0
    correct = True
    faults_seen: set[str] = set()
    loop_start = time.monotonic()
    measured = 0.0
    while True:
        batch = workload.build(len(pass_sizes))
        gc.collect()
        outputs: list = []
        for op in batch.ops:
            tracer.op += 1
            tracer.active = bool(args.trace)
            start = time.perf_counter()
            try:
                out = tracer.span("cli", op.call) if tracer.active and op.is_cli else op.call()
            except Exception as exc:  # a raising operation is judged like any other output
                out = exc
            latencies.append(time.perf_counter() - start)
            tracer.active = False
            outputs.append(out)
        pass_sizes.append(len(batch.ops))
        measured += sum(latencies[-len(batch.ops):])

        for op, out in zip(batch.ops, outputs):
            attempted += 1
            if isinstance(out, CliOut):
                tracer.output_bytes += len(out.out.encode())
            try:
                worst = max([worst, *op.check(out)])
            except Exception as exc:
                failed += 1
                if op.fault is not None and op.fault.shows(out):
                    faults_seen.add(op.fault.name)
                    continue
                correct = False
                print(f"FAIL {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            if op.fault is not None:
                print(f"note: {op.label} passed; fault no longer shows: {op.fault.name}",
                      file=sys.stderr)
        for check in batch.checks:
            try:
                check()
            except Exception as exc:
                correct = False
                print(f"FAIL pass check: {type(exc).__name__}: {exc}", file=sys.stderr)
        del outputs, batch
        if measured >= args.seconds or time.monotonic() - loop_start > LOOP_CAP_S:
            break

    passes = len(pass_sizes)
    ends = [sum(pass_sizes[:i + 1]) for i in range(passes)]
    pass_walls = [sum(latencies[e - k:e]) for e, k in zip(ends, pass_sizes)]
    print(f"workload={args.workload} seed={args.seed} passes={passes} "
          f"ops_per_pass={attempted // passes} failed={failed} correct={correct}")
    for name in sorted(faults_seen):
        print(f"known fault: {name}")
    if args.trace:
        metrics = tracer.metrics(passes)
        metrics["trace.wall_s"] = {"value": statistics.median(pass_walls), "unit": "s"}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        digits = DIGITS_CAP if worst <= 10 ** -DIGITS_CAP else min(DIGITS_CAP, -math.log10(worst))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": statistics.median(pass_walls), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * quantile(latencies, 90), "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "min_correct_digits": {"value": digits, "unit": "digits"},
            "setup_s": {"value": setup_seconds(args), "unit": "s"},
        }
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
