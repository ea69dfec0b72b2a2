"""Steadiness check: run each workload on several seeds, one fresh process per
run, and print the median and quartiles of every end-to-end metric.

    python3 bench/steady.py --runs 10

Every workload of BENCHMARK.json runs on seeds 1..runs for its run_seconds.
The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4).  It is shown next to the metric's bound
from BENCHMARK.json and marked WIDE when it is not below a third of it.  The
run counts as steady when every run is correct, the share of failed
operations is identical in every run, and no spread is WIDE.  Each run's
result line is appended to bench/out/steady.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CONFIG = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    seeds = range(1, args.runs + 1)
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    log = BENCH / "out" / "steady.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)

    steady = True
    for name in (w["name"] for w in CONFIG["workloads"]):
        results = []
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(CONFIG["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed, **result,
                                     "summary": lines[:-1]}) + "\n")
            results.append(result)
        shares = {(r["failed"], r["attempted"]) for r in results}
        share_set = {f / a for f, a in shares}
        correct = all(r["correct"] for r in results)
        print(f"\n{name}: {len(results)} runs, seeds 1..{args.runs}, "
              f"correct={correct}, failed share {sorted(share_set)}")
        print(f"  {'metric':20s} {'unit':7s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>8s} {'bound':>6s}")
        steady &= correct and len(share_set) == 1
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric)
            ok = bound is None or spread < bound / 3
            steady &= ok
            print(f"  {metric:20s} {results[0]['metrics'][metric]['unit']:7s} {med:11.5g} "
                  f"{q1:11.5g} {q3:11.5g} {spread:8.4f} {bound!s:>6s}{'' if ok else '  WIDE'}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
