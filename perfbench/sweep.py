"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/sweep.py --seeds 10 --seconds 25 [--trace 1]
        [--out perfbench/baseline.json]

Runs ``perfbench/run.py`` once per workload and seed (seeds 1 to
``--seeds``), one run at a time, and reports for every metric the median,
the quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and
the spread, the quartile distance as a share of the median. With ``BENCHMARK.json``
present, spreads above a third of a metric's bound are flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "record": json.loads(lines[-2]),
            "wall_s": time.perf_counter() - start}


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in range(1, args.seeds + 1):
            run = run_once(workload, seed, args.seconds, args.trace)
            result = run["result"]
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed} is not correct: {run['record']['problems']}")
            runs.append(run)
        metrics = {}
        for name, metric in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": metric["unit"], **summarise(values)}
        summary["workloads"][workload] = {
            "seeds": [r["record"]["env"]["seed"] for r in runs],
            "env": {k: v for k, v in runs[0]["record"]["env"].items() if k != "seed"},
            "digests": [r["record"]["digest"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
            "metrics": metrics,
        }
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and m["spread"] is not None and m["spread"] > bound / 3:
                flag = f"  <-- above a third of the bound {bound}"
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:18} {name:38} median {m['median']:.6g} {m['unit']:8} "
                  f"spread {spread}{flag}", flush=True)
        print(f"{workload:18} wall seconds per run: max {max(r['wall_s'] for r in runs):.1f}",
              flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
