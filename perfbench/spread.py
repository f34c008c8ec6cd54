"""Run the benchmark once per seed and report how steady each metric is.

    python3 perfbench/spread.py --workload sweep-S --seeds 1-10
    python3 perfbench/spread.py --workload infer-rib-M --seeds 1,2,3 --json out.json

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound from
``BENCHMARK.json``. Runs are sequential and untraced, each one ``run.py``
process measuring for the ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = (int(x) for x in spec.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in spec.split(",") if x]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", help="write the summary to this file")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    samples: dict[str, list[float]] = {}
    failures = 0
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            failures += 1
            print(f"seed {seed}: failed (exit {proc.returncode})", file=sys.stderr)
        for name, metric in result.get("metrics", {}).items():
            samples.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result.get("metrics", {}).items()
        ), file=sys.stderr)

    summary = {name: summarize(values) for name, values in samples.items() if len(values) >= 2}
    for name, stats in summary.items():
        print(f"{name:32s} median {stats['median']:12.5g}  q1 {stats['q1']:12.5g}  "
              f"q3 {stats['q3']:12.5g}  spread {stats['spread']:.4f}  bound {bounds[name]}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seeds": parse_seeds(args.seeds),
             "seconds": seconds, "failures": failures, "metrics": summary},
            indent=1, sort_keys=True))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
