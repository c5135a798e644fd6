"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads chain_mn,mc --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --trace 1 --out summary.json

For every workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median.  An end-to-end metric is
marked when its spread is not below a third of its bound in BENCHMARK.json.
setup_s is exempt from the spread rule and only shown.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, check=True, timeout=600,
                          capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in seed_list(args.seeds)]
        rows = {}
        print(f"{workload}: {len(runs)} runs, "
              f"{sum(r['failed'] for r in runs)} failed of {sum(r['attempted'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            flag = ""
            if name in bounds and name != "setup_s" and spread >= bounds[name] / 3:
                flag = f"  <-- not below a third of bound {bounds[name]}"
                steady = False
            print(f"  {name:<32} median {median:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f}{flag}")
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "values": values, "unit": runs[0]["metrics"][name]["unit"]}
        summary[workload] = {"seeds": seed_list(args.seeds), "correct": all(r["correct"] for r in runs),
                             "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
