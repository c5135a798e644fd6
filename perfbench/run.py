"""Run one workload of the lambdalab benchmark.

    python3 perfbench/run.py --workload chain_mn --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's own ``src``; without it the benchmark exits with code 2 and
prints no result.

--trace 0 measures the end-to-end metrics; --trace 1 runs every job untraced
and then traced, and reports the per-layer metrics.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics, where metrics holds the names that
BENCHMARK.json lists for the mode.

Each run writes, under .perfbench_out/ in the checkout:
  records/<workload>-seed<n>-trace<t>.json  machine, code, every metric,
                                            every job with its SHA-256
  digests/<workload>-seed<n>.json           output SHA-256 and draw counts
                                            per job input; later runs with
                                            the same seed must match them
  spans/<workload>-seed<n>.jsonl            traced runs: round 0's spans
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("chain_mn", "chain_dup", "series", "mc")
SETUP_PROBES = 9  # odd, so the median is one probe's time
ITEM_NAMES = {
    "chain_mn": "states_per_s",
    "chain_dup": "states_per_s",
    "series": "trace_steps_per_s",
    "mc": "mc_steps_per_s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up and exit: what the setup_s probes time in a fresh process
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def import_program() -> None:
    """Import lambdalab from this checkout's src, or exit with code 2."""
    if not (SRC / "lambdalab" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'lambdalab'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import lambdalab

    if not Path(lambdalab.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported lambdalab from {lambdalab.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def setup_probe(args) -> float:
    """Wall time of a fresh process that starts, imports the program, builds
    the round and runs the warm-up job."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    # no timeout: with one, wait() polls in steps of up to 50 ms, which
    # would quantise the time measured
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def tree_sha256(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit(root: Path):
    """HEAD's commit, read from .git without running git; None outside a
    repository."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance() -> dict:
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        },
        "code": {
            "git_commit": git_commit(ROOT),
            "src_sha256": tree_sha256(SRC / "lambdalab"),
            "perfbench_sha256": tree_sha256(ROOT / "perfbench"),
        },
    }


def check_digests(path: Path, outcomes) -> None:
    """Fail every outcome whose output SHA-256 or draw counts differ from
    an earlier run with the same workload and seed; then add this run's."""
    stored = json.loads(path.read_text()) if path.is_file() else {}
    for out in outcomes:
        if out.digest is None:
            continue
        mine = {"sha256": out.digest}
        mine.update({k: v for k, v in out.counts.items() if k.startswith("montecarlo.")})
        known = stored.setdefault(out.label, {})
        for key, value in mine.items():
            if known.setdefault(key, value) != value:
                out.fail(f"{key} differs from an earlier run with this seed")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
    os.replace(tmp, path)


def write_spans(path: Path, tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, job, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "job": job,
                                 "name": name, "start": start, "end": end}) + "\n")


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    import_program()
    import harness
    import jobs
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    round_jobs = jobs.build(args.workload, args.seed)
    warmup = harness.attempt(jobs.WARMUP[args.workload](), -1, -1)
    if args.setup_probe:
        return 0
    if warmup.error is not None:
        print(f"warm-up failed: {warmup.error}", file=sys.stderr)

    name = f"{args.workload}-seed{args.seed}"
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds} s, trace {args.trace}, "
          f"{len(round_jobs)} jobs per round; set-up in this process "
          f"{time.perf_counter() - started:.3f} s")
    if args.trace:
        tracer = tracing.Tracer()
        outcomes, rounds = harness.run_traced(round_jobs, args.seconds, tracer)
    else:
        kernel = harness.KERNELS.get(args.workload, harness.calibration)
        outcomes, setups = harness.run_plain(
            round_jobs, args.seconds, kernel, lambda: setup_probe(args), SETUP_PROBES)
    check_digests(OUT / "digests" / f"{name}.json", outcomes)
    failures = [o for o in outcomes if o.error is not None]
    if warmup.error is not None:
        failures.append(warmup)
    attempted = len(outcomes) + (warmup.error is not None)

    if args.trace:
        traced_s = sum(o.seconds for o in outcomes)
        plain_s = sum(o.counts["untraced_seconds"] for o in outcomes)
        metrics = tracing.layer_metrics(tracer, rounds, traced_s, plain_s)
        metrics["harness.rounds"] = (rounds, "count")
        listed = [m["name"] for m in spec["per_layer"]]
        write_spans(OUT / "spans" / f"{name}.jsonl", tracer)
        if tracer.missing:
            print(f"  hooks not installed (name not found): {sorted(tracer.missing)}")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = harness.end_to_end(outcomes, setups, peak_rss_mb)
        listed = [m["name"] for m in spec["end_to_end"]]
        metrics[ITEM_NAMES[args.workload]] = metrics["items_per_s"]
    metrics["fail_ratio"] = (len(failures) / attempted, "ratio")

    for key in sorted(metrics):
        value, unit = metrics[key]
        print(f"  {key:<40} {value:>16.6g} {unit}")
    for out in failures[:5]:
        print(f"  FAILED {out.label}: {out.error.strip().splitlines()[-1]}")

    record = dict(provenance(), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  jobs=[vars(o) for o in outcomes])
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    (OUT / "records" / f"{name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
