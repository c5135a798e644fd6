"""Measurement loops and end-to-end figures.

Both loops are closed: one job at a time, in a single thread, the next job
starting when the previous one and its checks are done.  A job's time is
the time of its call into the program only; its checks, hashing and
bookkeeping are not timed.

The machine's speed drifts: on a shared 2-core host the same job took from
33 to 51 ms in 5-second windows a minute apart, while its ratio to a fixed
pure-Python calibration loop run just before it stayed within 3%.  So a
calibration run precedes every job, and each job's time is also scaled to a
reference speed: seconds * CAL_REF_S / t_cal, with t_cal the median time of
the CAL_WINDOW calibration runs centred on the job.  KERNELS names the
calibration kernel of each workload that does not use calibration().  The end-to-end times
and rates are given at the reference speed, and the raw ones are kept next
to them under ``raw.``.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from jobs import Job
from tracing import Tracer

_perf = time.perf_counter

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

CAL_WINDOW = 11


def calibration() -> Fraction:
    """Fixed pure-Python work of the kinds lambdalab does: rationals,
    hashing nested tuples, dict updates and recursion."""
    acc = Fraction(0)
    seen: dict = {}
    for i in range(1, 300):
        acc += Fraction(1, i)
        key = (i % 17, (i % 7, ("x", i % 3)))
        seen[key] = seen.get(key, 0) + 1

    def depth(n: int) -> int:
        return 0 if n == 0 else 1 + depth(n - 1)

    for _ in range(20):
        depth(100)
    return acc


def bigint_calibration() -> int:
    """Big-integer work as pars.evolve_trace does it: numerators carried
    over a common denominator that grows each step, and a gcd per step.

    The series workload is scaled by this one.  On the reference machine
    its speed and that of interpretive code moved in opposite directions:
    in runs where calibration() ran 20% slower, the series jobs ran 15%
    faster."""
    num, den, acc = 1, 1, 0
    for _ in range(1000):
        num = num * 7 + den * 4
        den *= 11
        acc ^= math.gcd(num, den)
    return acc


# Each calibration's median time on the reference machine (2 cores, Python
# 3.11.7); any constant would do, these keep scaled times near raw ones.
CAL_REF_S = {calibration: 0.0015, bigint_calibration: 0.0015}

# The kernel a workload's job times are scaled by: big-integer work for
# series, interpretive work for the rest.
KERNELS = {"series": bigint_calibration}


class Speed:
    """How fast the machine ran, from a series of calibration runs."""

    def __init__(self, kernel: Callable[[], object] = calibration):
        self.kernel = kernel
        self.times: list[float] = []

    def sample(self) -> int:
        """Time one calibration run; returns its index in the series."""
        start = _perf()
        self.kernel()
        self.times.append(_perf() - start)
        return len(self.times) - 1

    def finish(self) -> None:
        """Sample enough after the last job to centre its window."""
        for _ in range(CAL_WINDOW // 2):
            self.sample()

    def scale(self, i: int) -> float:
        """Reference seconds per wall second around calibration run i."""
        half = CAL_WINDOW // 2
        window = self.times[max(0, i - half):i + half + 1]
        return CAL_REF_S[self.kernel] / statistics.median(window)

    def bracket(self, measure: Callable[[], float]) -> tuple[float, float]:
        """(reference seconds, raw seconds) of what measure() returns, scaled
        by three calibration runs just before it and three just after."""
        marks = [self.sample() for _ in range(3)]
        raw = measure()
        marks += [self.sample() for _ in range(3)]
        return raw * CAL_REF_S[self.kernel] / statistics.median(self.times[i] for i in marks), raw


@dataclass
class Outcome:
    """What one attempt of one job gave."""

    index: int  # position in the round
    round: int
    label: str
    seconds: float
    scale: float = 1.0  # reference seconds per wall second when it ran
    digest: Optional[str] = None  # SHA-256 of the output
    items: int = 0
    error: Optional[str] = None
    # output_bytes; traced runs add the draw counts and the untraced time
    counts: dict = field(default_factory=dict)

    def fail(self, why: str) -> None:
        if self.error is None:
            self.error = why


def attempt(job: Job, index: int, rnd: int, call: Optional[Callable] = None) -> Outcome:
    """Run one job (through ``call`` when given) and check what it returned."""
    start = _perf()
    try:
        result = (call or job.call)()
    except Exception:  # a job that raises is a failed job; the run goes on
        return Outcome(index, rnd, job.label, _perf() - start,
                       error=traceback.format_exc(limit=-3))
    seconds = _perf() - start
    out = Outcome(index, rnd, job.label, seconds)
    try:
        encoded = job.encode(result)
        out.digest = hashlib.sha256(encoded).hexdigest()
        out.items, out.error = job.verify(result)
    except Exception:
        out.fail(traceback.format_exc(limit=-3))
        return out
    out.counts["output_bytes"] = len(encoded)
    return out


def _same_as_first(out: Outcome, first: dict) -> None:
    """Fail out when its output differs from the first round's."""
    if out.digest is None:
        return
    earlier = first.setdefault(out.index, out.digest)
    if earlier != out.digest:
        out.fail(f"output differs from round 0 ({out.digest} != {earlier})")


def run_plain(jobs: list[Job], seconds: float, kernel: Callable[[], object],
              probe: Callable[[], float], probes: int
              ) -> tuple[list[Outcome], list[tuple[float, float]]]:
    """Cycle through the round until the time is up (at least one job),
    with a run of the calibration kernel before each job.

    probe() returns a time; it is called ``probes`` times, spread evenly
    over the run between jobs, so that its figures sample the machine's
    states across the whole run.  Probes are scaled by calibration(), as
    starting a process is interpretive work.  Returns the outcomes and, per
    probe, (reference seconds, raw seconds).
    """
    speed = Speed(kernel)
    setup_speed = Speed()
    outcomes: list[Outcome] = []
    probed: list[tuple[float, float]] = []
    first: dict = {}
    start = _perf()
    deadline = start + seconds
    due = [start + (k + 0.5) * seconds / probes for k in range(probes)]
    i = 0
    calibrated = []
    while i == 0 or _perf() < deadline:
        if len(probed) < probes and _perf() >= due[len(probed)]:
            probed.append(setup_speed.bracket(probe))
            continue
        index = i % len(jobs)
        calibrated.append(speed.sample())
        out = attempt(jobs[index], index, i // len(jobs))
        _same_as_first(out, first)
        outcomes.append(out)
        i += 1
    speed.finish()
    for out, k in zip(outcomes, calibrated):
        out.scale = speed.scale(k)
    while len(probed) < probes:
        probed.append(setup_speed.bracket(probe))
    return outcomes, probed


PINNED_COUNTS = ("montecarlo.draws", "montecarlo.next_u64")


def run_traced(jobs: list[Job], seconds: float, tracer: Tracer) -> tuple[list[Outcome], int]:
    """Whole rounds until the time is up (at least one): each job untraced,
    then traced, both checked.  Returns the traced outcomes and the number
    of rounds.  Only round 0's spans are kept, which bounds memory.

    A traced job fails when its output differs from the untraced one, or
    when its output or its random draw counts differ from round 0's.
    """
    outcomes: list[Outcome] = []
    first: dict = {}
    first_counts: dict = {}
    deadline = _perf() + seconds
    rnd = 0
    while rnd == 0 or _perf() < deadline:
        tracer.record_spans = rnd == 0
        for index, job in enumerate(jobs):
            plain = attempt(job, index, rnd)
            before = {name: tracer.counts.get(name, 0) for name in PINNED_COUNTS}
            traced = attempt(job, index, rnd,
                             call=lambda: tracer.run_job(index, job.call))
            traced.counts.update(
                {name: tracer.counts.get(name, 0) - n for name, n in before.items()})
            traced.counts["untraced_seconds"] = plain.seconds
            if job.kind == "cli" and traced.digest is not None:
                tracer.count("cli.output_bytes", traced.counts["output_bytes"])
            if plain.error is not None:
                traced.fail(f"untraced: {plain.error}")
            elif traced.digest != plain.digest:
                traced.fail("traced output differs from untraced output")
            _same_as_first(traced, first)
            pinned = {name: traced.counts[name] for name in PINNED_COUNTS}
            if first_counts.setdefault(index, pinned) != pinned:
                traced.fail(f"draw counts {pinned} differ from round 0's")
            outcomes.append(traced)
        rnd += 1
    return outcomes, rnd


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile of TAIL_LADDER with at
    least ten samples beyond it, by nearest rank; the maximum when there are
    too few samples for any."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            return p, ordered[math.ceil(p / 100 * n) - 1]
    return 100.0, ordered[-1]


def _timings(times: list[float], items: int, prefix: str) -> dict:
    busy = sum(times)
    _, tail_s = tail(times)
    return {
        f"{prefix}jobs_per_s": (len(times) / busy, "1/s"),
        f"{prefix}job_p50_ms": (statistics.median(times) * 1000, "ms"),
        f"{prefix}job_tail_ms": (tail_s * 1000, "ms"),
        f"{prefix}items_per_s": (items / busy, "items/s"),
    }


def end_to_end(outcomes: list[Outcome], setups: list[tuple[float, float]],
               peak_rss_mb: float) -> dict:
    """Every end-to-end figure, as {name: (value, unit)}: at the reference
    speed, raw (prefix ``raw.``), and the tail's percentile and job count.
    setups holds (reference seconds, raw seconds) per set-up probe."""
    items = sum(o.items for o in outcomes)
    failed = sum(o.error is not None for o in outcomes)
    out = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "raw.setup_s": (statistics.median(r for _, r in setups), "s"),
    }
    out.update(_timings([o.seconds * o.scale for o in outcomes], items, ""))
    out.update(_timings([o.seconds for o in outcomes], items, "raw."))
    out.update({
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_ratio": (failed / len(outcomes), "ratio"),
        "job_tail_percentile": (tail([o.seconds for o in outcomes])[0], "%"),
        "jobs": (len(outcomes), "count"),
    })
    return out
