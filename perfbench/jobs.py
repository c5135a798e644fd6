"""The benchmark's workloads: seeded job lists, each job with its own check.

A workload's job list is one *round*.  The round is stratified: every size
and every eps denominator the workload names appears in it equally often,
and the seed picks the eps numerators (or the horizons), the sampling seeds
and the order.
So two seeds give different inputs with the same mix of costs, and the
figures of one run are comparable with those of another.

A job enters through ``lambdalab.cli.main`` where a subcommand exists
(analyze, montecarlo), so argument parsing, rendering and JSON count;
otherwise it calls the library.  Both are looked up at call time, so the
traced run sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from lambdalab import cli, pars, terms
from lambdalab.strategies import Strategy

import oracles

# A round is made of cost groups (sizes, shapes or terms) sized so that the
# median job and the 95th percentile fall inside a group, never on a gap
# between two groups, where they would jump from run to run.  In chain_mn,
# chain_dup and series there are five groups: four of equal size and the
# costliest with half as many jobs, about a tenth of the round, so the 95th
# percentile lies in its middle.  Job sizes put a 30-second run at 300 to
# 700 jobs on the reference machine, inside the band where job_tail_ms is
# the 95th percentile.
# Prime denominators keep every eps = num/den in lowest terms, so the cost
# of a job does not depend on whether the seeded numerator shares a factor.
MN_DENS = (5, 7, 11, 13)
MN_SIZES = {9: MN_DENS, 10: MN_DENS, 11: MN_DENS, 12: MN_DENS, 13: MN_DENS[:2]}
DUP_DENS = (7, 11)
DUP_SHAPES = {(4, 4): DUP_DENS, (10, 2): DUP_DENS, (8, 3): DUP_DENS, (9, 3): DUP_DENS,
              (14, 2): DUP_DENS[:1]}
# The cost of an evolution grows with the size of eps's numerators, so the
# series eps values are fixed and the seed picks the horizons instead.
SERIES_EPS = (Fraction(3, 7), Fraction(4, 11))
SERIES_TERMS = {"example2": SERIES_EPS, "dup:3:2": SERIES_EPS, "example1": SERIES_EPS,
                "Mn:4": SERIES_EPS, "Mn:8": SERIES_EPS[:1]}
SERIES_HORIZONS = range(1400, 1432)
SERIES_TOLERANCE = 1e-6
# example1 and example2 are one cheap group, so Mn:12 is the middle one
MC_TERMS = ("example1", "example2", "Mn:12", "Mn:16", "Mn:20")
# denominators that are not powers of two, so SplitMix64.below rejects draws
MC_EPS = (Fraction(2, 5), Fraction(3, 5), Fraction(2, 7), Fraction(3, 7), Fraction(4, 7))
MC_SAMPLES = 1500


@dataclass(frozen=True)
class Job:
    """One call into the program and the checks on what it returned."""

    label: str  # the job's whole input; digests are stored under it
    kind: str  # "cli" when call goes through lambdalab.cli.main, else "library"
    call: Callable[[], object]  # the timed call into the program
    encode: Callable[[object], bytes]  # the bytes whose SHA-256 is recorded
    verify: Callable[[object], tuple[int, Optional[str]]]  # (items, error)


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def run_cli(argv: tuple) -> tuple[int, str]:
    """lambdalab.cli.main on argv with stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _encode_cli(result) -> bytes:
    return result[1].encode("utf-8")


def _cli_json(result) -> dict:
    code, text = result
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(text)


# ---------------------------------------------------------------------------
# chain jobs: `lambdalab analyze TERM --eps e --format json`


def analyze_job(term_arg: str, e: Fraction, expected: Callable[[], Fraction]) -> Job:
    """Items are the chain's transient states."""
    argv = ("analyze", term_arg, "--eps", _frac(e), "--format", "json")

    def verify(result):
        report = _cli_json(result)
        states = len(report["states"])
        if report["termination_prob"] != "1/1":
            return states, f"termination_prob {report['termination_prob']} != 1/1"
        got, want = Fraction(report["expected_length"]), expected()
        if got != want:
            return states, f"expected_length {got} != closed form {want}"
        return states, None

    return Job(" ".join(argv), "cli", lambda: run_cli(argv), _encode_cli, verify)


def mn_analyze_job(k: int, e: Fraction) -> Job:
    return analyze_job(f"Mn:{k}", e, lambda: oracles.mn_expected(k, e))


def dup_analyze_job(k: int, d: int, e: Fraction) -> Job:
    return analyze_job(oracles.dup_term(k, d), e, lambda: oracles.dup_expected(k, d, e))


# ---------------------------------------------------------------------------
# series jobs: pars.evolve_trace(t, peps(e), H)


def _dup_shape(name: str) -> tuple[int, int]:
    _, k, d = name.split(":")
    return int(k), int(d)


def _series_term(name: str) -> terms.Term:
    if name.startswith("dup:"):
        return terms.parse(oracles.dup_term(*_dup_shape(name)))
    return cli.resolve_term(name)[1]


def _length_law(name: str, e: Fraction) -> Optional[dict]:
    """Exact law of the derivation length {steps: probability}, where the
    closed form gives one; example1 is geometric and handled apart."""
    if name == "example2":
        return {3: 1 - e, 4: e}
    if name.startswith("dup:"):
        k, d = _dup_shape(name)
        law: dict[int, Fraction] = {}
        for j in range(d):
            steps = j + 1 + k * (d - j)
            law[steps] = law.get(steps, Fraction(0)) + e * (1 - e) ** j
        law[d + 1] = law.get(d + 1, Fraction(0)) + (1 - e) ** d
        return law
    return None


def _closed_form(name: str, e: Fraction) -> Fraction:
    if name == "example1":
        return oracles.example1_expected(e)
    if name == "example2":
        return oracles.example2_expected(e)
    if name.startswith("Mn:"):
        return oracles.mn_expected(int(name[3:]), e)
    return oracles.dup_expected(*_dup_shape(name), e)


def _non_increasing(masses) -> bool:
    prev = masses[0]
    prev_f = float(prev)
    for m in masses[1:]:
        f = float(m)
        # floats decide unless they are too close or have underflowed
        if not f < prev_f * (1 - 1e-9) and m > prev:
            return False
        prev, prev_f = m, f
    return True


def series_job(name: str, e: Fraction, horizon: int) -> Job:
    """Items are the horizon's steps.

    Checks: |rho_0| = 1, masses never increase, and the truncated
    expectation is within SERIES_TOLERANCE of the closed form.  Where the
    length law is known in closed form (example1, example2, dup) every
    mass |rho_i| = P(length >= i) is checked exactly, which is stronger
    than mass conservation.
    """
    term = _series_term(name)
    strategy = Strategy.peps(e)

    def encode(trace) -> bytes:
        out = bytearray()
        for m in trace.masses:
            for n in (m.numerator, m.denominator):
                out += n.to_bytes(n.bit_length() // 8 + 1, "big") + b"/"
        return bytes(out)

    def verify(trace):
        masses = trace.masses
        if len(masses) != horizon + 1 or masses[0] != 1:
            return horizon, "trace must start at mass 1 and span the horizon"
        if not _non_increasing(masses):
            return horizon, "mass increased"
        want = _closed_form(name, e)
        if name == "example1":
            p = Fraction(1)
            for i, m in enumerate(masses[1:], 1):
                if m != p:
                    return horizon, f"mass at step {i} != (1-e)^{i - 1}"
                p *= 1 - e
        law = _length_law(name, e)
        if law is not None:
            for i, m in enumerate(masses):
                tail = sum((p for n, p in law.items() if n >= i), Fraction(0))
                if m != tail:
                    return horizon, f"mass {m} at step {i} != P(length >= {i}) = {tail}"
        truncated = sum(float(m) for m in masses[1:])
        if abs(truncated - float(want)) > SERIES_TOLERANCE:
            return horizon, f"truncated expectation {truncated} not within " \
                            f"{SERIES_TOLERANCE} of {float(want)}"
        return horizon, None

    return Job(f"evolve_trace {name} peps:{_frac(e)} {horizon}", "library",
               lambda: pars.evolve_trace(term, strategy, horizon), encode, verify)


# ---------------------------------------------------------------------------
# Monte Carlo jobs: `lambdalab montecarlo TERM --eps e --seed s --format json`


def mc_job(name: str, e: Fraction, seed: int, samples: int) -> Job:
    """Items are the reduction steps sampled.  Checks: no cutoffs and the
    mean within three 95% half-widths of the exact expectation."""
    argv = ("montecarlo", name, "--eps", _frac(e), "--seed", str(seed),
            "--samples", str(samples), "--format", "json")

    def verify(result):
        payload = _cli_json(result)
        finished = payload["sample_count"] - payload["cutoff_count"]
        mean = float(payload["mean"])
        steps = round(mean * finished)
        if payload["sample_count"] != samples or payload["cutoff_count"] != 0:
            return steps, f"{payload['cutoff_count']} of {payload['sample_count']} runs cut off"
        want = float(_closed_form(name, e))
        halfwidth = float(payload["confidence_halfwidth_95"])
        if abs(mean - want) > 3 * halfwidth:
            return steps, f"mean {mean} more than 3 half-widths ({halfwidth}) from {want}"
        return steps, None

    return Job(" ".join(argv), "cli",
               lambda: run_cli(argv), _encode_cli, verify)


# ---------------------------------------------------------------------------
# workloads


def _eps(rng: random.Random, den: int) -> Fraction:
    return Fraction(rng.randint(1, den - 1), den)


def chain_mn(rng: random.Random) -> list[Job]:
    return [mn_analyze_job(k, _eps(rng, den)) for k, dens in MN_SIZES.items() for den in dens]


def chain_dup(rng: random.Random) -> list[Job]:
    return [dup_analyze_job(k, d, _eps(rng, den))
            for (k, d), dens in DUP_SHAPES.items() for den in dens]


def series(rng: random.Random) -> list[Job]:
    return [series_job(name, e, rng.choice(SERIES_HORIZONS))
            for name, eps in SERIES_TERMS.items() for e in eps]


def mc(rng: random.Random) -> list[Job]:
    return [mc_job(name, e, rng.randrange(2**32), MC_SAMPLES)
            for name in MC_TERMS for e in MC_EPS]


WORKLOADS = {"chain_mn": chain_mn, "chain_dup": chain_dup, "series": series, "mc": mc}

# One small fixed job per workload, run before timing so lazy imports and
# first-call costs land in set-up.
WARMUP = {
    "chain_mn": lambda: mn_analyze_job(2, Fraction(1, 2)),
    "chain_dup": lambda: dup_analyze_job(2, 1, Fraction(1, 2)),
    "series": lambda: series_job("example1", Fraction(1, 2), 50),
    "mc": lambda: mc_job("example1", Fraction(1, 2), 0, 100),
}


def build(workload: str, seed: int) -> list[Job]:
    """The workload's round for this seed, in seeded order."""
    # a string seed hashes the same in every process, whatever PYTHONHASHSEED
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
