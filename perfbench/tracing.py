"""Traced mode: timing and counting wrappers around lambdalab's public calls.

Each hook replaces a function in the namespace where callers look it up,
for example ``lambdalab.strategies.redexes`` (what p_eps calls) rather than
``lambdalab.terms.redexes`` (what terms' own recursion calls), so a span is
one call across a module boundary.  Hooks are installed around one traced
job at a time and the originals are restored afterwards.

A span's self time is its duration minus the time of its child spans.  Each
traced job has a root span, ``harness.job``, so the self times of a job's
spans add up to the job's wall time.  Probes that measure a call's
arguments or result (``terms.max_state_nodes`` and the like) run outside the
call's span and are booked to ``harness.probe``, not to the caller.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Optional

from lambdalab import cli, montecarlo, pars, strategies, terms

_perf = time.perf_counter

HARNESS_JOB = "harness.job"
HARNESS_PROBE = "harness.probe"


def _term_nodes(args, result, tracer: "Tracer") -> None:
    tracer.maximum("terms.max_state_nodes", terms.term_size(args[0]))


def _explored(args, result, tracer: "Tracer") -> None:
    tracer.count("pars.explore_states.states", len(result.states))


def _is_acyclic(states, rows) -> bool:
    """Kahn's algorithm over the non-absorbing edges of a chain."""
    indegree = {c: 0 for c in states}
    for c in states:
        for target, _ in rows[c]:
            if target in indegree:
                indegree[target] += 1
    ready = [c for c in states if indegree[c] == 0]
    seen = 0
    while ready:
        c = ready.pop()
        seen += 1
        for target, _ in rows[c]:
            if target in indegree:
                indegree[target] -= 1
                if indegree[target] == 0:
                    ready.append(target)
    return seen == len(states)


def _solved(args, result, tracer: "Tracer") -> None:
    chain = args[0]
    tracer.count("pars.solve.states", len(chain.states))
    tracer.count("pars.solve.acyclic", int(_is_acyclic(chain.states, chain.rows)))
    for value in (result.termination_prob, result.expected_length):
        if value is not None:
            tracer.maximum("pars.solve.max_den_bits", value.denominator.bit_length())


def _evolved(args, result, tracer: "Tracer") -> None:
    bits = max(m.denominator.bit_length() for m in result.masses)
    tracer.maximum("pars.evolve.den_bits", bits)


def _estimated(args, result, tracer: "Tracer") -> None:
    finished = result.sample_count - result.cutoff_count
    tracer.count("montecarlo.steps", round(result.mean * finished))


# (owner, attribute, span name, probe).  The owner is the namespace the
# caller looks the name up in.
SPAN_HOOKS = (
    (strategies, "canonicalize", "terms.canonicalize", _term_nodes),
    (pars, "canonicalize", "terms.canonicalize", _term_nodes),
    (strategies, "redexes", "terms.redexes", None),
    (strategies, "reduce_at", "terms.reduce_at", None),
    (strategies, "is_normal_form", "terms.is_normal_form", None),
    (pars, "is_normal_form", "terms.is_normal_form", None),
    (pars, "render", "terms.render", None),
    (cli, "render", "terms.render", None),
    (cli, "parse", "terms.parse", None),
    (strategies, "p_eps", "strategies.p_eps", None),
    (cli, "analyze", "pars.analyze", None),
    (pars, "explore_states", "pars.explore_states", _explored),
    (pars, "solve_expected_length", "pars.solve_expected_length", _solved),
    (pars, "evolve_trace", "pars.evolve_trace", _evolved),
    (pars.ChainAnalysis, "to_report", "pars.to_report", None),
    (cli, "estimate", "montecarlo.estimate", _estimated),
    (cli, "main", "cli.main", None),
)

# Counting-only hooks: one call each per random draw, too many for spans.
COUNT_HOOKS = (
    (montecarlo.SplitMix64, "below", "montecarlo.draws"),
    (montecarlo.SplitMix64, "next_u64", "montecarlo.next_u64"),
)


class Tracer:
    """Spans and counters of traced jobs, kept in memory.

    stats maps a span name to [calls, self seconds, total seconds]; counts
    holds counters and maxima.  Spans are recorded only while
    ``record_spans`` is set, as (id, parent id, job, name, start, end) with
    times in seconds from the tracer's creation.
    """

    def __init__(self):
        self.origin = _perf()
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.record_spans = True
        self.missing: set[str] = set()
        self._stack: list[list] = [[0.0, None]]  # frames: [child seconds, span id]
        self._next_id = 0
        self._job: Optional[int] = None

    # -- counters -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name: str, value: int) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    # -- spans --------------------------------------------------------------

    def _span(self, name: str, fn: Callable, args, kwargs):
        stat = self._stat(name)
        parent = self._stack[-1]
        self._next_id += 1
        frame = [0.0, self._next_id]
        self._stack.append(frame)
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _perf()
            self._stack.pop()
            duration = end - start
            stat[0] += 1
            stat[1] += duration - frame[0]
            stat[2] += duration
            parent[0] += duration
            if self.record_spans:
                self.spans.append((frame[1], parent[1], self._job, name,
                                   start - self.origin, end - self.origin))

    def _probe(self, probe: Callable, args, result) -> None:
        start = _perf()
        probe(args, result, self)
        duration = _perf() - start
        self._stack[-1][0] += duration
        stat = self._stat(HARNESS_PROBE)
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration

    def _span_wrapper(self, name: str, fn: Callable, probe: Optional[Callable]):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._span(name, fn, args, kwargs)
            if probe is not None:
                self._probe(probe, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every hook; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, probe in SPAN_HOOKS:
                fn = owner.__dict__.get(attr)
                if fn is None:
                    self.missing.add(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._span_wrapper(name, fn, probe))
            for owner, attr, name in COUNT_HOOKS:
                fn = owner.__dict__.get(attr)
                if fn is None:
                    self.missing.add(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._count_wrapper(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def _call_installed(self, call: Callable[[], object]):
        with self.installed():
            return call()

    def run_job(self, job_id: int, call: Callable[[], object]):
        """call() with every hook installed, under a root span that also
        covers installing and restoring the hooks."""
        self._job = job_id
        try:
            return self._span(HARNESS_JOB, self._call_installed, (call,), {})
        finally:
            self._job = None


def _per_round(value, rounds: int):
    """A total over identical rounds, as the figure of one round."""
    if isinstance(value, int) and value % rounds == 0:
        return value // rounds
    return value / rounds


def layer_metrics(tracer: Tracer, rounds: int, traced_s: float, plain_s: float) -> dict:
    """Every per-layer figure of one round, as {name: (value, unit)}.

    Figures of a layer the workload does not reach read 0.
    """
    out: dict[str, tuple] = {}

    def stat(name):
        return tracer.stats.get(name, [0, 0.0, 0.0])

    for name in ("terms.canonicalize", "terms.redexes", "terms.reduce_at",
                 "terms.is_normal_form", "terms.render", "terms.parse",
                 "strategies.p_eps", "pars.explore_states",
                 "pars.solve_expected_length", "pars.evolve_trace",
                 "pars.analyze", "pars.to_report", "montecarlo.estimate", "cli.main"):
        calls, self_s, _ = stat(name)
        out[f"{name}.calls"] = (_per_round(calls, rounds), "count")
        out[f"{name}.self_s"] = (self_s / rounds, "s")

    counts = tracer.counts

    def count(name):
        return _per_round(counts.get(name, 0), rounds)

    out["terms.max_state_nodes"] = (counts.get("terms.max_state_nodes", 0), "count")
    out["pars.explore_states.states"] = (count("pars.explore_states.states"), "count")
    explore_total = stat("pars.explore_states")[2]
    out["pars.explore.states_per_s"] = (
        counts.get("pars.explore_states.states", 0) / explore_total if explore_total else 0.0,
        "1/s")
    solve_calls, _, solve_total = stat("pars.solve_expected_length")
    out["pars.solve.states_per_s"] = (
        counts.get("pars.solve.states", 0) / solve_total if solve_total else 0.0, "1/s")
    out["pars.solve.acyclic_share"] = (
        counts.get("pars.solve.acyclic", 0) / solve_calls if solve_calls else 0.0, "ratio")
    out["pars.solve.max_den_bits"] = (counts.get("pars.solve.max_den_bits", 0), "bits")
    out["pars.evolve.den_bits"] = (counts.get("pars.evolve.den_bits", 0), "bits")
    draws = counts.get("montecarlo.draws", 0)
    out["montecarlo.steps"] = (count("montecarlo.steps"), "count")
    out["montecarlo.draws"] = (_per_round(draws, rounds), "count")
    out["montecarlo.rejections"] = (
        _per_round(counts.get("montecarlo.next_u64", 0) - draws, rounds), "count")
    out["cli.output_bytes"] = (count("cli.output_bytes"), "bytes")

    harness_s = stat(HARNESS_JOB)[1] + stat(HARNESS_PROBE)[1]
    out["harness.self_s"] = (harness_s / rounds, "s")
    out["harness.overhead_s"] = ((traced_s - plain_s) / rounds, "s")
    out["harness.traced_s"] = (traced_s / rounds, "s")
    out["harness.untraced_s"] = (plain_s / rounds, "s")
    layers_s = sum(s[1] for name, s in tracer.stats.items()
                   if name not in (HARNESS_JOB, HARNESS_PROBE))
    out["harness.layer_share"] = (layers_s / traced_s if traced_s else 0.0, "ratio")
    return out
