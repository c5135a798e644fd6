"""Seeded Monte Carlo simulation of probabilistic reduction.

The pseudo-random generator is pinned: SplitMix64 (Steele, Lea & Flood's
64-bit mixer, the de-facto standard seeding generator), seeded with each
run's 64-bit seed.  A step whose distribution has common denominator den
consumes uniform draws below den produced by top-bits rejection, so a
branch with probability num/den is taken with exactly that probability;
a step with one successor consumes no randomness.  Golden tests depend on
this scheme; never change it silently.

Runs count steps on a jump table indexed by class id: each side of a
branching class jumps over the draw-free steps that follow its draw, so a
run costs one lookup per draw.  estimate reseeds one generator per run.
Each draw stays a call of SplitMix64.below, which calls next_u64, because
the benchmark's tracer counts draws and rejections by wrapping these two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .pars import StateGraph
from .strategies import StepCount, Strategy
from .terms import CanonicalTerm, Term

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """64-bit state, 64-bit outputs; platform-independent integer ops only."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Exactly uniform draw in range(n): top-bits rejection."""
        k = (n - 1).bit_length()
        shift = 64 - k
        while True:
            r = self.next_u64() >> shift
            if r < n:
                return r


@dataclass(frozen=True)
class RunResult:
    """One sampled trajectory: step count and final class (None on cutoff)."""

    steps: StepCount
    final: Optional[CanonicalTerm]
    seed: int


@dataclass(frozen=True)
class Estimate:
    """Summary of a batch of runs; the mean excludes cutoff runs."""

    sample_count: int
    cutoff_count: int
    mean: float
    sample_variance: float
    confidence_halfwidth_95: float


class _Sampler:
    """A strategy's seeded runs from one term, on a jump table over one
    StateGraph.  A class branches when its LO- and RI-successors differ.

    tables[i] is compiled when a run first lands on class i: None for a
    normal form, else (den, cut, lo, ri) with cut/den = eps in lowest terms;
    a uniform draw below den takes the jump lo when it is below cut, else ri.
    A jump (steps, landing) is the step to the LO- or RI-successor and the
    draw-free steps after it, steps in all.
    """

    def __init__(self, t: Term, strategy: Strategy, max_steps: int):
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        self.graph = StateGraph()
        self.eps = strategy.eps
        self.max_steps = max_steps
        self.start = self._land(self.graph.intern(t), 0)
        self.tables: dict = {}

    def _land(self, i: int, steps: int) -> tuple:
        """(steps + k, landing): the k draw-free steps from class i end at
        landing, the first normal or branching class; (max_steps + 1, None)
        when they loop or run past max_steps, where the walk stops."""
        seen = set()
        while steps <= self.max_steps and i not in seen:
            if self.graph.is_normal(i):
                return steps, i
            targets = self.graph.successors(i, self.eps)
            if len(targets) > 1:
                return steps, i
            seen.add(i)
            i = targets[0]
            steps += 1
        return self.max_steps + 1, None

    def _compile(self, i: int):
        table = None
        if not self.graph.is_normal(i):
            lo, ri = self.graph.successors(i, self.eps)
            table = (self.eps.denominator, self.eps.numerator,
                     self._land(lo, 1), self._land(ri, 1))
        self.tables[i] = table
        return table

    def run(self, below) -> tuple[int, Optional[int]]:
        """(steps, normal class) of one run that draws with below, or
        (max_steps, None) when it is cut off."""
        steps, state = self.start
        tables, max_steps = self.tables, self.max_steps
        while steps <= max_steps:
            try:
                table = tables[state]
            except KeyError:
                table = self._compile(state)
            if table is None:
                return steps, state
            if steps == max_steps:
                break
            den, cut, lo, ri = table
            jump, state = lo if below(den) < cut else ri
            steps += jump
        return max_steps, None


def sample_path(t: Term, strategy: Strategy, seed: int, max_steps: int) -> tuple[list, bool]:
    """Representatives of the classes one seeded run visits, origin first,
    and whether the run reached a normal form within max_steps steps."""
    # stepped one class at a time, not on a jump table, so the graph finds
    # each class on the first step to it and names it after that step
    rng, eps, graph = SplitMix64(seed), strategy.eps, StateGraph()
    path = [graph.intern(t)]
    while len(path) <= max_steps and not graph.is_normal(path[-1]):
        targets = graph.successors(path[-1], eps)
        path.append(targets[len(targets) > 1 and rng.below(eps.denominator) >= eps.numerator])
    return [graph.rep(i) for i in path], graph.is_normal(path[-1])


def sample_run(t: Term, strategy: Strategy, seed: int, max_steps: int) -> RunResult:
    """One seeded trajectory of the strategy, cut off after max_steps."""
    sampler = _Sampler(t, strategy, max_steps)
    steps, final = sampler.run(SplitMix64(seed).below)
    if final is None:
        return RunResult(StepCount.exhausted(max_steps), None, seed)
    return RunResult(StepCount.reached(steps), sampler.graph.forms[final], seed)


def estimate(
    t: Term,
    strategy: Strategy,
    base_seed: int,
    n: int,
    max_steps: int,
) -> Estimate:
    """n independent runs with seeds base_seed..base_seed+n-1.

    A pure function of its arguments: the runs count steps on one jump
    table and draw from one generator, reseeded to each run's seed, so the
    result is the same as n isolated sample_run calls.  Draws stay calls of
    SplitMix64.below because the benchmark's tracer counts them there.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = SplitMix64(base_seed)
    run, below = _Sampler(t, strategy, max_steps).run, rng.below
    finite_steps: list[int] = []
    cutoff_count = 0
    for i in range(n):
        rng.state = (base_seed + i) & _MASK64
        steps, final = run(below)
        if final is not None:
            finite_steps.append(steps)
        else:
            cutoff_count += 1
    m = len(finite_steps)
    if m == 0:
        return Estimate(n, cutoff_count, 0.0, 0.0, 0.0)
    mean = sum(finite_steps) / m
    if m > 1:
        variance = sum((x - mean) ** 2 for x in finite_steps) / (m - 1)
    else:
        variance = 0.0
    halfwidth = 1.96 * math.sqrt(variance / m)
    return Estimate(n, cutoff_count, mean, variance, halfwidth)
