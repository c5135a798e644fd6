"""Seeded Monte Carlo simulation of probabilistic reduction.

The pseudo-random generator is pinned: SplitMix64 (Steele, Lea & Flood's
64-bit mixer, the de-facto standard seeding generator), one instance per
run, seeded with that run's 64-bit seed.  A step whose distribution has
common denominator den consumes uniform draws below den produced by
top-bits rejection, so a branch with probability num/den is taken with
exactly that probability; Dirac steps consume no randomness.  Golden tests
depend on this scheme; never change it silently.
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


_UNCOMPILED = object()  # table slot of a class whose row is not compiled yet


class _Sampler:
    """A strategy's successors on one StateGraph, compiled lazily into
    exact integer sampling tables indexed by class id.

    A table is None for a normal form, the successor id when no draw is
    needed, and (den, cut, lo, ri) otherwise, with cut/den = eps in lowest
    terms: a uniform draw below den selects the LO-successor lo when it is
    below cut, else ri.
    """

    def __init__(self, t: Term, strategy: Strategy):
        self.graph = StateGraph()
        self.eps = strategy.eps
        self.origin = self.graph.intern(t)
        self.tables: list = [_UNCOMPILED] * len(self.graph.forms)

    def _compile(self, i: int):
        if self.graph.is_normal(i):
            table = None
        else:
            targets = self.graph.successors(i, self.eps)
            if len(targets) == 1:
                table = targets[0]
            else:
                table = (self.eps.denominator, self.eps.numerator) + targets
        self.tables[i] = table
        self.tables += [_UNCOMPILED] * (len(self.graph.forms) - len(self.tables))
        return table

    def path(self, seed: int, max_steps: int) -> list[int]:
        """Class ids one seeded run visits, origin first; the run stops at a
        normal form or after max_steps steps."""
        rng = SplitMix64(seed)
        tables = self.tables
        state = self.origin
        path = [state]
        for _ in range(max_steps):
            table = tables[state]
            if table is _UNCOMPILED:
                table = self._compile(state)
            if table is None:
                break
            if isinstance(table, int):
                state = table
            else:
                den, cut, lo, ri = table
                state = lo if rng.below(den) < cut else ri
            path.append(state)
        return path


def sample_path(t: Term, strategy: Strategy, seed: int, max_steps: int) -> tuple[list, bool]:
    """Representatives of the classes one seeded run visits, origin first,
    and whether the run reached a normal form within max_steps steps."""
    sampler = _Sampler(t, strategy)
    path = sampler.path(seed, max_steps)
    return [sampler.graph.rep(i) for i in path], sampler.graph.is_normal(path[-1])


def sample_run(t: Term, strategy: Strategy, seed: int, max_steps: int) -> RunResult:
    """One seeded trajectory of the strategy, cut off after max_steps."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    sampler = _Sampler(t, strategy)
    path = sampler.path(seed, max_steps)
    if not sampler.graph.is_normal(path[-1]):
        return RunResult(StepCount.exhausted(max_steps), None, seed)
    return RunResult(StepCount.reached(len(path) - 1), sampler.graph.forms[path[-1]], seed)


def estimate(
    t: Term,
    strategy: Strategy,
    base_seed: int,
    n: int,
    max_steps: int,
) -> Estimate:
    """n independent runs with seeds base_seed..base_seed+n-1.

    A pure function of its arguments: transitions are memoized across runs
    but each run draws only from its own generator, so the result is the
    same as n isolated sample_run calls.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    sampler = _Sampler(t, strategy)
    finite_steps: list[int] = []
    cutoff_count = 0
    for i in range(n):
        path = sampler.path(base_seed + i, max_steps)
        if sampler.graph.is_normal(path[-1]):
            finite_steps.append(len(path) - 1)
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
