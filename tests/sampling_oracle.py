"""The step-by-step sampler, kept as a test oracle for lambdalab.montecarlo.

Each run builds its own SplitMix64 and walks one step at a time, drawing
at every class whose LO- and RI-successors differ, and records the path
it visits.  The library's jump table must give the same runs, draw for
draw.
"""

from __future__ import annotations

import math

from lambdalab.montecarlo import Estimate, RunResult, SplitMix64
from lambdalab.pars import StateGraph
from lambdalab.strategies import StepCount, Strategy
from lambdalab.terms import Term

_UNCOMPILED = object()  # table slot of a class whose row is not compiled yet


class Sampler:
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
    sampler = Sampler(t, strategy)
    path = sampler.path(seed, max_steps)
    return [sampler.graph.rep(i) for i in path], sampler.graph.is_normal(path[-1])


def sample_run(t: Term, strategy: Strategy, seed: int, max_steps: int) -> RunResult:
    sampler = Sampler(t, strategy)
    path = sampler.path(seed, max_steps)
    if not sampler.graph.is_normal(path[-1]):
        return RunResult(StepCount.exhausted(max_steps), None, seed)
    return RunResult(StepCount.reached(len(path) - 1), sampler.graph.forms[path[-1]], seed)


def estimate(t: Term, strategy: Strategy, base_seed: int, n: int, max_steps: int) -> Estimate:
    sampler = Sampler(t, strategy)
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
