"""Probabilistic reduction semantics over exact rationals, on one state graph.

A StateGraph interns alpha-classes to int ids, keeps the first term found
for each as its representative, and computes each class's LO- and
RI-successors once; the eps-mixture's row from a class reweights those two.
Each call below builds one graph and runs every eps it needs over it:

* configuration evolution — a partial distribution over alpha-classes is
  pushed one step at a time; normal forms absorb, so their mass leaves the
  configuration and |rho_k| is the probability that a run takes k steps or
  more (evolve is the graph-free reference for evolve_trace);
* the reachable-state chain — breadth-first closure of the start class
  under the strategy's rows, with every normal form collapsed into a single
  absorbing class ``trm``, solved exactly for the absorption probability
  and the expected absorption time;
* the seeded samplers of montecarlo, and the law suite's reduction graphs
  under all one-step reducts or all argument-normal reducts.

Everything is computed in exact rational arithmetic.  The chain is solved
component by component: its strongly connected components are taken sinks
first, and each is one small linear system eliminated over Fractions, so
results can be compared with closed formulas for equality rather than
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Optional

from .strategies import (
    Strategy,
    anf_successors,
    beta_successors,
    lo_ri_reducts,
    n_steps,
)
from .terms import CanonicalTerm, Term, canonicalize, is_normal_form, render

TRM = "trm"  # the single absorbing class all normal forms collapse into


class StateCapExceeded(RuntimeError):
    """Reachable-state exploration found more states than the cap allows."""

    def __init__(self, discovered: int, state_cap: int):
        super().__init__(f"more than {state_cap} states reachable (saw {discovered})")
        self.discovered = discovered
        self.state_cap = state_cap


class SingularSystem(RuntimeError):
    """The hitting-time system was singular; signals a chain-construction bug."""


DEFAULT_STATE_CAP = 100_000


# ---------------------------------------------------------------------------
# the state graph


_ZERO = Fraction(0)
_ONE = Fraction(1)
_UNEXPANDED = object()  # reduct slot of a reducible class not expanded yet


class StateGraph:
    """Alpha-classes interned to int ids in discovery order.

    forms[i] is the canonical form of class i and reps[i] the first term
    interned for it.  A class's LO- and RI-reducts come from one redex
    listing the first time either is asked for, and each is interned when
    first used, so a chain at eps = 0 or 1 discovers only the classes it
    reaches.  All-beta and argument-normal successor ids, which the laws
    need, are computed on demand too.
    """

    def __init__(self) -> None:
        self.ids: dict[CanonicalTerm, int] = {}
        self.forms: list[CanonicalTerm] = []
        self.reps: list[Term] = []
        # per class: None if normal, _UNEXPANDED, or [lo, ri] as ids or terms
        self._reducts: list = []
        self._beta: dict[int, tuple] = {}
        self._anf: dict[int, tuple] = {}

    def intern(self, t: Term) -> int:
        """The id of t's class; a new class gets the next id and t as its
        representative."""
        c = canonicalize(t)
        i = self.ids.get(c)
        if i is None:
            i = self.ids[c] = len(self.forms)
            self.forms.append(c)
            self.reps.append(t)
            self._reducts.append(None if is_normal_form(t) else _UNEXPANDED)
        return i

    def is_normal(self, i: int) -> bool:
        return self._reducts[i] is None

    def _successor(self, i: int, side: int) -> int:
        """Id of the LO- (side 0) or RI-successor (side 1) of reducible class i."""
        reducts = self._reducts[i]
        if reducts is _UNEXPANDED:
            lo, ri = lo_ri_reducts(self.reps[i])
            # a single redex: both sides are one reduct, needed whatever eps
            reducts = self._reducts[i] = [self.intern(lo)] * 2 if ri is lo else [lo, ri]
        target = reducts[side]
        if not isinstance(target, int):
            target = reducts[side] = self.intern(target)
        return target

    def lo_ri(self, i: int) -> Optional[tuple[int, int]]:
        """LO- and RI-successor ids of class i, equal when it has a single
        redex; None iff the class is a normal form."""
        if self.is_normal(i):
            return None
        return self._successor(i, 0), self._successor(i, 1)

    def row(self, i: int, eps: Fraction) -> Optional[tuple]:
        """((successor id, probability), ...) of the eps-mixture from class
        i: (LO, eps) then (RI, 1 - eps), zero weights dropped and equal
        targets merged.  None iff the class is a normal form."""
        if self.is_normal(i):
            return None
        if eps == 0:
            return ((self._successor(i, 1), _ONE),)
        lo = self._successor(i, 0)
        if eps == 1:
            return ((lo, _ONE),)
        ri = self._successor(i, 1)
        if lo == ri:
            return ((lo, _ONE),)
        return ((lo, eps), (ri, 1 - eps))

    def chain_row(self, i: int, eps: Fraction) -> tuple:
        """row(i, eps) of a reducible class with every normal-form target
        collapsed into TRM."""
        out: dict = {}
        for j, p in self.row(i, eps):
            key = TRM if self.is_normal(j) else j
            out[key] = out.get(key, 0) + p
        return tuple(out.items())

    def beta(self, i: int) -> tuple:
        """Ids of all one-step reducts of class i, in redex order."""
        if i not in self._beta:
            self._beta[i] = tuple(map(self.intern, beta_successors(self.reps[i])))
        return self._beta[i]

    def anf(self, i: int) -> tuple:
        """Ids of the reducts of class i through argument-normal redexes."""
        if i not in self._anf:
            self._anf[i] = tuple(map(self.intern, anf_successors(self.reps[i])))
        return self._anf[i]

    def closure(
        self, root: int, successors: Callable[[int], Iterable[int]], state_cap: int
    ) -> list[int]:
        """Ids reachable from root through successors, in breadth-first
        discovery order.  Raises StateCapExceeded when more than state_cap
        ids are discovered."""
        order = [root]
        seen = {root}
        for i in order:  # order grows while it is walked
            for j in successors(i):
                if j not in seen:
                    if len(order) >= state_cap:
                        raise StateCapExceeded(len(order) + 1, state_cap)
                    seen.add(j)
                    order.append(j)
        return order


# ---------------------------------------------------------------------------
# configurations and evolution


@dataclass(frozen=True)
class Configuration:
    """Partial distribution over alpha-classes at a given step index."""

    masses: dict  # CanonicalTerm -> Fraction, all > 0
    reps: dict  # CanonicalTerm -> Term
    step: int = 0

    @classmethod
    def dirac(cls, t: Term) -> "Configuration":
        return cls({canonicalize(t): Fraction(1)}, {canonicalize(t): t}, 0)

    @property
    def mass(self) -> Fraction:
        return sum(self.masses.values(), Fraction(0))


def evolve(config: Configuration, strategy: Strategy) -> Configuration:
    """Push every unit of mass one step along the strategy.

    Normal-form states have no outgoing transitions, so their mass simply
    disappears; total mass is therefore non-increasing.
    """
    masses: dict[CanonicalTerm, Fraction] = {}
    reps: dict[CanonicalTerm, Term] = {}
    for c, m in config.masses.items():
        dist = strategy.distribution(config.reps[c])
        if dist is None:
            continue
        for c2, p in dist.items():
            masses[c2] = masses.get(c2, Fraction(0)) + m * p
            reps.setdefault(c2, dist.rep(c2))
    return Configuration(masses, reps, config.step + 1)


@dataclass(frozen=True)
class EvolutionTrace:
    """The mass sequence |rho_0|, ..., |rho_H| of an iterated evolution."""

    masses: tuple  # Fractions, length horizon + 1, masses[0] == 1

    @property
    def horizon(self) -> int:
        return len(self.masses) - 1

    @property
    def trailing_mass(self) -> Fraction:
        return self.masses[-1]


def evolve_trace(t: Term, strategy: Strategy, horizon: int) -> EvolutionTrace:
    """Masses of the Dirac-started evolution, recorded up to the horizon.

    Equivalent to iterating evolve(); internally the masses are carried as
    integer numerators over one common denominator per step, which avoids
    rational normalization in the inner loop at large horizons.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    graph = StateGraph()
    rows: dict[int, Optional[tuple]] = {}  # graph rows of the classes seen so far
    current: dict[int, int] = {graph.intern(t): 1}
    denominator = 1
    masses = [Fraction(1)]
    for _ in range(horizon):
        step_den = 1
        for i in current:
            if i not in rows:
                rows[i] = graph.row(i, strategy.eps)
            if rows[i]:
                step_den = lcm(step_den, *(p.denominator for _, p in rows[i]))
        nxt: dict[int, int] = {}
        for i, m in current.items():
            row = rows[i]
            if row is None:
                continue
            for j, p in row:
                weight = p.numerator * (step_den // p.denominator)
                nxt[j] = nxt.get(j, 0) + m * weight
        denominator *= step_den
        current = nxt
        masses.append(Fraction(sum(current.values()), denominator))
    return EvolutionTrace(tuple(masses))


def derivation_length_dist(trace: EvolutionTrace) -> dict[int, Fraction]:
    """Pointwise mass drops: probability of terminating in exactly i steps.

    Zero entries are omitted; within the horizon the values sum, together
    with the trailing mass, to exactly 1.
    """
    if len(trace.masses) < 2:
        raise ValueError("trace needs at least two entries")
    out: dict[int, Fraction] = {}
    for i in range(trace.horizon):
        d = trace.masses[i] - trace.masses[i + 1]
        if d != 0:
            out[i] = d
    return out


def expected_length_truncated(trace: EvolutionTrace) -> Fraction:
    """Partial sum of the step masses: a lower bound on the expected length,
    exact whenever the trailing mass is zero."""
    return sum(trace.masses[1:], Fraction(0))


# ---------------------------------------------------------------------------
# reachable-state chain


@dataclass(frozen=True)
class ChainAnalysis:
    """Reachable-state graph of a term under a strategy plus solved
    hitting-time quantities.

    states lists the non-absorbing alpha-classes in BFS discovery order;
    every normal form is identified with the single absorbing class TRM,
    which self-loops with probability 1.  rows map each state to its exact
    outgoing distribution over states and TRM.  expected_length is None in
    a skeleton; after solving it is the exact expected absorption time, or
    INFINITE (represented as the string "inf" by reports) exactly when the
    termination probability from the origin is below 1.
    """

    origin: CanonicalTerm
    origin_term: Term
    strategy_name: str
    states: tuple  # CanonicalTerm, BFS order (empty iff origin is normal)
    reps: dict  # CanonicalTerm -> Term
    rows: dict  # CanonicalTerm -> tuple[(CanonicalTerm | TRM, Fraction), ...]
    solved: bool = False
    termination_prob: Optional[Fraction] = None
    expected_length: Optional[Fraction] = None  # None means infinite once solved

    def state_index(self) -> dict:
        return {c: i for i, c in enumerate(self.states)}

    def to_report(self) -> dict:
        """JSON-ready report: rendered states, num/den transition triples."""
        index = self.state_index()
        transitions = []
        for c in self.states:
            for target, p in self.rows[c]:
                transitions.append(
                    {
                        "from": index[c],
                        "to": TRM if target == TRM else index[target],
                        "prob": f"{p.numerator}/{p.denominator}",
                    }
                )
        report = {
            "origin": render(self.origin_term),
            "strategy": self.strategy_name,
            "states": [render(self.reps[c]) for c in self.states],
            "absorbing": TRM,
            "transitions": transitions,
        }
        if self.solved:
            assert self.termination_prob is not None
            tp = self.termination_prob
            report["termination_prob"] = f"{tp.numerator}/{tp.denominator}"
            if self.expected_length is None:
                report["expected_length"] = "inf"
            else:
                e = self.expected_length
                report["expected_length"] = f"{e.numerator}/{e.denominator}"
        return report


def explore_states(
    t: Term, strategy: Strategy, state_cap: int = DEFAULT_STATE_CAP
) -> ChainAnalysis:
    """Breadth-first closure of t under the strategy's supports.

    Raises StateCapExceeded when more than state_cap distinct non-absorbing
    alpha-classes are discovered, so non-closure is an explicit result
    rather than a hang.
    """
    if state_cap < 1:
        raise ValueError("state_cap must be >= 1")
    graph = StateGraph()
    root = graph.intern(t)
    forms = graph.forms
    origin = forms[root]
    if graph.is_normal(root):
        return ChainAnalysis(origin, t, strategy.name, (), {origin: t}, {})
    rows: dict[int, tuple] = {}

    def successors(i: int) -> list:
        rows[i] = row = graph.chain_row(i, strategy.eps)
        return [j for j, _ in row if j != TRM]

    order = graph.closure(root, successors, state_cap)
    return ChainAnalysis(
        origin,
        t,
        strategy.name,
        tuple(forms[i] for i in order),
        {forms[i]: graph.reps[i] for i in order},
        {forms[i]: tuple((j if j == TRM else forms[j], p) for j, p in rows[i])
         for i in order},
    )


def sccs(successors: list) -> list[list[int]]:
    """Strongly connected components of the graph on 0 .. n-1 whose edges
    run from i to each id in successors[i], by Tarjan's algorithm (Tarjan
    1972) on an explicit work stack.  Every component comes after each
    component it has an edge into, so sinks come first."""
    n = len(successors)
    index = [-1] * n  # discovery number; -1 before it, n once in a component
    low = [0] * n
    edges = [iter(out) for out in successors]
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        work = [root] if index[root] < 0 else []
        while work:
            v = work[-1]
            if index[v] < 0:  # first visit
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
            for w in edges[v]:
                if index[w] < 0:
                    work.append(w)
                    break
                low[v] = min(low[v], index[w])
            else:  # every edge of v is done
                work.pop()
                if work:
                    low[work[-1]] = min(low[work[-1]], low[v])
                if low[v] == index[v]:
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    for w in component:
                        index[w] = n
                    components.append(component)
    return components


def _solve_linear(matrix: list[list], rhs: list[Fraction]) -> list[Fraction]:
    """Exact Gauss-Jordan elimination of matrix x = rhs; raises
    SingularSystem on a zero pivot."""
    n = len(matrix)
    a = [row + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem(f"no pivot in column {col}")
        a[col], a[pivot] = a[pivot], a[col]
        top = a[col]
        if top[col] != 1:
            top = a[col] = [x / top[col] for x in top]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], top)]
    return [row[n] for row in a]


def _solve_rows(
    states: tuple, rows: dict, origin: CanonicalTerm
) -> tuple[Fraction, Optional[Fraction]]:
    """Absorption probability at TRM from origin and, when it is 1, the
    exact expected absorption time (None otherwise).

    Strongly connected components are solved sinks first.  On one, the
    absorption probability is 0 if it is 0 wherever an edge leaves the
    component (or none leaves), 1 if it is 1 there, and below 1 throughout
    otherwise; one exact system, fed by the values solved downstream, then
    gives the expected time in the second case, the probability in the third.
    """
    if not states:
        return Fraction(1), Fraction(0)  # the origin itself is normal
    n = len(states)
    index = {c: i for i, c in enumerate(states)}
    index[TRM] = n  # solved in advance: absorbed with probability 1 in 0 steps
    edges = [[(index[target], p) for target, p in rows[c]] for c in states]
    h = [None] * n + [_ONE]  # absorption probability
    k = [None] * n + [_ZERO]  # expected absorption time where h == 1
    for component in sccs([[j for j, _ in out if j < n] for out in edges]):
        pos = {i: r for r, i in enumerate(component)}
        exits = {h[j] for i in component for j, _ in edges[i] if j not in pos}
        if not any(exits):
            for i in component:
                h[i] = _ZERO
            continue
        sure = exits == {1}
        downstream = k if sure else h
        matrix = [[0] * len(component) for _ in component]
        rhs = []
        for r, i in enumerate(component):
            matrix[r][r] = 1
            b = _ONE if sure else _ZERO
            for j, p in edges[i]:
                if j in pos:
                    matrix[r][pos[j]] -= p
                else:
                    b += p * downstream[j]
            rhs.append(b)
        for i, x in zip(component, _solve_linear(matrix, rhs)):
            h[i], k[i] = (_ONE, x) if sure else (x, None)
    return h[index[origin]], k[index[origin]]


def solve_expected_length(chain: ChainAnalysis) -> ChainAnalysis:
    """Solve the absorbing chain exactly.

    termination_prob is the probability of absorption in TRM from the
    origin; expected_length is the exact expected number of steps when that
    probability is 1 and None (infinite) otherwise.
    """
    termination, expected = _solve_rows(chain.states, chain.rows, chain.origin)
    return replace(
        chain, solved=True, termination_prob=termination, expected_length=expected
    )


def analyze(
    t: Term, strategy: Strategy, state_cap: int = DEFAULT_STATE_CAP
) -> ChainAnalysis:
    """explore_states followed by solve_expected_length."""
    return solve_expected_length(explore_states(t, strategy, state_cap))


def chain_derivation_lengths(chain: ChainAnalysis, horizon: int) -> dict[int, Fraction]:
    """Absorption-time distribution of the chain up to the horizon.

    Pushes the origin's unit mass through the chain rows and records the
    mass entering TRM at each step; agrees entry-wise with the trace-side
    derivation_length_dist over the shared horizon.  Zero entries omitted.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    out: dict[int, Fraction] = {}
    if not chain.states:  # origin already normal
        out[0] = Fraction(1)
        return out
    current: dict[CanonicalTerm, Fraction] = {chain.origin: Fraction(1)}
    for step in range(1, horizon + 1):
        absorbed = Fraction(0)
        nxt: dict[CanonicalTerm, Fraction] = {}
        for c, m in current.items():
            for target, p in chain.rows[c]:
                if target == TRM:
                    absorbed += m * p
                else:
                    nxt[target] = nxt.get(target, Fraction(0)) + m * p
        if absorbed:
            out[step] = absorbed
        current = nxt
        if not current:
            break
    return out


# ---------------------------------------------------------------------------
# epsilon grids


def grid_expected_lengths(
    t: Term, grid, state_cap: int = DEFAULT_STATE_CAP
) -> dict[Fraction, tuple[Fraction, Optional[Fraction]]]:
    """(termination probability, expected length) of the LO/RI mixture for
    every eps in the grid.

    The classes reachable through LO or RI steps are explored once and
    their rows reweighted per eps; the values agree exactly with
    analyze(t, Strategy.peps(eps)) for each grid point (extra states
    reachable only under other eps values cannot influence the origin's
    hitting quantities).
    """
    if state_cap < 1:
        raise ValueError("state_cap must be >= 1")
    graph = StateGraph()
    root = graph.intern(t)
    if graph.is_normal(root):
        return {Fraction(e): (Fraction(1), Fraction(0)) for e in grid}
    states = tuple(graph.closure(
        root, lambda i: [j for j in graph.lo_ri(i) if not graph.is_normal(j)], state_cap
    ))
    return {
        eps: _solve_rows(states, {i: graph.chain_row(i, eps) for i in states}, root)
        for eps in map(Fraction, grid)
    }


# ---------------------------------------------------------------------------
# the expectation bound


@dataclass(frozen=True)
class FosterReport:
    """Comparison of the solved expected length against N_LO/eps."""

    term: Term
    eps: Fraction
    status: str  # "holds" | "violated" | "inconclusive"
    reason: str
    n_lo: Optional[int] = None
    bound: Optional[Fraction] = None
    expected_length: Optional[Fraction] = None
    termination_prob: Optional[Fraction] = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def check_foster(
    t: Term,
    eps,
    fuel: int = 10_000,
    state_cap: int = DEFAULT_STATE_CAP,
) -> FosterReport:
    """Check exact expected length <= N_LO/eps for one term and one eps."""
    from .strategies import InvalidEpsilon

    eps = Fraction(eps)
    if eps == 0:
        raise InvalidEpsilon("the bound requires eps > 0")
    count = n_steps(t, "lo", fuel)
    if not count.finite:
        return FosterReport(t, eps, "inconclusive", f"LO did not finish in {fuel} steps")
    bound = Fraction(count.steps) / eps
    try:
        chain = analyze(t, Strategy.peps(eps), state_cap)
    except StateCapExceeded as exc:
        return FosterReport(
            t, eps, "inconclusive", f"state cap hit ({exc.discovered} states)",
            n_lo=count.steps, bound=bound,
        )
    assert chain.termination_prob is not None
    if chain.expected_length is None:
        return FosterReport(
            t, eps, "violated", "termination probability below 1",
            n_lo=count.steps, bound=bound,
            termination_prob=chain.termination_prob,
        )
    status = "holds" if chain.expected_length <= bound else "violated"
    reason = (
        "equality" if chain.expected_length == bound else
        f"{chain.expected_length} <= {bound}" if status == "holds" else
        f"{chain.expected_length} > {bound}"
    )
    return FosterReport(
        t, eps, status, reason,
        n_lo=count.steps, bound=bound,
        expected_length=chain.expected_length,
        termination_prob=chain.termination_prob,
    )
