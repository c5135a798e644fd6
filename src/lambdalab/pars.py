"""Probabilistic reduction semantics over exact rationals, on one state graph.

A StateGraph interns alpha-classes to int ids and computes each class's
LO- and RI-successors once, by contracting its canonical form directly;
the eps-mixture's row from a class reweights those two.  A named
representative is built only when asked for, by contracting its parent's
at the path that the canonical step went down.
Each call below builds one graph and runs every eps it needs over it:

* configuration evolution — a partial distribution over the reducible
  alpha-classes is pushed one step at a time; normal forms absorb, so the
  mass that a step sends to one leaves the configuration at that step, and
  |rho_k| is the probability that a run takes k steps or more.  A row
  weighs its targets by eps, 1 - eps or 1, so evolve_trace carries integer
  masses over a power of d = eps.denominator and keeps a table of those
  powers.  A splitting step weighs everything that steps by d in all, so
  the mass it leaves is the stepped total over one power of d fewer; when
  the total's residue mod d is a unit that fraction is already in lowest
  terms and is built with no big division and no big gcd, which for a
  prime d is all but about one step in d;
* the reachable-state chain — breadth-first closure of the start class
  under the strategy's rows, with every normal form collapsed into a single
  absorbing class ``trm``, solved exactly for the absorption probability
  and the expected absorption time;
* the seeded samplers of montecarlo, and the law suite's reduction graphs
  under all one-step reducts or all argument-normal reducts.

Everything is computed in exact rational arithmetic.  The chain is solved
component by component: each strongly connected component is solved as
Tarjan's algorithm closes it, sinks first, a one-state component by one
integer division reduced by one gcd, and any larger one as a small linear
system eliminated over Fractions, so results are compared with closed
formulas for equality, not tolerance.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Optional

from .strategies import Strategy, exact_eps
from .terms import (
    CanonicalTerm,
    Term,
    canonicalize,
    contract_canonical,
    is_normal_canonical,
    is_normal_form,  # unused here: perfbench's tracer hooks pars.is_normal_form
    reduce_at,
    reducts_canonical,
    render,
)

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


def _sides(eps: Fraction) -> tuple:
    """The sides the eps-mixture contracts, LO (0) before RI (1): RI alone
    at eps 0, LO alone at eps 1, both otherwise."""
    return (1,) if eps == 0 else (0,) if eps == 1 else (0, 1)


class StateGraph:
    """Alpha-classes interned to int ids in discovery order.

    forms[i] is the canonical form of class i, and rep(i) its
    representative: the term interned for it, or for a class found by a
    step, its parent's representative contracted at the redex path of that
    step.  A class's LO- and RI-successors are found by contracting its
    canonical form, each side the first time it is asked for, so a chain at
    eps = 0 or 1 discovers only the classes it reaches and no reduct is
    canonicalised; representatives are built only when asked for.
    successors(i, eps) lists the ids the eps-mixture can step to, which is
    all a closure or a sampler needs; eps_row weighs them into rows, for
    the breadth-first search of explore_states and for chain_rows.
    All-beta and argument-normal successor ids, which the laws need, are
    found on demand the same way, by reducts_canonical on the canonical
    form, and a class they discover is named by its parent and path too.
    """

    def __init__(self) -> None:
        self.ids: dict[CanonicalTerm, int] = {}
        self.forms: list[CanonicalTerm] = []
        self._reps: list[Optional[Term]] = []  # None until rep() builds it
        self._parents: list = []  # (parent id, redex path) of a class found by a step
        self._successors: list = []  # None if normal, else [lo, ri] ids, None until found
        self._beta: dict[int, tuple] = {}
        self._anf: dict[int, tuple] = {}

    def _id(self, c: CanonicalTerm, rep: Optional[Term], parent) -> int:
        """The id of class c, hashing c once: a new class gets the next id,
        rep as its representative (None until rep() builds it) and parent,
        its (parent id, redex path) when a step found it."""
        i = self.ids.setdefault(c, len(self.forms))
        if i == len(self.forms):
            self.forms.append(c)
            self._reps.append(rep)
            self._parents.append(parent)
            self._successors.append(None if is_normal_canonical(c) else [None, None])
        return i

    def intern(self, t: Term) -> int:
        """The id of t's class; a new class gets the next id and t as its
        representative."""
        return self._id(canonicalize(t), t, None)

    def rep(self, i: int, memo: Optional[dict] = None) -> Term:
        """The representative term of class i.

        A parent has a smaller id than the classes it finds, so the missing
        representatives on the way down from the nearest built ancestor are
        built in id order, without recursion on the discovery depth.  With
        a render memo (see terms.render), the ancestor is rendered with it
        unless it was already, and each missing representative is built and
        named in one walk by reduce_at, so memo then holds the text of
        every node of the representative.
        """
        reps, parents = self._reps, self._parents
        missing = []
        j = i
        while reps[j] is None:
            missing.append(j)
            j = parents[j][0]
        if memo is not None and id(reps[j]) not in memo:
            render(reps[j], memo)
        for j in reversed(missing):
            parent, path = parents[j]
            reps[j] = reduce_at(reps[parent], path, memo)
        return reps[i]

    def is_normal(self, i: int) -> bool:
        return self._successors[i] is None

    def _successor(self, i: int, side: int) -> int:
        """Id of the LO- (side 0) or RI-successor (side 1) of reducible class i."""
        successors = self._successors[i]
        j = successors[side]
        if j is None:
            c, path = contract_canonical(self.forms[i], side == 1)
            j = successors[side] = self._id(c, None, (i, path))
        return j

    def successors(self, i: int, eps: Fraction) -> tuple:
        """Ids of the classes that reducible class i steps to under the
        eps-mixture, on the sides of _sides(eps), or one id when LO and RI
        coincide."""
        sides = _sides(eps)
        j = self._successor(i, sides[0])
        if len(sides) == 1:
            return (j,)
        ri = self._successor(i, 1)
        return (j,) if j == ri else (j, ri)

    def eps_row(self, eps: Fraction) -> Callable[[int], tuple]:
        """The eps-mixture's row function, with the sides picked once by
        _sides(eps): row(i) is ((successor id, probability), ...) from
        reducible class i, with every normal-form target collapsed into TRM:
        the one target with probability 1, else (LO, eps) then (RI, 1 - eps).
        Two targets stay distinct under the collapse: they come from two
        different redexes, and the RI step leaves the LO redex in place, so
        the RI target is never normal."""
        successors, step = self._successors, self._successor
        sides = _sides(eps)
        if len(sides) == 1:
            (side,) = sides

            def one_side(i: int) -> tuple:
                j = step(i, side)
                return ((TRM if successors[j] is None else j, _ONE),)

            return one_side
        rest = 1 - eps

        def both_sides(i: int) -> tuple:
            lo, ri = step(i, 0), step(i, 1)
            lo_target = TRM if successors[lo] is None else lo
            if lo == ri:
                return ((lo_target, _ONE),)
            return ((lo_target, eps), (TRM if successors[ri] is None else ri, rest))

        return both_sides

    def chain_rows(self, states: Iterable[int], eps: Fraction) -> dict:
        """The eps_row of each reducible class in states, keyed by its id."""
        row = self.eps_row(eps)
        return {i: row(i) for i in states}

    def beta(self, i: int) -> tuple:
        """Ids of all one-step reducts of class i, in redex order, each
        once."""
        if i not in self._beta:
            found = (self._id(c, None, (i, p)) for c, p in reducts_canonical(self.forms[i]))
            self._beta[i] = tuple(dict.fromkeys(found))
        return self._beta[i]

    def anf(self, i: int) -> tuple:
        """Ids of the reducts of class i through argument-normal redexes,
        in redex order, each once."""
        if i not in self._anf:
            found = (self._id(c, None, (i, p)) for c, p in reducts_canonical(self.forms[i], True))
            self._anf[i] = tuple(dict.fromkeys(found))
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
# evolution


@dataclass(frozen=True)
class EvolutionTrace:
    """The mass sequence |rho_0|, ..., |rho_H| of an iterated evolution.

    Every eps-row weighs its targets by eps, 1 - eps or 1, so a step's
    common denominator is 1 or d = eps.denominator, and the mass at step i
    is the integer N_i over d**s_i, where s_i counts the steps so far that
    split some mass two ways.  unreduced keeps those (N_i, s_i) pairs, base
    keeps d and powers the table powers[k] == d**k up to the last s_i, so
    the functions below can work in integers, read every denominator from
    the table and reduce each result once; none of the three takes part in
    equality.  Each of masses is in lowest terms, as Fraction(N_i, d**s_i)
    would be.
    """

    masses: tuple  # Fractions, length horizon + 1, masses[0] == 1
    unreduced: tuple = field(compare=False, repr=False)  # (N_i, s_i) per step
    base: int = field(compare=False, repr=False)  # d, eps's denominator
    powers: tuple = field(compare=False, repr=False)  # d**0, d**1, ..., d**s_H

    @property
    def horizon(self) -> int:
        return len(self.masses) - 1

    @property
    def trailing_mass(self) -> Fraction:
        return self.masses[-1]


if sys.version_info >= (3, 12):
    _coprime = Fraction._from_coprime_ints
else:

    def _coprime(n: int, den: int) -> Fraction:
        """n / den for coprime n and den >= 1, built with no gcd and no
        argument checks, as Fraction._from_coprime_ints builds it."""
        f = object.__new__(Fraction)
        f._numerator = n
        f._denominator = den
        return f


_REDUCE_ROUNDS = 3


def _reduced(n: int, s: int, d: int, powers) -> Fraction:
    """n / d**s in lowest terms, for a table with powers[k] == d**k: the
    one general reduction of this module, for any n.

    A mass of 0 or 1 is returned at once.  Otherwise whole factors of d
    come off n by divmod, each one stepping s down, and the denominator is
    read from the table, never divided.  What is left of n then shares a
    factor with d**s only if it shares one with d, a gcd of two small
    numbers that is 1 whenever d is prime.  A composite d can leave a
    proper factor of itself in n; rounds of gcds against d divide it out of
    n and the denominator, and after _REDUCE_ROUNDS of them Fraction's own
    gcd finishes the job.  evolve_trace calls it only on the steps whose
    stepped total is not prime to d.
    """
    if n == 0:
        return _ZERO
    if n == powers[s]:
        return _ONE
    while s:
        q, r = divmod(n, d)
        if r:
            break
        n, s = q, s - 1
    else:
        return _coprime(n, 1)
    den = powers[s]
    g = gcd(r, d)  # the gcd of n and d**s, as s >= 1
    for _ in range(_REDUCE_ROUNDS):
        if g == 1:
            return _coprime(n, den)
        n //= g
        den //= g
        g = gcd(n, d, den)
    return _coprime(n, den) if g == 1 else Fraction(n, den)


def evolve_trace(t: Term, strategy: Strategy, horizon: int) -> EvolutionTrace:
    """Masses of the Dirac-started evolution, recorded up to the horizon.

    Only reducible classes hold mass.  A class's row is compiled the first
    time it does: its successor ids less the normal forms, and whether it
    splits.  The masses are integer numerators over the running
    denominator d**s, d = eps.denominator: a step weighs a two-way row's
    targets by eps.numerator and d - eps.numerator and a one-way row's by
    d, and steps s up, when some current class splits, and moves every
    mass unweighted otherwise.  Mass that a row sends to a normal form is
    absorbed at that step and never stepped again.  One pass over the
    current classes sums the stepped total, applies the rows and notes
    whether any splits; the one-way rows' masses are weighed after it.
    The table of powers of d grows by one entry whenever s does.

    So the N_i of a splitting step is d times the total that stepped, and
    the step's mass is that total over d**(s - 1), or over d**s when no
    class split.  When the total's residue mod d is a unit, the total is
    prime to d and the mass is built in lowest terms at once, with no big
    division and no big gcd; only the other steps go through _reduced.
    Once every mass is absorbed, the rest of the trace is zeros and is not
    stepped.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    eps = strategy.eps
    a, d = eps.numerator, eps.denominator
    b = d - a
    graph = StateGraph()
    rows: dict[int, tuple] = {}  # (splits, live targets) of each class that held mass
    root = graph.intern(t)
    current: dict[int, int] = {} if graph.is_normal(root) else {root: 1}
    s = 0
    powers = [1]
    unreduced = [(1, 0)]
    masses = [_ONE]
    for _ in range(horizon):
        if not current:
            rest = horizon + 1 - len(masses)
            unreduced += [(0, s)] * rest
            masses += [_ZERO] * rest
            break
        nxt: dict[int, int] = {}
        one_way_masses = []  # (target, mass) of the one-way rows, weighed below
        total = 0
        split = False
        for i, m in current.items():
            row = rows.get(i)
            if row is None:  # a split row keeps (id, weight) pairs, a one-way row the id
                ids = graph.successors(i, eps)
                if len(ids) == 2:
                    live = zip(ids, (a, b))
                    row = (True, tuple((j, w) for j, w in live if not graph.is_normal(j)))
                else:
                    row = (False, tuple(j for j in ids if not graph.is_normal(j)))
                rows[i] = row
            total += m
            splits, targets = row
            if splits:
                split = True
                for j, w in targets:
                    nxt[j] = nxt.get(j, 0) + m * w
            elif targets:
                one_way_masses.append((targets[0], m))
        k = s  # the power of d under the stepped total
        one_way = d if split else 1
        if split:
            s += 1
            powers.append(powers[-1] * d)
        for j, m in one_way_masses:
            nxt[j] = nxt.get(j, 0) + m * one_way
        current = nxt
        unreduced.append((total * one_way, s))
        r = total % d
        if k == 0 or (r and gcd(r, d) == 1):
            masses.append(_coprime(total, powers[k]))
        else:
            masses.append(_reduced(total, k, d, powers))
    return EvolutionTrace(tuple(masses), tuple(unreduced), d, tuple(powers))


def derivation_length_dist(trace: EvolutionTrace) -> dict[int, Fraction]:
    """Pointwise mass drops: probability of terminating in exactly i steps.

    Zero entries are omitted; within the horizon the values sum, together
    with the trailing mass, to exactly 1.  Each drop is taken between the
    integer numerators over the later step's denominator d**s and reduced
    once.
    """
    if len(trace.masses) < 2:
        raise ValueError("trace needs at least two entries")
    d, powers = trace.base, trace.powers
    out: dict[int, Fraction] = {}
    for i, ((n, s), (n_next, s_next)) in enumerate(
        zip(trace.unreduced, trace.unreduced[1:])
    ):
        drop = n * powers[s_next - s] - n_next
        if drop:
            out[i] = _reduced(drop, s_next, d, powers)
    return out


def expected_length_truncated(trace: EvolutionTrace) -> Fraction:
    """Partial sum of the step masses: a lower bound on the expected length,
    exact whenever the trailing mass is zero.  The sum is taken over the
    last step's denominator d**s by a Horner pass, which scales the running
    numerator by d**(s_i - s_(i-1)) before adding N_i, and reduced once."""
    powers = trace.powers
    total, s = 0, 0
    for n, s_i in trace.unreduced[1:]:
        total = total * powers[s_i - s] + n
        s = s_i
    return _reduced(total, s, trace.base, powers)


# ---------------------------------------------------------------------------
# reachable-state chain


@dataclass(frozen=True)
class ChainAnalysis:
    """Reachable-state chain of a term under a strategy, keyed by the class
    ids of the StateGraph it was explored on, plus solved hitting-time
    quantities.

    origin is the id of the term's class and states the ids of the
    non-absorbing classes in BFS discovery order (empty iff the origin is
    normal).  Every normal form is identified with the single absorbing
    class TRM, which self-loops with probability 1; rows map each state to
    its exact outgoing distribution ((id | TRM, probability), ...).
    termination_prob and expected_length are None until solved; then
    termination_prob is the absorption probability from the origin, and
    expected_length the exact expected absorption time, or None (infinite,
    "inf" in reports) exactly when that probability is below 1.
    """

    graph: StateGraph = field(compare=False, repr=False)
    origin: int
    strategy_name: str
    states: tuple  # ids, BFS order
    rows: dict  # id -> ((id | TRM, Fraction), ...)
    solved: bool = False
    termination_prob: Optional[Fraction] = None
    expected_length: Optional[Fraction] = None

    def rep(self, i: int) -> Term:
        """The representative term of class i, built on first use."""
        return self.graph.rep(i)

    def to_report(self) -> dict:
        """JSON-ready report: rendered states, num/den transition triples.

        Every state is named with one render memo: in discovery order each
        representative is built from its parent's and rendered in the same
        walk (StateGraph.rep), so a state's text is read from the memo, and
        the graph keeps every representative alive while the memo is in
        use.  Each distinct weight's num/den text is formatted once.
        """
        graph, memo = self.graph, {}
        index = {i: n for n, i in enumerate(self.states)}
        probs: dict = {}  # id of a weight -> its "num/den"; a row holds at most three
        transitions = []
        for n, i in enumerate(self.states):
            for target, p in self.rows[i]:
                prob = probs.get(id(p))
                if prob is None:
                    prob = probs[id(p)] = f"{p.numerator}/{p.denominator}"
                # every target but TRM is a state
                transitions.append({"from": n, "to": index.get(target, TRM), "prob": prob})
        report = {
            "origin": render(graph.rep(self.origin), memo),
            "strategy": self.strategy_name,
            # a state is reducible, never a variable, so its text is in memo
            "states": [memo[id(graph.rep(i, memo))] for i in self.states],
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
    """Breadth-first closure of t under the strategy's supports, each
    state's row built by eps_row as the search visits it.

    Raises StateCapExceeded when more than state_cap distinct non-absorbing
    alpha-classes are discovered, so non-closure is an explicit result
    rather than a hang.
    """
    if state_cap < 1:
        raise ValueError("state_cap must be >= 1")
    graph = StateGraph()
    root = graph.intern(t)
    rows: dict = {}
    states = []
    if not graph.is_normal(root):
        row = graph.eps_row(strategy.eps)
        states = graph.closure(
            root, lambda i: [j for j, _ in rows.setdefault(i, row(i)) if j != TRM], state_cap
        )
    return ChainAnalysis(graph, root, strategy.name, tuple(states), rows)


def iter_sccs(successors: list) -> Iterator[list[int]]:
    """Strongly connected components of the graph on 0 .. n-1 whose edges
    run from i to each id in successors[i], by Tarjan's algorithm (Tarjan
    1972) on an explicit work stack.  Each component is yielded as it
    closes, after every component it has an edge into, so sinks come
    first."""
    n = len(successors)
    index = [-1] * n  # discovery number; -1 before it, n once in a component
    low = [0] * n
    edges = [iter(out) for out in successors]
    stack: list[int] = []
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
                if index[w] < low[v]:
                    low[v] = index[w]
            else:  # every edge of v is done
                work.pop()
                if work and low[v] < low[work[-1]]:
                    low[work[-1]] = low[v]
                if low[v] == index[v]:
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    for w in component:
                        index[w] = n
                    yield component


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
    states: tuple, rows: dict, origin: int
) -> tuple[Fraction, Optional[Fraction]]:
    """Absorption probability at TRM from origin and, when it is 1, the
    exact expected absorption time (None otherwise), both as Fractions in
    lowest terms.

    Strongly connected components are solved as iter_sccs yields them,
    sinks first, with TRM as one more node without edges.  On one, the
    absorption probability is 0 if it is 0 wherever an edge leaves the
    component (or none leaves), 1 if it is 1 there, and below 1 throughout
    otherwise; one exact system, fed by the values solved downstream, then
    gives the expected time in the second case, the probability in the third.
    Probabilities are kept as the ints 0 and 1 where they are exact, and
    as Fractions only where they are partial; expected times as
    (numerator, denominator) pairs in lowest terms.  Each distinct weight's
    numerator and denominator are read once; a row holds at most three.
    A one-state component's system is the single equation x = b + loop x,
    with loop the weight of its self-loop, so it is solved as
    x = b / (1 - loop) without elimination, in integers reduced by one gcd.
    Larger components that reach TRM do occur: the RI-successors of
    (\\w.c) ((\\x.x x) (\\y.y (\\z.y z))) alternate between two classes
    that every LO step leaves for a normal form, so for 0 < eps < 1 its
    chain has a 2-state component, solved by elimination over Fractions,
    and E = 1/eps.
    """
    if not states:
        return Fraction(1), Fraction(0)  # the origin itself is normal
    n = len(states)
    index = dict(zip(states, range(n)))
    index[TRM] = n  # node n has no edges: absorbed with probability 1 in 0 steps
    out = [rows[i] for i in states]
    targets = [[index[target] for target, _ in row] for row in out] + [[]]
    ratios: dict = {}  # id of a weight -> (numerator, denominator)
    h: list = [None] * n + [1]  # absorption probability: 0, 1 or a partial Fraction
    k: list = [None] * n + [(0, 1)]  # expected absorption time where h == 1, as a pair
    for component in iter_sccs(targets):
        if component[0] == n:
            continue  # TRM, solved in advance
        # one state is its own membership test; a larger component maps states to rows
        pos = component if len(component) == 1 else {i: r for r, i in enumerate(component)}
        exits = [h[j] for i in component for j in targets[i] if j not in pos]
        if exits.count(0) == len(exits):  # no exit reaches TRM, or none leaves
            for i in component:
                h[i] = 0
            continue
        sure = exits.count(1) == len(exits)
        if len(component) == 1:
            (i,) = component
            num, den, rest, whole = int(sure), 1, 1, 1  # b = num/den, 1 - loop = rest/whole
            for j, (_, p) in zip(targets[i], out[i]):
                ratio = ratios.get(id(p))
                if ratio is None:
                    ratio = ratios[id(p)] = (p.numerator, p.denominator)
                pn, pd = ratio
                if j == i:
                    rest, whole = pd - pn, pd
                else:
                    xn, xd = k[j] if sure else (h[j].numerator, h[j].denominator)
                    scale = pd * xd
                    num = num * scale + den * pn * xn
                    den *= scale
            num, den = num * whole, den * rest
            g = gcd(num, den)
            if sure:
                h[i], k[i] = 1, (num // g, den // g)
            else:
                h[i] = _coprime(num // g, den // g)
            continue
        matrix = [[0] * len(component) for _ in component]
        rhs = []
        for r, i in enumerate(component):
            matrix[r][r] = 1
            b = _ONE if sure else _ZERO
            for j, (_, p) in zip(targets[i], out[i]):
                if j in pos:
                    matrix[r][pos[j]] -= p
                else:
                    b += p * (_coprime(*k[j]) if sure else h[j])
            rhs.append(b)
        for i, x in zip(component, _solve_linear(matrix, rhs)):
            h[i], k[i] = (1, (x.numerator, x.denominator)) if sure else (x, None)
    termination = h[index[origin]]
    if termination == 1:
        return _ONE, _coprime(*k[index[origin]])
    return (_ZERO if termination == 0 else termination), None


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


# ---------------------------------------------------------------------------
# epsilon grids


def grid_expected_lengths(
    t: Term, grid, state_cap: int = DEFAULT_STATE_CAP
) -> dict[Fraction, tuple[Fraction, Optional[Fraction]]]:
    """(termination probability, expected length) of the LO/RI mixture for
    every eps in the grid.

    The classes reachable through LO or RI steps are explored once, as the
    chain at eps = 1/2, which takes both, and their rows reweighted per
    eps; the values agree exactly with
    analyze(t, Strategy.peps(eps)) for each grid point (extra states
    reachable only under other eps values cannot influence the origin's
    hitting quantities).
    """
    chain = explore_states(t, Strategy.peps(Fraction(1, 2)), state_cap)
    graph, states = chain.graph, chain.states
    return {
        eps: _solve_rows(states, graph.chain_rows(states, eps), chain.origin)
        for eps in map(exact_eps, grid)
    }
