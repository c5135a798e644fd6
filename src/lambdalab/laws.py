"""Executable law suite: each quantitative reduction fact is bound to a
corpus check that either passes, produces a replayable counterexample, or
reports itself inconclusive when an enumeration cap was hit.

Brute-force oracles work on the alpha-class reduction graph: breadth-first
closure of a StateGraph under all one-step reducts (or all argument-normal
reducts), with explicit state caps so blow-ups surface as inconclusive
counts instead of hangs.  Each law is a per-term check on class ids, and
one verdict loop, _check, runs it over a corpus on one shared StateGraph.
A law never passes vacuously because of a cap: cap hits and exhausted fuel
are reported separately from passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Optional

from .pars import StateCapExceeded, StateGraph, grid_expected_lengths, iter_sccs
from .strategies import StepCount
from .terms import (
    SubCalculus,
    Term,
    canonical_free_vars,
    canonical_size,
    classify,
    classify_canonical,
    ensure_recursion_headroom,
    mk_Cn,
    mk_example1,
    mk_example2,
    mk_I,
    mk_Mn,
    mk_omega,
    mk_Omega,
    random_term,
    reduce_at,
    reducts_canonical,
    render,
)

DEFAULT_GRID = (
    Fraction(1, 10),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(9, 10),
    Fraction(1),
)
GRID_WITH_ZERO = (Fraction(0),) + DEFAULT_GRID

DEFAULT_CORPUS_SEED = 20_240_817
DEFAULT_CORPUS_SIZE_CAP = 12
DEFAULT_CORPUS_COUNT = 200
DEFAULT_WN_FUEL = 500
DEFAULT_GRAPH_CAP = 600
WN_SIZE_GUARD = 4_000  # largest LO reduct lo_normalizes admits, in nodes
LAMBDA_I_TAGS = (SubCalculus.LAMBDA_I, SubCalculus.BOTH)
LAMBDA_A_TAGS = (SubCalculus.LAMBDA_A, SubCalculus.BOTH)


@dataclass(frozen=True)
class CorpusTerm:
    term_id: str
    term: Term
    seed: Optional[int] = None


@dataclass
class LawReport:
    """Outcome of one law over one corpus."""

    law_id: str
    corpus: str
    cases_run: int = 0
    cases_passed: int = 0
    inconclusive: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "law": self.law_id,
            "corpus": self.corpus,
            "cases_run": self.cases_run,
            "cases_passed": self.cases_passed,
            "inconclusive": self.inconclusive,
            "counterexamples": self.counterexamples,
        }

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.law_id:<24} {status:<5} run={self.cases_run:<5}"
            f" passed={self.cases_passed:<5} inconclusive={self.inconclusive:<4}"
            f" counterexamples={len(self.counterexamples)}"
        )


class _Inconclusive(Exception):
    """A check ran out of fuel before it could decide."""


Check = Callable[[StateGraph, Term], Optional[str]]  # None on pass, else the detail


def _check(report: LawReport, corpus: list[CorpusTerm], check: Check) -> LawReport:
    """Run check on every corpus term and record its verdict in report: a
    pass, a counterexample, or an inconclusive case when the check hit a
    state cap or ran out of fuel.  check gets the run's one StateGraph and
    the term; a check that works on class ids interns the term into the
    graph itself, and one that never reads the graph leaves it alone."""
    graph = StateGraph()
    for entry in corpus:
        report.cases_run += 1
        try:
            detail = check(graph, entry.term)
        except (StateCapExceeded, _Inconclusive):
            report.inconclusive += 1
            continue
        if detail is None:
            report.cases_passed += 1
        else:
            report.counterexamples.append(
                {
                    "term_id": entry.term_id,
                    "term": render(entry.term),
                    "seed": entry.seed,
                    "detail": detail,
                }
            )
    return report


# ---------------------------------------------------------------------------
# corpora


def anchor_corpus() -> list[CorpusTerm]:
    """The fixed anchor terms: named combinators plus both example families."""
    return (
        [
            CorpusTerm("I", mk_I()),
            CorpusTerm("omega", mk_omega()),
            CorpusTerm("Omega", mk_Omega()),
            CorpusTerm("example1", mk_example1()),
            CorpusTerm("example2", mk_example2()),
        ]
        + [CorpusTerm(f"Cn:{n}", mk_Cn(n)) for n in range(1, 6)]
        + [CorpusTerm(f"Mn:{n}", mk_Mn(n)) for n in range(1, 6)]
    )


def lo_normalizes(t: Term, fuel: int) -> Optional[int]:
    """LO step count to normal form, counted on canonical forms, or None if
    fuel runs out or a reduct outgrows WN_SIZE_GUARD first.  Sound as a
    weak-normalization certificate: only terms whose LO reduction
    demonstrably finishes are admitted."""
    graph = StateGraph()
    return _lo_steps(graph, graph.intern(t), fuel, WN_SIZE_GUARD)


def random_corpus(
    tag: SubCalculus,
    count: int = DEFAULT_CORPUS_COUNT,
    base_seed: int = DEFAULT_CORPUS_SEED,
    size_cap: int = DEFAULT_CORPUS_SIZE_CAP,
    require_wn_fuel: Optional[int] = None,
) -> list[CorpusTerm]:
    """Seeded random corpus; seeds scan upward from base_seed until count
    terms satisfy the filter (and the WN certificate, when requested)."""
    ensure_recursion_headroom()
    entries: list[CorpusTerm] = []
    seed = base_seed
    while len(entries) < count:
        if seed - base_seed > count * 200:
            raise RuntimeError(f"could not assemble {count} corpus terms for {tag}")
        t = random_term(seed, size_cap, tag)
        if require_wn_fuel is None or lo_normalizes(t, require_wn_fuel) is not None:
            entries.append(CorpusTerm(f"{tag.value}#{seed}", t, seed))
        seed += 1
    return entries


def default_corpora(
    base_seed: int = DEFAULT_CORPUS_SEED,
    size_cap: int = DEFAULT_CORPUS_SIZE_CAP,
    count: int = DEFAULT_CORPUS_COUNT,
) -> dict[str, list[CorpusTerm]]:
    """The default law corpora: anchor terms plus seeded random terms per
    sub-calculus (the lambda-I corpus is WN-certified by construction)."""
    return {
        "anchor": anchor_corpus(),
        "full": random_corpus(SubCalculus.FULL, count, base_seed, size_cap),
        "lambda-I": random_corpus(
            SubCalculus.LAMBDA_I, count, base_seed, size_cap, require_wn_fuel=DEFAULT_WN_FUEL
        ),
        "lambda-A": random_corpus(SubCalculus.LAMBDA_A, count, base_seed, size_cap),
    }


# ---------------------------------------------------------------------------
# reduction-graph oracles


Edges = Callable[[int], tuple]  # class id -> successor ids, e.g. StateGraph.beta


def _lo_steps(graph: StateGraph, i: int, fuel: int, guard: Optional[int] = None) -> Optional[int]:
    """LO steps from class i to its normal form, along the graph's cached
    LO successors, or None if fuel runs out first or, with a guard, a reduct
    has more than guard nodes."""
    for n in range(fuel + 1):
        if graph.is_normal(i):
            return n
        (i,) = graph.successors(i, 1)  # LO is eps 1
        if guard is not None and canonical_size(graph.forms[i]) > guard:
            return None
    return None


def _reduct(graph: StateGraph, i: int, t: Term, j: int) -> Term:
    """t's reduct in class j, named as a graph of t alone would: t itself
    for a self-loop, else t contracted at the first reducts_canonical path to j."""
    if j == i:
        return t
    return reduce_at(t, next(p for c, p in reducts_canonical(graph.forms[i]) if graph.ids[c] == j))


def _adjacency(order: list, edges: Edges) -> list[list[int]]:
    """The graph on order with each id replaced by its position in order."""
    position = {c: i for i, c in enumerate(order)}
    return [[position[u] for u in edges(c)] for c in order]


def _acyclic(order: list, edges: Edges) -> bool:
    """Whether the graph on order has no cycle: every strongly connected
    component is a single state without a self-loop."""
    successors = _adjacency(order, edges)
    return all(
        len(component) == 1 and component[0] not in successors[component[0]]
        for component in iter_sccs(successors)
    )


def _unique_length_to_nf(order: list, edges: Edges) -> tuple[str, Optional[int], str]:
    """Path length from order[0] to normal form when it is unique.

    Returns ("ok", length, "") with length None when no normal form is
    reachable, ("cycle", None, detail) when a cycle lies on a normalizing
    path, or ("mismatch", None, detail) when two paths from one state reach
    normal form with different lengths.  A cycle is reported ahead of a
    mismatch.
    """
    successors = _adjacency(order, edges)
    lengths: dict[int, int] = {}  # states that reach a normal form
    mismatch = None
    for component in iter_sccs(successors):  # successors first
        v = component[0]
        reach = {1 + lengths[u] for w in component for u in successors[w] if u in lengths}
        if successors[v] and not reach:
            continue  # no normal form is reachable from here
        if len(component) > 1 or v in successors[v]:
            return "cycle", None, "a cycle lies on a path to normal form"
        if len(reach) > 1 and mismatch is None:
            mismatch = f"path lengths {sorted(reach)} from one state"
        lengths[v] = min(reach, default=0)
    if mismatch is not None:
        return "mismatch", None, mismatch
    return "ok", lengths.get(0), ""


def _shortest_to_nf(order: list, edges: Edges) -> Optional[int]:
    """Fewest steps from order[0] to a normal form, None when none is
    reachable; order is the breadth-first closure, so depths only grow."""
    depth = {order[0]: 0}
    for c in order:
        if not edges(c):
            return depth[c]
        for u in edges(c):
            depth.setdefault(u, depth[c] + 1)
    return None


# ---------------------------------------------------------------------------
# the laws


def law_lo_monotone(corpus: list[CorpusTerm], corpus_desc: str = "corpus") -> LawReport:
    """One-step reducts never increase the LO derivation length.

    Checked for every fuel-verified weakly normalizing corpus term against
    every one-step reduct (any redex, not just strategy redexes); a reduct
    whose LO reduction runs out of fuel is a counterexample.
    """

    def check(graph: StateGraph, t: Term) -> Optional[str]:
        i = graph.intern(t)
        steps = _lo_steps(graph, i, DEFAULT_WN_FUEL)
        if steps is None:
            raise _Inconclusive
        for j in graph.beta(i):
            n = _lo_steps(graph, j, DEFAULT_WN_FUEL)
            if n is None or n > steps:
                count = StepCount.exhausted(DEFAULT_WN_FUEL) if n is None else n
                return f"reduct {render(_reduct(graph, i, t, j))} has N_LO {count} > {steps}"
        return None

    return _check(LawReport("lo_monotone", corpus_desc), corpus, check)


def law_anf_equal_length(corpus: list[CorpusTerm], corpus_desc: str = "corpus") -> LawReport:
    """Conjecture: all maximal argument-normal reduction sequences from a
    term to its normal form have the same length.

    It is false.  Argument-normal reduction has no diamond property:
    substituting a normal argument into a variable-headed application such
    as ``v0 c`` can create a redex, which makes another redex's argument
    non-normal again.  The default corpora are too small to show it, but
    ``(\\v0.(\\v1.c) (v0 c)) ((\\v2.v2) (\\v3.v3))`` has such paths of
    lengths 2 and 3, and ``(\\v0.(\\v1.v1 v1 v1) (v0 v0)) (\\v2.v2)`` of
    lengths 5 and 7, and each is reported as a counterexample.
    """

    def check(graph: StateGraph, t: Term) -> Optional[str]:
        order = graph.closure(graph.intern(t), graph.anf, DEFAULT_GRAPH_CAP)
        status, _, detail = _unique_length_to_nf(order, graph.anf)
        return None if status == "ok" else detail

    return _check(LawReport("anf_equal_length", corpus_desc), corpus, check)


def law_subcalculus_stability(corpora: dict[str, list[CorpusTerm]]) -> LawReport:
    """Closure of the binder-occurrence sub-calculi under reduction.

    lambda-I terms stay lambda-I with unchanged free variables; lambda-A
    terms stay lambda-A and are strongly normalizing (their full reduction
    graph is finite and acyclic under the cap).
    """

    def check_lambda_i(graph: StateGraph, t: Term) -> Optional[str]:
        i = graph.intern(t)
        if classify_canonical(graph.forms[i]) not in LAMBDA_I_TAGS:
            return "corpus term is not lambda-I"
        fv = canonical_free_vars(graph.forms[i])
        for j in graph.beta(i):
            if classify_canonical(graph.forms[j]) not in LAMBDA_I_TAGS:
                return f"reduct {render(_reduct(graph, i, t, j))} left lambda-I"
            if canonical_free_vars(graph.forms[j]) != fv:
                return f"reduct {render(_reduct(graph, i, t, j))} changed free variables"
        return None

    def check_lambda_a(graph: StateGraph, t: Term) -> Optional[str]:
        i = graph.intern(t)
        if classify_canonical(graph.forms[i]) not in LAMBDA_A_TAGS:
            return "corpus term is not lambda-A"
        for j in graph.beta(i):
            if classify_canonical(graph.forms[j]) not in LAMBDA_A_TAGS:
                return f"reduct {render(_reduct(graph, i, t, j))} left lambda-A"
        if not _acyclic(graph.closure(i, graph.beta, DEFAULT_GRAPH_CAP), graph.beta):
            return "reduction graph has a cycle (not SN)"
        return None

    report = LawReport("subcalculus_stability", "lambda-I and lambda-A corpora")
    _check(report, corpora.get("lambda-I", []), check_lambda_i)
    return _check(report, corpora.get("lambda-A", []), check_lambda_a)


def law_lambdaA_lo_optimal(
    corpus: list[CorpusTerm], corpus_desc: str = "lambda-A corpus"
) -> LawReport:
    """On lambda-A terms no reduction sequence to normal form is shorter
    than the LO one (exhaustive shortest path against N_LO)."""

    def check(graph: StateGraph, t: Term) -> Optional[str]:
        i = graph.intern(t)
        steps = _lo_steps(graph, i, DEFAULT_WN_FUEL)
        if steps is None:
            raise _Inconclusive
        shortest = _shortest_to_nf(graph.closure(i, graph.beta, DEFAULT_GRAPH_CAP), graph.beta)
        if shortest is None:
            return "no reduction sequence reaches normal form"
        if steps > shortest:
            return f"N_LO {steps} > shortest sequence {shortest}"
        return None

    return _check(LawReport("lambdaA_lo_optimal", corpus_desc), corpus, check)


def law_lambdaI_anf_optimal(
    corpus: list[CorpusTerm], corpus_desc: str = "lambda-I WN corpus"
) -> LawReport:
    """On weakly normalizing lambda-I terms every argument-normal reduction
    to normal form has one length, and it is minimal among all reduction
    sequences.

    Uniqueness is checked, not assumed: a term with two argument-normal
    paths of different lengths, such as
    ``(\\v0.(\\v1.v1 v1 v1) (v0 v0)) (\\v2.v2)`` (lengths 5 and 7), is
    reported as a counterexample.  Both closures are built before the term
    is judged, so a cap hit on the full one leaves it inconclusive.
    """

    def check(graph: StateGraph, t: Term) -> Optional[str]:
        i = graph.intern(t)
        anf_order = graph.closure(i, graph.anf, DEFAULT_GRAPH_CAP)
        full_order = graph.closure(i, graph.beta, DEFAULT_GRAPH_CAP)
        status, anf_len, detail = _unique_length_to_nf(anf_order, graph.anf)
        if status != "ok":
            return f"argument-normal lengths not unique: {detail}"
        if anf_len is None:
            return "argument-normal reduction reaches no normal form"
        shortest = _shortest_to_nf(full_order, graph.beta)
        if shortest is None:
            return "no reduction sequence reaches normal form"
        if anf_len > shortest:
            return f"argument-normal length {anf_len} > shortest sequence {shortest}"
        return None

    return _check(LawReport("lambdaI_anf_optimal", corpus_desc), corpus, check)


def law_eps_minimum(
    corpus: list[CorpusTerm],
    minimum_at: Fraction,
    corpus_desc: str = "corpus",
    grid=GRID_WITH_ZERO,
    solve=None,
) -> LawReport:
    """The expected derivation length over the eps grid attains its minimum
    at the stated endpoint (1 for lambda-A corpora, 0 for lambda-I ones).
    solve, when given, stands for grid_expected_lengths over grid.  Raises
    ValueError when minimum_at is not a point of grid."""
    minimum_at = Fraction(minimum_at)
    if minimum_at not in map(Fraction, grid):
        raise ValueError(f"eps={minimum_at} is not a point of the grid")
    solve = solve or partial(grid_expected_lengths, grid=grid)

    def check(graph: StateGraph, t: Term) -> Optional[str]:
        expected = {eps: e for eps, (_, e) in solve(t).items()}
        if any(e is None for e in expected.values()):
            divergent = ", ".join(str(eps) for eps in sorted(expected) if expected[eps] is None)
            return f"no finite expected length at eps in {{{divergent}}}"
        best = min(expected.values())
        if expected[minimum_at] != best:
            table = ", ".join(f"{eps}: {expected[eps]}" for eps in sorted(expected))
            return f"minimum {best} not attained at eps={minimum_at} ({table})"
        return None

    return _check(LawReport(f"eps_minimum_at_{minimum_at}", corpus_desc), corpus, check)


def law_foster(corpus: list[CorpusTerm], corpus_desc: str = "corpus", solve=None) -> LawReport:
    """Expected length <= N_LO/eps on every fuel-verified WN corpus term
    for every eps of DEFAULT_GRID (all of them positive).  solve, when
    given, stands for grid_expected_lengths over a grid holding DEFAULT_GRID."""
    solve = solve or partial(grid_expected_lengths, grid=DEFAULT_GRID)

    def check(graph: StateGraph, t: Term) -> Optional[str]:
        n_lo = _lo_steps(graph, graph.intern(t), DEFAULT_WN_FUEL, WN_SIZE_GUARD)
        if n_lo is None:
            raise _Inconclusive
        solved = solve(t)
        for eps in DEFAULT_GRID:
            termination, expected = solved[eps]
            bound = Fraction(n_lo) / eps
            if expected is None:
                return f"eps={eps}: termination probability {termination} < 1"
            if expected > bound:
                return f"eps={eps}: expected {expected} > bound {bound}"
        return None

    return _check(LawReport("foster_bound", corpus_desc), corpus, check)


# ---------------------------------------------------------------------------
# suite driver


LAW_IDS = (
    "lo_monotone",
    "anf_equal_length",
    "subcalculus_stability",
    "lambdaA_lo_optimal",
    "lambdaI_anf_optimal",
    "eps_minimum",
    "foster",
)

# "core" is the enumeration-backed part of the suite, without the chain
# solves that the eps_minimum and foster laws add on top.
CORE_LAWS = LAW_IDS[:5]


def run_suite(
    suite: str = "all",
    base_seed: int = DEFAULT_CORPUS_SEED,
    size_cap: int = DEFAULT_CORPUS_SIZE_CAP,
    count: int = DEFAULT_CORPUS_COUNT,
    corpora: Optional[dict] = None,
) -> list[LawReport]:
    """Run one law (by id), the "core" five, or all of them.

    Corpora may be passed in to avoid rebuilding them across calls; by
    default the seeded default corpora are assembled fresh.
    """
    ensure_recursion_headroom()
    if suite != "all" and suite != "core" and suite not in LAW_IDS:
        raise ValueError(f"unknown law suite {suite!r} (want one of {LAW_IDS}, core or all)")
    wanted = LAW_IDS if suite == "all" else CORE_LAWS if suite == "core" else (suite,)
    if corpora is None:
        corpora = default_corpora(base_seed, size_cap, count)
    anchor = corpora["anchor"]
    mixed = anchor + corpora["full"] + corpora["lambda-I"] + corpora["lambda-A"]
    mixed_desc = f"anchor + 3x{count} random terms (size<={size_cap}, seed {base_seed})"
    lambda_i = [e for e in anchor if classify(e.term) in LAMBDA_I_TAGS] + corpora["lambda-I"]
    lambda_a = [e for e in anchor if classify(e.term) in LAMBDA_A_TAGS] + corpora["lambda-A"]
    wn_lambda_i = [e for e in lambda_i if lo_normalizes(e.term, DEFAULT_WN_FUEL) is not None]

    solve = cache(partial(grid_expected_lengths, grid=GRID_WITH_ZERO))  # once per term
    reports = []
    if "lo_monotone" in wanted:
        reports.append(law_lo_monotone(mixed, mixed_desc))
    if "anf_equal_length" in wanted:
        reports.append(law_anf_equal_length(mixed, mixed_desc))
    if "subcalculus_stability" in wanted:
        reports.append(law_subcalculus_stability({"lambda-I": lambda_i, "lambda-A": lambda_a}))
    if "lambdaA_lo_optimal" in wanted:
        reports.append(law_lambdaA_lo_optimal(lambda_a, "lambda-A corpus"))
    if "lambdaI_anf_optimal" in wanted:
        reports.append(law_lambdaI_anf_optimal(wn_lambda_i, "lambda-I WN corpus"))
    if "eps_minimum" in wanted:
        reports.append(law_eps_minimum(lambda_a, 1, "lambda-A corpus", solve=solve))
        reports.append(law_eps_minimum(wn_lambda_i, 0, "lambda-I WN corpus", solve=solve))
    if "foster" in wanted:
        reports.append(law_foster(mixed, mixed_desc, solve))
    return reports
