"""Executable law suite: each quantitative reduction fact is bound to a
corpus check that either passes, produces a replayable counterexample, or
reports itself inconclusive when an enumeration cap was hit.

Brute-force oracles work on the alpha-class reduction graph: breadth-first
closure of a StateGraph under all one-step reducts (or all argument-normal
reducts), with explicit state caps so blow-ups surface as inconclusive
counts instead of hangs.  A law never passes vacuously because of a cap:
cap hits are reported separately from passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .pars import StateCapExceeded, StateGraph, grid_expected_lengths, sccs
from .strategies import beta_successors, n_steps
from .terms import (
    SubCalculus,
    Term,
    ensure_recursion_headroom,
    free_vars,
    is_lambda_A,
    is_lambda_I,
    mk_Cn,
    mk_example1,
    mk_example2,
    mk_I,
    mk_Mn,
    mk_omega,
    mk_Omega,
    random_term,
    redexes,
    reduce_at,
    render,
    term_size,
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
_WN_SIZE_GUARD = 4_000


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

    def record_pass(self) -> None:
        self.cases_run += 1
        self.cases_passed += 1

    def record_inconclusive(self) -> None:
        self.cases_run += 1
        self.inconclusive += 1

    def record_failure(self, entry: CorpusTerm, detail: str) -> None:
        self.cases_run += 1
        self.counterexamples.append(
            {
                "term_id": entry.term_id,
                "term": render(entry.term),
                "seed": entry.seed,
                "detail": detail,
            }
        )

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


# ---------------------------------------------------------------------------
# corpora


def anchor_corpus(max_n: int = 5) -> list[CorpusTerm]:
    """The fixed anchor terms: named combinators plus both example families."""
    entries = [
        CorpusTerm("I", mk_I()),
        CorpusTerm("omega", mk_omega()),
        CorpusTerm("Omega", mk_Omega()),
        CorpusTerm("example1", mk_example1()),
        CorpusTerm("example2", mk_example2()),
    ]
    for n in range(1, max_n + 1):
        entries.append(CorpusTerm(f"Cn:{n}", mk_Cn(n)))
    for n in range(1, max_n + 1):
        entries.append(CorpusTerm(f"Mn:{n}", mk_Mn(n)))
    return entries


def lo_normalizes(t: Term, fuel: int, size_guard: int = _WN_SIZE_GUARD) -> Optional[int]:
    """LO step count to normal form, or None if fuel or the size guard runs
    out first.  Sound as a weak-normalization certificate: only terms whose
    LO reduction demonstrably finishes are admitted."""
    from .strategies import step_lo

    current = t
    for n in range(fuel + 1):
        nxt = step_lo(current)
        if nxt is None:
            return n
        if term_size(nxt) > size_guard:
            return None
        current = nxt
    return None


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
    scanned = 0
    while len(entries) < count:
        if scanned > count * 200:
            raise RuntimeError(f"could not assemble {count} corpus terms for {tag}")
        t = random_term(seed, size_cap, tag)
        ok = require_wn_fuel is None or lo_normalizes(t, require_wn_fuel) is not None
        if ok:
            entries.append(CorpusTerm(f"{tag.value}#{seed}", t, seed))
        seed += 1
        scanned += 1
    return entries


def default_corpora(
    base_seed: int = DEFAULT_CORPUS_SEED,
    size_cap: int = DEFAULT_CORPUS_SIZE_CAP,
    count: int = DEFAULT_CORPUS_COUNT,
    wn_fuel: int = DEFAULT_WN_FUEL,
) -> dict[str, list[CorpusTerm]]:
    """The default law corpora: anchor terms plus seeded random terms per
    sub-calculus (the lambda-I corpus is WN-certified by construction)."""
    return {
        "anchor": anchor_corpus(),
        "full": random_corpus(SubCalculus.FULL, count, base_seed, size_cap),
        "lambda-I": random_corpus(
            SubCalculus.LAMBDA_I, count, base_seed, size_cap, require_wn_fuel=wn_fuel
        ),
        "lambda-A": random_corpus(SubCalculus.LAMBDA_A, count, base_seed, size_cap),
    }


# ---------------------------------------------------------------------------
# reduction-graph oracles


Edges = Callable[[int], tuple]  # class id -> successor ids, e.g. StateGraph.beta


def _closure(graph: StateGraph, t: Term, edges: Edges, state_cap: int) -> Optional[list]:
    """Class ids reachable from t under edges in breadth-first order, or
    None when more than state_cap classes were discovered."""
    try:
        return graph.closure(graph.intern(t), edges, state_cap)
    except StateCapExceeded:
        return None


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
        for component in sccs(successors)
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
    for component in sccs(successors):  # successors first
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


def law_lo_monotone(
    corpus: list[CorpusTerm],
    corpus_desc: str = "corpus",
    fuel: int = DEFAULT_WN_FUEL,
) -> LawReport:
    """One-step reducts never increase the LO derivation length.

    Checked for every fuel-verified weakly normalizing corpus term against
    every one-step reduct (any redex, not just strategy redexes).
    """
    report = LawReport("lo_monotone", corpus_desc)
    for entry in corpus:
        count = n_steps(entry.term, "lo", fuel)
        if not count.finite:
            report.record_inconclusive()
            continue
        ok = True
        for p in redexes(entry.term):
            u = reduce_at(entry.term, p)
            reduct_count = n_steps(u, "lo", fuel)
            if not reduct_count.finite or reduct_count.steps > count.steps:
                report.record_failure(
                    entry,
                    f"reduct {render(u)} has N_LO "
                    f"{reduct_count} > {count.steps}",
                )
                ok = False
                break
        if ok:
            report.record_pass()
    return report


def law_anf_equal_length(
    corpus: list[CorpusTerm],
    corpus_desc: str = "corpus",
    graph_cap: int = DEFAULT_GRAPH_CAP,
) -> LawReport:
    """All maximal argument-normal reduction sequences from a term to its
    normal form have the same length (diamond property consequence)."""
    report = LawReport("anf_equal_length", corpus_desc)
    for entry in corpus:
        graph = StateGraph()
        order = _closure(graph, entry.term, graph.anf, graph_cap)
        if order is None:
            report.record_inconclusive()
            continue
        status, _, detail = _unique_length_to_nf(order, graph.anf)
        if status == "ok":
            report.record_pass()
        else:
            report.record_failure(entry, detail)
    return report


def law_subcalculus_stability(
    corpora: dict[str, list[CorpusTerm]],
    graph_cap: int = DEFAULT_GRAPH_CAP,
) -> LawReport:
    """Closure of the binder-occurrence sub-calculi under reduction.

    lambda-I terms stay lambda-I with unchanged free variables; lambda-A
    terms stay lambda-A and are strongly normalizing (their full reduction
    graph is finite and acyclic under the cap).
    """
    report = LawReport("subcalculus_stability", "lambda-I and lambda-A corpora")
    for entry in corpora.get("lambda-I", []):
        if not is_lambda_I(entry.term):
            report.record_failure(entry, "corpus term is not lambda-I")
            continue
        fv = free_vars(entry.term)
        bad = None
        for u in beta_successors(entry.term):
            if not is_lambda_I(u):
                bad = f"reduct {render(u)} left lambda-I"
                break
            if free_vars(u) != fv:
                bad = f"reduct {render(u)} changed free variables"
                break
        if bad:
            report.record_failure(entry, bad)
        else:
            report.record_pass()
    for entry in corpora.get("lambda-A", []):
        if not is_lambda_A(entry.term):
            report.record_failure(entry, "corpus term is not lambda-A")
            continue
        bad = None
        for u in beta_successors(entry.term):
            if not is_lambda_A(u):
                bad = f"reduct {render(u)} left lambda-A"
                break
        if bad:
            report.record_failure(entry, bad)
            continue
        graph = StateGraph()
        order = _closure(graph, entry.term, graph.beta, graph_cap)
        if order is None:
            report.record_inconclusive()
            continue
        if not _acyclic(order, graph.beta):
            report.record_failure(entry, "reduction graph has a cycle (not SN)")
        else:
            report.record_pass()
    return report


def law_lambdaA_lo_optimal(
    corpus: list[CorpusTerm],
    corpus_desc: str = "lambda-A corpus",
    fuel: int = DEFAULT_WN_FUEL,
    graph_cap: int = DEFAULT_GRAPH_CAP,
) -> LawReport:
    """On lambda-A terms no reduction sequence to normal form is shorter
    than the LO one (exhaustive shortest path against N_LO)."""
    report = LawReport("lambdaA_lo_optimal", corpus_desc)
    for entry in corpus:
        count = n_steps(entry.term, "lo", fuel)
        if not count.finite:
            report.record_inconclusive()
            continue
        graph = StateGraph()
        order = _closure(graph, entry.term, graph.beta, graph_cap)
        if order is None:
            report.record_inconclusive()
            continue
        shortest = _shortest_to_nf(order, graph.beta)
        if shortest is None:
            report.record_failure(entry, "no reduction sequence reaches normal form")
        elif count.steps > shortest:
            report.record_failure(
                entry, f"N_LO {count.steps} > shortest sequence {shortest}"
            )
        else:
            report.record_pass()
    return report


def law_lambdaI_anf_optimal(
    corpus: list[CorpusTerm],
    corpus_desc: str = "lambda-I WN corpus",
    graph_cap: int = DEFAULT_GRAPH_CAP,
) -> LawReport:
    """On weakly normalizing lambda-I terms the (unique) argument-normal
    derivation length is minimal among all reduction sequences."""
    report = LawReport("lambdaI_anf_optimal", corpus_desc)
    for entry in corpus:
        graph = StateGraph()
        anf_order = _closure(graph, entry.term, graph.anf, graph_cap)
        full_order = _closure(graph, entry.term, graph.beta, graph_cap)
        if anf_order is None or full_order is None:
            report.record_inconclusive()
            continue
        status, anf_len, detail = _unique_length_to_nf(anf_order, graph.anf)
        if status != "ok":
            report.record_failure(entry, f"argument-normal lengths not unique: {detail}")
            continue
        if anf_len is None:
            report.record_failure(entry, "argument-normal reduction reaches no normal form")
            continue
        shortest = _shortest_to_nf(full_order, graph.beta)
        if shortest is None:
            report.record_failure(entry, "no reduction sequence reaches normal form")
        elif anf_len > shortest:
            report.record_failure(
                entry, f"argument-normal length {anf_len} > shortest sequence {shortest}"
            )
        else:
            report.record_pass()
    return report


def law_eps_minimum(
    corpus: list[CorpusTerm],
    minimum_at: Fraction,
    corpus_desc: str = "corpus",
    grid=GRID_WITH_ZERO,
    state_cap: int = 100_000,
) -> LawReport:
    """The expected derivation length over the eps grid attains its minimum
    at the stated endpoint (1 for lambda-A corpora, 0 for lambda-I ones)."""
    minimum_at = Fraction(minimum_at)
    report = LawReport(f"eps_minimum_at_{minimum_at}", corpus_desc)
    for entry in corpus:
        try:
            solved = grid_expected_lengths(entry.term, grid, state_cap)
        except StateCapExceeded:
            report.record_inconclusive()
            continue
        expected = {eps: e for eps, (_, e) in solved.items()}
        if any(e is None for e in expected.values()):
            divergent = ", ".join(
                str(eps) for eps in sorted(expected) if expected[eps] is None
            )
            report.record_failure(
                entry, f"no finite expected length at eps in {{{divergent}}}"
            )
            continue
        best = min(expected.values())
        if expected[minimum_at] != best:
            table = ", ".join(f"{eps}: {expected[eps]}" for eps in sorted(expected))
            report.record_failure(
                entry,
                f"minimum {best} not attained at eps={minimum_at} ({table})",
            )
        else:
            report.record_pass()
    return report


def law_foster(
    corpus: list[CorpusTerm],
    corpus_desc: str = "corpus",
    grid=DEFAULT_GRID,
    fuel: int = DEFAULT_WN_FUEL,
    state_cap: int = 100_000,
) -> LawReport:
    """Expected length <= N_LO/eps on every fuel-verified WN corpus term
    for every grid eps > 0."""
    report = LawReport("foster_bound", corpus_desc)
    positive = [Fraction(e) for e in grid if e > 0]
    for entry in corpus:
        n_lo = lo_normalizes(entry.term, fuel)
        if n_lo is None:
            report.record_inconclusive()
            continue
        try:
            solved = grid_expected_lengths(entry.term, positive, state_cap)
        except StateCapExceeded:
            report.record_inconclusive()
            continue
        bad = None
        for eps in positive:
            termination, expected = solved[eps]
            bound = Fraction(n_lo) / eps
            if expected is None:
                bad = f"eps={eps}: termination probability {termination} < 1"
                break
            if expected > bound:
                bad = f"eps={eps}: expected {expected} > bound {bound}"
                break
        if bad:
            report.record_failure(entry, bad)
        else:
            report.record_pass()
    return report


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
    fuel: int = DEFAULT_WN_FUEL,
    graph_cap: int = DEFAULT_GRAPH_CAP,
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
    lambda_i = [e for e in anchor if is_lambda_I(e.term)] + corpora["lambda-I"]
    lambda_a = [e for e in anchor if is_lambda_A(e.term)] + corpora["lambda-A"]
    wn_lambda_i = [e for e in lambda_i if lo_normalizes(e.term, fuel) is not None]

    reports = []
    if "lo_monotone" in wanted:
        reports.append(law_lo_monotone(mixed, mixed_desc, fuel))
    if "anf_equal_length" in wanted:
        reports.append(law_anf_equal_length(mixed, mixed_desc, graph_cap))
    if "subcalculus_stability" in wanted:
        reports.append(
            law_subcalculus_stability(
                {"lambda-I": lambda_i, "lambda-A": lambda_a}, graph_cap
            )
        )
    if "lambdaA_lo_optimal" in wanted:
        reports.append(law_lambdaA_lo_optimal(lambda_a, "lambda-A corpus", fuel, graph_cap))
    if "lambdaI_anf_optimal" in wanted:
        reports.append(law_lambdaI_anf_optimal(wn_lambda_i, "lambda-I WN corpus", graph_cap))
    if "eps_minimum" in wanted:
        reports.append(law_eps_minimum(lambda_a, Fraction(1), "lambda-A corpus"))
        reports.append(law_eps_minimum(wn_lambda_i, Fraction(0), "lambda-I WN corpus"))
    if "foster" in wanted:
        reports.append(law_foster(mixed, mixed_desc, DEFAULT_GRID, fuel))
    return reports
