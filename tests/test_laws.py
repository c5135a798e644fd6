from fractions import Fraction

import pytest

from lambdalab import laws, pars, repro, terms
from lambdalab.laws import (
    CorpusTerm,
    DEFAULT_GRAPH_CAP,
    DEFAULT_GRID,
    DEFAULT_WN_FUEL,
    GRID_WITH_ZERO,
    LawReport,
    _acyclic,
    _lo_steps,
    _shortest_to_nf,
    _unique_length_to_nf,
    default_corpora,
    law_anf_equal_length,
    law_eps_minimum,
    law_foster,
    law_lambdaA_lo_optimal,
    law_lambdaI_anf_optimal,
    law_lo_monotone,
    law_subcalculus_stability,
    lo_normalizes,
    anchor_corpus,
    random_corpus,
    run_suite,
    WN_SIZE_GUARD,
)
from lambdalab.strategies import StepCount, n_steps
from lambdalab.terms import (
    App,
    SubCalculus,
    Var,
    mk_Mn,
    mk_Omega,
    mk_example1,
    mk_example2,
    parse,
    redexes,
    reduce_at,
    render,
    term_size,
)

from named_oracle import is_lambda_A, is_lambda_I


@pytest.fixture(scope="module")
def small_corpora():
    return default_corpora(count=40)


def test_anchor_corpus_contents():
    ids = [e.term_id for e in anchor_corpus()]
    assert ids[:5] == ["I", "omega", "Omega", "example1", "example2"]
    assert "Cn:5" in ids and "Mn:5" in ids and len(ids) == 15


def test_lo_normalizes_certificates():
    assert lo_normalizes(mk_example1(), 10) == 1
    assert lo_normalizes(mk_Omega(), 100) is None
    assert lo_normalizes(mk_Mn(4), 100) == 7
    assert lo_normalizes(mk_Mn(4), 7) == 7
    assert lo_normalizes(mk_Mn(4), 6) is None


def test_lo_normalizes_size_guard():
    spine = Var("y")  # a normal variable spine of 1099 nodes
    for _ in range(549):
        spine = App(spine, Var("y"))
    t = App(parse("\\x.x x x x"), spine)  # one LO step to a 4399-node normal form
    assert lo_normalizes(t, 10) is None
    assert n_steps(t, "lo", 10) == StepCount.reached(1)


def _named_walk(t, rightmost, fuel, guard=None):
    """Steps of the LO (or RI) walk on named terms, each contracting
    redexes(t)[0] (or [-1]); None when fuel runs out or a reduct has more
    than guard nodes."""
    for n in range(fuel + 1):
        paths = redexes(t)
        if not paths:
            return n
        if n == fuel:
            return None
        t = reduce_at(t, paths[-1] if rightmost else paths[0])
        if guard is not None and term_size(t) > guard:
            return None


@pytest.fixture(scope="module")
def default_terms():
    return [e.term for entries in default_corpora().values() for e in entries]


def test_counts_on_canonical_forms_match_a_named_walk(default_terms):
    for t in default_terms:
        assert lo_normalizes(t, DEFAULT_WN_FUEL) == _named_walk(
            t, False, DEFAULT_WN_FUEL, WN_SIZE_GUARD
        )
        for strategy in ("lo", "ri"):
            steps = _named_walk(t, strategy == "ri", DEFAULT_WN_FUEL)
            want = StepCount.exhausted(DEFAULT_WN_FUEL) if steps is None else StepCount.reached(steps)
            assert n_steps(t, strategy, DEFAULT_WN_FUEL) == want


def test_random_corpus_deterministic_and_filtered():
    a = random_corpus(SubCalculus.LAMBDA_A, count=25)
    b = random_corpus(SubCalculus.LAMBDA_A, count=25)
    assert [e.term for e in a] == [e.term for e in b]
    assert all(is_lambda_A(e.term) for e in a)
    assert all(e.seed is not None for e in a)


def test_random_corpus_wn_certification():
    c = random_corpus(SubCalculus.LAMBDA_I, count=25, require_wn_fuel=200)
    assert all(is_lambda_I(e.term) for e in c)
    assert all(lo_normalizes(e.term, 200) is not None for e in c)


def test_law_lo_monotone_passes(small_corpora):
    entries = small_corpora["anchor"] + small_corpora["full"]
    report = law_lo_monotone(entries)
    assert report.passed
    assert report.inconclusive >= 1  # Omega is not weakly normalizing


def test_law_anf_equal_length_passes(small_corpora):
    entries = small_corpora["anchor"] + small_corpora["full"]
    report = law_anf_equal_length(entries)
    assert report.passed and report.inconclusive == 0


# Counterexamples to the anf_equal_length conjecture: the full calculus at
# size cap 20, lambda-A at size cap 26 and lambda-I at size cap 34.
ANF_COUNTEREXAMPLES = {
    "(\\v0.(\\v1.(\\v2.\\v3.a) a) (v0 b)) ((\\v4.v4) (\\v5.c))": [2, 3],
    "(\\v0.(\\v1.c) (v0 c)) ((\\v2.v2) (\\v3.v3))": [2, 3],
    "(\\v0.(\\v1.v1 v1 v1) (v0 v0)) (\\v2.v2)": [5, 7],
}


def test_law_anf_equal_length_is_refuted():
    corpus = [CorpusTerm(text, parse(text)) for text in ANF_COUNTEREXAMPLES]
    report = law_anf_equal_length(corpus)
    assert (report.cases_run, report.cases_passed, report.inconclusive) == (3, 0, 0)
    assert [(ce["term"], ce["detail"]) for ce in report.counterexamples] == [
        (text, f"path lengths {lengths} from one state")
        for text, lengths in ANF_COUNTEREXAMPLES.items()
    ]


def test_law_lambdaI_anf_optimal_reports_non_unique_length():
    # the lambda-I counterexample above: uniqueness is checked, not assumed
    text = "(\\v0.(\\v1.v1 v1 v1) (v0 v0)) (\\v2.v2)"
    report = law_lambdaI_anf_optimal([CorpusTerm(text, parse(text))])
    assert (report.cases_run, report.cases_passed, report.inconclusive) == (1, 0, 0)
    assert [ce["detail"] for ce in report.counterexamples] == [
        "argument-normal lengths not unique: path lengths [5, 7] from one state"
    ]


# ten independent identity redexes: 2**10 beta-classes, past DEFAULT_GRAPH_CAP
WIDE = CorpusTerm("wide", parse("a" + " ((\\x.x) b)" * 10))


@pytest.mark.parametrize(
    "law",
    [
        law_anf_equal_length,
        law_lambdaI_anf_optimal,
        law_lambdaA_lo_optimal,
        lambda corpus: law_subcalculus_stability({"lambda-A": corpus}),
    ],
    ids=["anf_equal_length", "lambdaI_anf_optimal", "lambdaA_lo_optimal", "subcalculus_stability"],
)
def test_graph_cap_hit_is_inconclusive(law):
    assert 2**10 > DEFAULT_GRAPH_CAP
    report = law([WIDE])
    assert (report.cases_run, report.inconclusive) == (1, 1)
    assert report.passed


def test_law_subcalculus_stability_passes(small_corpora):
    report = law_subcalculus_stability(
        {"lambda-I": small_corpora["lambda-I"], "lambda-A": small_corpora["lambda-A"]}
    )
    assert report.passed


def test_law_subcalculus_stability_flags_misfiled_term():
    bad = CorpusTerm("not-I", mk_example1())  # erasing binder: not lambda-I
    report = law_subcalculus_stability({"lambda-I": [bad], "lambda-A": []})
    assert not report.passed
    assert report.counterexamples[0]["term_id"] == "not-I"


def test_law_lambdaA_lo_optimal_passes(small_corpora):
    report = law_lambdaA_lo_optimal(small_corpora["lambda-A"])
    assert report.passed and report.inconclusive == 0


def test_law_lambdaI_anf_optimal_passes(small_corpora):
    entries = [e for e in small_corpora["lambda-I"] if lo_normalizes(e.term, 500) is not None]
    report = law_lambdaI_anf_optimal(entries)
    assert report.passed and report.inconclusive == 0


def test_law_eps_minimum_passes(small_corpora):
    report_a = law_eps_minimum(small_corpora["lambda-A"], Fraction(1))
    assert report_a.passed and report_a.inconclusive == 0
    wn_i = [e for e in small_corpora["lambda-I"] if lo_normalizes(e.term, 500) is not None]
    report_i = law_eps_minimum(wn_i, Fraction(0))
    assert report_i.passed and report_i.inconclusive == 0


def test_law_eps_minimum_detects_interior_minimum():
    # the mixed-cost family has its grid minimum strictly inside (0,1), so
    # demanding a minimum at eps=1 must produce a counterexample
    report = law_eps_minimum([CorpusTerm("Mn:2", mk_Mn(2))], Fraction(1), grid=DEFAULT_GRID)
    assert not report.passed
    assert "minimum" in report.counterexamples[0]["detail"]


def test_law_eps_minimum_reports_divergent_grid_points():
    # with eps=0 in the grid the mixed-cost family has no finite expectation
    report = law_eps_minimum([CorpusTerm("Mn:2", mk_Mn(2))], Fraction(1), grid=GRID_WITH_ZERO)
    assert not report.passed
    assert "no finite expected length" in report.counterexamples[0]["detail"]


@pytest.mark.parametrize("term", [mk_example2(), mk_Mn(2)], ids=["example2", "Mn:2"])
def test_law_eps_minimum_rejects_a_minimum_off_the_grid(term):
    solved = []
    with pytest.raises(ValueError, match="not a point of the grid"):
        law_eps_minimum([CorpusTerm("t", term)], Fraction(1, 3), solve=solved.append)
    assert solved == []  # raised before the first check ran


def test_law_foster_passes(small_corpora):
    entries = small_corpora["anchor"] + small_corpora["full"]
    wn = [e for e in entries if lo_normalizes(e.term, 500) is not None]
    report = law_foster(wn)
    assert report.passed and report.inconclusive == 0


def test_laws_vacuous_on_empty_corpus():
    report = law_lo_monotone([])
    assert report.passed and report.cases_run == 0


def test_run_suite_core(small_corpora):
    reports = run_suite("core", corpora=small_corpora, count=40)
    assert len(reports) == 5
    assert all(r.passed for r in reports)


def test_law_run_builds_one_state_graph_per_check(small_corpora, monkeypatch):
    graphs, built = [0], []

    class CountingGraph(pars.StateGraph):
        def __init__(self):
            super().__init__()
            graphs[0] += 1

    real = laws._check

    def counting_check(report, corpus, check):
        before = graphs[0]
        real(report, corpus, check)
        built.append(graphs[0] - before)
        return report

    monkeypatch.setattr(laws, "StateGraph", CountingGraph)
    monkeypatch.setattr(laws, "_check", counting_check)
    reports = run_suite("core", corpora=small_corpora, count=40)
    assert all(r.passed for r in reports)
    # lo_monotone, anf_equal_length, subcalculus_stability (lambda-I, then
    # lambda-A), lambdaA_lo_optimal and lambdaI_anf_optimal
    assert built == [1] * 6


def test_law_lo_monotone_names_no_reduct_without_a_counterexample(small_corpora, monkeypatch):
    calls = []

    def counting(t, path):
        calls.append(path)
        return reduce_at(t, path)

    for module in (laws, pars, terms):
        monkeypatch.setattr(module, "reduce_at", counting, raising=False)
    report = law_lo_monotone(small_corpora["anchor"] + small_corpora["full"])
    assert report.passed and report.cases_passed > 0
    assert calls == []


def test_counterexample_names_its_reduct_as_a_graph_of_the_term_alone(monkeypatch):
    # first is t up to binder names, so in the law run's one graph first finds
    # t's class and both of its reducts' classes, under first's names
    first = parse("(\\p.p) (\\q.(\\r.r) q)")
    t = parse("(\\x.x) (\\y.(\\z.z) y)")
    fresh = pars.StateGraph()
    j = fresh.beta(fresh.intern(t))[1]  # the second reduct, by the inner redex
    marked = fresh.forms[j]
    real = laws.classify_canonical
    monkeypatch.setattr(
        laws, "classify_canonical", lambda c: SubCalculus.FULL if c == marked else real(c)
    )
    corpus = [CorpusTerm("first", first), CorpusTerm("t", t)]
    report = law_subcalculus_stability({"lambda-I": corpus})
    assert render(fresh.rep(j)) == "(\\x.x) (\\y.y)"
    assert [ce["detail"] for ce in report.counterexamples] == [
        "reduct (\\p.p) (\\q.q) left lambda-I",
        f"reduct {render(fresh.rep(j))} left lambda-I",
    ]


def test_self_loop_reduct_is_the_term_itself():
    omega = mk_Omega()
    graph = pars.StateGraph()
    graph.intern(parse("(\\a.a a) (\\b.b b)"))
    i = graph.intern(omega)
    assert graph.beta(i) == (i,)
    assert laws._reduct(graph, i, omega, i) is omega


def test_eps_minimum_canonicalises_only_for_its_solves_and_wn_certificates(monkeypatch):
    # its check reads solve(t) alone, so no corpus term is interned for it
    corpora = default_corpora()
    counts = {"canonicalize": 0, "grid_expected_lengths": 0, "lo_normalizes": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(pars, "canonicalize")  # every StateGraph.intern
    counting(laws, "grid_expected_lengths")  # one intern per distinct term solved
    counting(laws, "lo_normalizes")  # one intern per lambda-I term certified WN
    reports = run_suite("eps_minimum", corpora=corpora)
    assert all(r.passed for r in reports)
    assert counts["canonicalize"] == counts["grid_expected_lengths"] + counts["lo_normalizes"]
    # the interns saved: one per corpus entry checked, 410 on the default corpora
    assert sum(r.cases_run for r in reports) == 410


def test_run_suite_single_law(small_corpora):
    reports = run_suite("eps_minimum", corpora=small_corpora, count=40)
    assert [r.law_id for r in reports] == ["eps_minimum_at_1", "eps_minimum_at_0"]
    assert all(r.passed for r in reports)


def test_run_suite_solves_each_term_once(small_corpora, monkeypatch):
    # eps_minimum and foster share the grid solve of every term they both check
    calls = []
    real = laws.grid_expected_lengths

    def counting(t, grid, *args):
        calls.append((t, tuple(grid)))
        return real(t, grid, *args)

    monkeypatch.setattr(laws, "grid_expected_lengths", counting)
    reports = run_suite("all", corpora=small_corpora, count=40)
    assert all(r.passed for r in reports)
    assert calls and len(set(calls)) == len(calls)
    assert {grid for _, grid in calls} == {GRID_WITH_ZERO}
    solved = {t for t, _ in calls}
    assert any(e.term in solved for e in small_corpora["lambda-A"])
    assert any(e.term in solved for e in small_corpora["full"])


def test_run_all_solves_each_term_once(small_corpora, monkeypatch):
    # criteria 5 (foster) and 7 (eps_minimum) share the grid solve of a term
    monkeypatch.setattr(laws, "default_corpora", lambda: small_corpora)
    for n in (1, 2, 3, 4, 6, 8, 9, 10):
        monkeypatch.setattr(repro, f"criterion_{n}", lambda *args: None)
    calls = []

    def counting(t, grid, *args):
        calls.append(t)
        return pars.grid_expected_lengths(t, grid, *args)

    monkeypatch.setattr(repro, "grid_expected_lengths", counting)
    monkeypatch.setattr(laws, "grid_expected_lengths", counting)
    results = [r for r in repro.run_all() if r is not None]
    assert [r.number for r in results] == [5, 7]
    assert calls and len(set(calls)) == len(calls)
    both = {e.term for e in small_corpora["lambda-A"]} & set(calls)
    assert both  # terms that both criteria check


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("no-such-law")


def test_law_runs_reproducible_bit_for_bit():
    first = run_suite("core", count=15)
    second = run_suite("core", count=15)
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
    assert [r.summary() for r in first] == [r.summary() for r in second]


def test_report_serialization():
    report = LawReport("demo", "corpus", cases_run=3, cases_passed=3)
    payload = report.to_dict()
    assert payload["law"] == "demo" and payload["counterexamples"] == []
    assert "pass" in report.summary()


# ---------------------------------------------------------------------------
# graph helpers, on hand-built graphs: node -> successors, node 0 the start


def _unique(graph):
    return _unique_length_to_nf(list(graph), graph.__getitem__)


def test_unique_length_ok_with_length():
    assert _unique({0: (1, 3), 1: (2,), 3: (2,), 2: ()}) == ("ok", 2, "")
    assert _unique({0: ()}) == ("ok", 0, "")


def test_unique_length_ok_without_normal_form():
    assert _unique({0: (1,), 1: (0, 1)}) == ("ok", None, "")


def test_unique_length_cycle():
    assert _unique({0: (1,), 1: (0, 2), 2: ()})[0] == "cycle"
    assert _unique({0: (0, 1), 1: ()})[0] == "cycle"


def test_unique_length_mismatch():
    assert _unique({0: (1, 2), 1: (2,), 2: ()}) == (
        "mismatch", None, "path lengths [1, 2] from one state"
    )


def test_unique_length_cycle_wins_over_mismatch():
    # the mismatch at 3 lies downstream of the cycle 1 <-> 2 ...
    assert _unique({0: (1, 3), 1: (2, 3), 2: (1,), 3: (4, 5), 4: (5,), 5: ()})[0] == "cycle"
    # ... and here upstream of the cycle 2 <-> 3
    assert _unique({0: (1, 2), 1: (2,), 2: (3,), 3: (2, 4), 4: ()})[0] == "cycle"


def test_acyclic():
    assert not _acyclic([0], {0: (0,)}.__getitem__)
    assert not _acyclic([0, 1], {0: (1,), 1: (0,)}.__getitem__)
    assert _acyclic([0, 1, 2], {0: (1, 2), 1: (2,), 2: ()}.__getitem__)


@pytest.mark.parametrize(
    "t, shortest",
    [(parse("\\x.x y"), 0), (mk_example2(), 3), (mk_Omega(), None)],
    ids=["normal-form", "example2", "Omega"],
)
def test_shortest_to_nf_on_known_graphs(t, shortest):
    # example2 reaches its normal form in 3 steps by contracting the
    # argument first, against 4 for LO; Omega reaches none
    graph = pars.StateGraph()
    order = graph.closure(graph.intern(t), graph.beta, DEFAULT_GRAPH_CAP)
    assert _shortest_to_nf(order, graph.beta) == shortest


def test_lo_steps_size_guard_boundary():
    # (\x.x x) (\y.y) has 7 nodes, its LO reducts 5 and 2
    graph = pars.StateGraph()
    i = graph.intern(parse("(\\x.x x) (\\y.y)"))
    assert _lo_steps(graph, i, 10) == 2
    assert _lo_steps(graph, i, 10, guard=5) == 2
    assert _lo_steps(graph, i, 10, guard=4) is None
