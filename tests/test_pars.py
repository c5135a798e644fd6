import math
import pickle
import sys
from dataclasses import replace
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from lambdalab import pars
from lambdalab.laws import anchor_corpus, random_corpus
from lambdalab.montecarlo import estimate, sample_run
from lambdalab.pars import (
    TRM,
    StateCapExceeded,
    StateGraph,
    _solve_rows,
    analyze,
    derivation_length_dist,
    evolve_trace,
    expected_length_truncated,
    explore_states,
    grid_expected_lengths,
    iter_sccs,
    solve_expected_length,
)
from lambdalab.repro import closed_form_mix_cost
from lambdalab.strategies import InvalidEpsilon, Strategy, foster_bound, n_steps
from lambdalab.terms import (
    App,
    SubCalculus,
    Var,
    canonicalize,
    is_normal_form,
    mk_I,
    mk_Mn,
    mk_Omega,
    mk_example1,
    mk_example2,
    parse,
    random_term,
    redexes,
    reduce_at,
    render,
)

from conftest import terms
from chain_oracle import chain_derivation_lengths
from dense_solver import solve_rows_dense
from evolution_oracle import Configuration, evolve
from named_oracle import anf_successors, beta_successors, explore_eagerly

I = mk_I()
EX1 = mk_example1()
EX2 = mk_example2()
OMEGA2 = mk_Omega()
HALF = Strategy.peps(Fraction(1, 2))
GRID = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


# ---------------------------------------------------------------------------
# evolution


def test_evolve_spreads_mass():
    c1 = evolve(Configuration.dirac(EX1), HALF)
    assert c1.masses == {
        canonicalize(Var("y")): Fraction(1, 2),
        canonicalize(EX1): Fraction(1, 2),
    }
    assert c1.mass == 1 and c1.step == 1


def test_evolve_normal_mass_dies():
    c2 = evolve(evolve(Configuration.dirac(EX1), HALF), HALF)
    assert c2.mass == Fraction(1, 2)
    assert c2.masses[canonicalize(EX1)] == Fraction(1, 4)


def test_evolve_normal_form_empties():
    c1 = evolve(Configuration.dirac(I), HALF)
    assert c1.masses == {} and c1.mass == 0


def test_evolve_trace_geometric():
    trace = evolve_trace(EX1, HALF, 3)
    assert list(trace.masses) == [1, 1, Fraction(1, 2), Fraction(1, 4)]


def test_evolve_trace_normal_form():
    assert list(evolve_trace(I, HALF, 2).masses) == [1, 0, 0]


def test_evolve_trace_self_loop():
    assert list(evolve_trace(OMEGA2, HALF, 5).masses) == [1] * 6


# eps 0 and 1 never split mass; 12 is a denominator with two primes
TRACE_ORACLE_EPS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 7), Fraction(5, 12))


@given(terms)
@settings(max_examples=60, deadline=None)
def test_evolve_trace_matches_iterated_evolve(t):
    for eps in TRACE_ORACLE_EPS:
        _assert_matches_oracle(t, eps, 5)


REDUCED_BASES = (1, 2, 6, 7, 12, 10**9 + 7)


def _powers(d: int, s: int) -> list:
    return [d**k for k in range(s + 1)]


@st.composite
def _over_power(draw):
    """(n, s, d) with n often a multiple of a power of d, so that the
    reduction strips several factors of d or runs gcd rounds."""
    d = draw(st.sampled_from(REDUCED_BASES))
    s = draw(st.integers(0, 40))
    den = d**s
    n = draw(
        st.one_of(
            st.integers(0, 2 * den),
            st.builds(lambda k, j: k * d**j, st.integers(0, 50), st.integers(0, s)),
            st.just(den),
        )
    )
    return n, s, d


@given(_over_power())
@example((0, 5, 12))
@example((7**9, 9, 7))
@example((5, 0, 6))
@example((2**9, 10, 2))  # nine whole factors of d to strip
@example((6**4 * 4, 6, 6))  # four factors of d, then a proper factor of d
def test_reduced_matches_fraction(case):
    n, s, d = case
    got = pars._reduced(n, s, d, _powers(d, s))
    want = Fraction(n, d**s)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want)


def _counting_gcd(monkeypatch) -> list:
    calls = []

    def gcd(*args):
        calls.append(args)
        return math.gcd(*args)

    monkeypatch.setattr(pars, "gcd", gcd)
    return calls


@pytest.mark.parametrize("d", [2, 7, 10**9 + 7])
def test_reduced_on_a_prime_base_takes_only_small_gcds(monkeypatch, d):
    calls = _counting_gcd(monkeypatch)
    s = 60
    powers = _powers(d, s)
    for n in (1, d - 1, d**5 * (d + 1), d ** (s - 1) * 3 + 1, powers[s] - 1, 5 * d**20):
        assert pars._reduced(n, s, d, powers) == Fraction(n, powers[s])
    assert calls and all(abs(x) <= d for args in calls for x in args)


def test_reduced_reaches_its_rounds_cap_on_a_composite_base(monkeypatch):
    # 2**9 over 6**10 shares nine factors 2 with the denominator, one per round
    calls = _counting_gcd(monkeypatch)
    got = pars._reduced(2**9, 10, 6, _powers(6, 10))
    want = Fraction(2**9, 6**10)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert len(calls) == pars._REDUCE_ROUNDS + 1


SPLITTING = parse(r"(\x.(\y.y y)(\y.y y)) ((\z.z z)(\z.z z))")


def test_splitting_term_keeps_mass_one_with_few_gcds(monkeypatch):
    # LO steps to Omega and RI back to the term itself, so the running
    # denominator grows by 3 every step while the mass stays 1
    calls = _counting_gcd(monkeypatch)
    horizon = 2000
    trace = evolve_trace(SPLITTING, Strategy.peps(Fraction(1, 3)), horizon)
    assert trace.masses == (1,) * (horizon + 1)
    assert trace.unreduced[-1] == (3**horizon, horizon)
    assert calls == []


def _counting_reduced(monkeypatch) -> list:
    calls = []
    reduced = pars._reduced

    def counted(*args):
        calls.append(args[1:3])  # (s, d)
        return reduced(*args)

    monkeypatch.setattr(pars, "_reduced", counted)
    return calls


def _assert_lowest_terms(trace):
    d = trace.base
    for mass, (n, s) in zip(trace.masses, trace.unreduced):
        want = Fraction(n, d**s)
        assert type(mass) is Fraction
        assert (mass.numerator, mass.denominator) == (want.numerator, want.denominator)


def test_geometric_trace_takes_no_general_reduction(monkeypatch):
    # every stepped total of example1 at 3/7 is a power of 4, prime to 7
    calls = _counting_reduced(monkeypatch)
    trace = evolve_trace(EX1, Strategy.peps(Fraction(3, 7)), 1000)
    assert calls == []
    assert trace.masses[-1] == Fraction(4, 7) ** 999


@pytest.mark.parametrize(
    "eps, least",
    [(Fraction(3, 7), 100), (Fraction(5, 12), 300), (Fraction(3, 10), 300)],
    ids=str,
)
def test_trace_falls_back_to_the_general_reduction_exactly(monkeypatch, eps, least):
    # at a prime d a stepped total of Mn:4 is a multiple of d about one
    # step in d; at a composite d most totals share a prime with d.  The
    # fallback runs on exactly the steps after the first whose stepped
    # total, N_i over the step's own weight, is not prime to d
    calls = _counting_reduced(monkeypatch)
    trace = evolve_trace(mk_Mn(4), Strategy.peps(eps), 1000)
    d = eps.denominator
    steps = zip(trace.unreduced, trace.unreduced[1:])
    shared = [k for (_, k), (n, s) in steps if k and math.gcd(n // d ** (s - k), d) != 1]
    assert len(calls) == len(shared) == FALLBACKS[eps] >= least
    assert calls == [(k, d) for k in shared]
    _assert_lowest_terms(trace)


FALLBACKS = {Fraction(3, 7): 145, Fraction(5, 12): 667, Fraction(3, 10): 601}


REDUCTION_EPS = tuple(map(Fraction, ("0", "1", "1/2", "2/7", "1/6", "3/10", "5/12", "5/6")))


@pytest.mark.parametrize(
    "tag", [*SubCalculus, None], ids=lambda tag: tag.value if tag else "anchors"
)
def test_trace_masses_are_exact_on_random_corpora(tag):
    # every mass in lowest terms at every step, and equal to the named
    # evolution's masses over its first steps; random terms are absorbed
    # within a few steps, so the anchors, several of which never are, run
    # the reduction at large s.  The compared steps must merge mass from two
    # live classes into one and send live mass to a normal form, or a
    # summing or absorbing fault in evolve_trace could pass unseen
    if tag is None:
        corpus = [entry.term for entry in anchor_corpus()]
    else:
        corpus = [random_term(seed, 40, tag) for seed in range(30)]
    merges = absorptions = 0
    for t in corpus:
        for eps in REDUCTION_EPS:
            strategy = Strategy.peps(eps)
            trace = evolve_trace(t, strategy, 60)
            _assert_lowest_terms(trace)
            config = Configuration.dirac(t)
            for mass in trace.masses[1:5]:
                merged, absorbed = _merges_and_absorptions(config, strategy)
                merges += merged
                absorptions += absorbed
                config = evolve(config, strategy)
                assert mass == config.mass, (render(t), eps)
    assert merges > 0 and absorptions > 0


def _merges_and_absorptions(config, strategy) -> tuple:
    """In the named evolution's next step from config: the number of
    classes that receive mass from two or more live classes, and the
    number of (live class, normal form) pairs that mass moves along."""
    sources: dict = {}
    absorptions = 0
    for c in config.masses:
        dist = strategy.distribution(config.reps[c])
        if dist is None:
            continue
        for target in dist.masses:
            sources.setdefault(target, set()).add(c)
            absorptions += is_normal_form(dist.reps[target])
    return sum(len(found) > 1 for found in sources.values()), absorptions


def _assert_matches_oracle(t, eps, horizon):
    """evolve_trace's masses equal the named evolution's at every step,
    and each is Fraction(N_i, d**s_i) in lowest terms."""
    strategy = Strategy.peps(eps)
    trace = evolve_trace(t, strategy, horizon)
    _assert_lowest_terms(trace)
    config = Configuration.dirac(t)
    masses = [config.mass]
    for _ in range(horizon):
        config = evolve(config, strategy)
        masses.append(config.mass)
    assert list(trace.masses) == masses, (render(t), eps)
    return trace


def _anchors_and_random_terms() -> list:
    corpus = [entry.term for entry in anchor_corpus()]
    return corpus + [random_term(seed, 40, tag) for tag in SubCalculus for seed in range(5)]


@pytest.mark.parametrize("horizon", [0, 1, 5])
@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(5, 12)], ids=str)
def test_normal_origin_trace_is_one_then_zeros(horizon, eps):
    # a normal origin holds no live mass, so nothing is ever stepped
    trace = _assert_matches_oracle(I, eps, horizon)
    assert trace.masses == (1,) + (0,) * horizon
    assert trace.unreduced == ((1, 0),) + ((0, 0),) * horizon
    assert trace.powers == (1,) and trace.base == eps.denominator


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1)], ids=str)
def test_one_way_traces_never_split(eps):
    # at eps 0 and 1 every row is one-way and d = 1, so s stays 0
    for t in _anchors_and_random_terms():
        trace = _assert_matches_oracle(t, eps, 20)
        assert trace.base == 1 and trace.powers == (1,)
        assert all(s == 0 for _, s in trace.unreduced)


def test_row_whose_lo_target_is_normal():
    # example1's LO step reaches y and its RI step example1 itself: each
    # step absorbs 3/7 of the mass and keeps 4/7 of it on one live class
    trace = _assert_matches_oracle(EX1, Fraction(3, 7), 30)
    assert trace.unreduced[1:] == tuple((7 * 4**i, i + 1) for i in range(30))
    assert trace.masses[1:] == tuple(Fraction(4, 7) ** i for i in range(30))


@pytest.mark.parametrize("eps", [Fraction(5, 12), Fraction(3, 10)], ids=str)
def test_composite_base_traces_match_the_oracle(monkeypatch, eps):
    calls = _counting_reduced(monkeypatch)
    for t in (mk_Mn(4), EX2, SPLITTING):
        _assert_matches_oracle(t, eps, 25)
    assert calls  # a composite d leaves totals that share a prime with d


def test_trace_steps_each_live_class_once(monkeypatch):
    # StateGraph.successors runs once for every class that evolve_trace
    # visits with mass, exactly the named evolution's reducible classes
    # before the horizon, and never on a normal form
    calls = []
    successors = StateGraph.successors

    def counted(self, i, eps):
        calls.append((self.forms[i], self.is_normal(i)))
        return successors(self, i, eps)

    monkeypatch.setattr(StateGraph, "successors", counted)
    horizon = 12
    for t in _anchors_and_random_terms():
        for eps in REDUCTION_EPS:
            strategy = Strategy.peps(eps)
            calls.clear()
            evolve_trace(t, strategy, horizon)
            config = Configuration.dirac(t)
            live = set()
            for _ in range(horizon):
                live.update(c for c in config.masses if not is_normal_form(config.reps[c]))
                config = evolve(config, strategy)
            assert not any(normal for _, normal in calls)
            visited = [c for c, _ in calls]
            assert len(visited) == len(set(visited)) and set(visited) == live, (render(t), eps)


@given(
    st.integers(1, 2**200).flatmap(
        lambda den: st.tuples(
            st.integers(-(2**200), 2**200).filter(lambda n: math.gcd(n, den) == 1),
            st.just(den),
        )
    )
)
@example((0, 1))
@example((-3, 1))
@example((5, 7))
def test_coprime_is_the_fraction_in_lowest_terms(case):
    n, den = case
    got, want = pars._coprime(n, den), Fraction(n, den)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert hash(got) == hash(want) and repr(got) == repr(want)
    assert got == want and not got < want and got + want == 2 * want
    assert got < want + 1 and got + 1 == want + 1
    copy = pickle.loads(pickle.dumps(got))
    assert type(copy) is Fraction and (copy.numerator, copy.denominator) == (n, den)


@pytest.mark.parametrize("t", [I, EX2], ids=["I", "example2"])
def test_absorbed_trace_runs_to_the_horizon_in_zeros(t):
    horizon = 300
    eps = Fraction(5, 12)
    trace = evolve_trace(t, Strategy.peps(eps), horizon)
    assert trace.horizon == horizon
    absorbed = next(i for i, m in enumerate(trace.masses) if m == 0)
    assert absorbed <= 5
    assert trace.masses[absorbed:] == (0,) * (horizon + 1 - absorbed)
    s = trace.unreduced[absorbed][1]
    assert trace.unreduced[absorbed:] == ((0, s),) * (horizon + 1 - absorbed)
    assert expected_length_truncated(trace) == analyze(t, Strategy.peps(eps)).expected_length


@pytest.mark.parametrize(
    "eps", [Fraction(1, 3), Fraction(2, 7), Fraction(3, 10), Fraction(5, 12)], ids=str
)
def test_integer_trace_sums_match_fraction_formulas(eps):
    # every mass is N_i / d**s_i as Fraction's own gcd reduces it, at a
    # horizon long enough for d**s to reach hundreds of digits
    horizon = 300
    d = eps.denominator
    for entry in anchor_corpus():
        trace = evolve_trace(entry.term, Strategy.peps(eps), horizon)
        assert len(trace.unreduced) == horizon + 1
        assert trace.powers == tuple(d**k for k in range(trace.unreduced[-1][1] + 1))
        for mass, (n, s) in zip(trace.masses, trace.unreduced):
            want = Fraction(n, d**s)
            assert (mass.numerator, mass.denominator) == (want.numerator, want.denominator)
        masses = trace.masses
        drops = {i: a - b for i, (a, b) in enumerate(zip(masses, masses[1:])) if a != b}
        assert derivation_length_dist(trace) == drops, entry.term_id
        assert expected_length_truncated(trace) == sum(masses[1:], Fraction(0)), entry.term_id


@given(terms)
@settings(max_examples=60)
def test_trace_monotone_and_conserving(t):
    trace = evolve_trace(t, Strategy.peps(Fraction(1, 3)), 30)
    assert all(a >= b for a, b in zip(trace.masses, trace.masses[1:]))
    der = derivation_length_dist(trace)
    assert all(v > 0 for v in der.values())
    assert sum(der.values(), Fraction(0)) + trace.trailing_mass == 1


def test_derivation_length_dist_golden():
    trace = evolve_trace(EX1, HALF, 3)
    assert derivation_length_dist(trace) == {1: Fraction(1, 2), 2: Fraction(1, 4)}


def test_derivation_length_dist_zero_steps():
    assert derivation_length_dist(evolve_trace(I, HALF, 1)) == {0: Fraction(1)}


def test_derivation_length_dist_no_termination():
    assert derivation_length_dist(evolve_trace(OMEGA2, HALF, 4)) == {}


def test_chain_derivation_lengths_golden():
    chain = explore_states(EX1, HALF)
    assert chain_derivation_lengths(chain, 3) == {
        1: Fraction(1, 2),
        2: Fraction(1, 4),
        3: Fraction(1, 8),
    }
    assert chain_derivation_lengths(explore_states(I, HALF), 2) == {0: Fraction(1)}
    assert chain_derivation_lengths(explore_states(OMEGA2, HALF), 4) == {}


def test_trace_and_chain_derivation_lengths_agree():
    # a horizon-H trace determines Der(i) for i < H; the chain side is asked
    # for the same indices so the two domains coincide exactly
    horizon = 40
    for t in (EX1, EX2, mk_Mn(2), mk_Mn(4), OMEGA2):
        for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
            strategy = Strategy.peps(eps)
            from_trace = derivation_length_dist(evolve_trace(t, strategy, horizon))
            from_chain = chain_derivation_lengths(explore_states(t, strategy), horizon - 1)
            assert from_trace == from_chain


def test_expected_length_truncated_values():
    assert expected_length_truncated(evolve_trace(EX1, Strategy.lo(), 3)) == 1
    assert expected_length_truncated(evolve_trace(EX1, HALF, 3)) == Fraction(7, 4)
    assert expected_length_truncated(evolve_trace(OMEGA2, HALF, 3)) == 3


def test_truncation_gap_is_geometric_tail():
    for horizon in (1, 4, 9, 20):
        trace = evolve_trace(EX1, HALF, horizon)
        gap = 2 - expected_length_truncated(trace)
        assert gap == Fraction(1, 2) ** (horizon - 1)


def test_truncated_nondecreasing_in_horizon():
    values = [
        expected_length_truncated(evolve_trace(EX2, Strategy.peps(Fraction(1, 4)), h))
        for h in range(8)
    ]
    assert all(a <= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# chain exploration


def test_explore_states_figure_one_chain():
    chain = explore_states(EX1, HALF)
    forms = chain.graph.forms
    assert [forms[i] for i in chain.states] == [canonicalize(EX1)]
    row = {TRM if j == TRM else forms[j]: p for j, p in chain.rows[chain.states[0]]}
    assert row == {TRM: Fraction(1, 2), canonicalize(EX1): Fraction(1, 2)}


def test_explore_states_omega_self_loop():
    for strategy in (HALF, Strategy.lo(), Strategy.ri()):
        chain = explore_states(OMEGA2, strategy)
        assert len(chain.states) == 1
        assert dict(chain.rows[chain.states[0]]) == {chain.states[0]: Fraction(1)}


def test_explore_states_example2_seven_states():
    chain = explore_states(EX2, HALF)
    renders = [render(chain.rep(i)) for i in chain.states]
    assert renders == [
        "(\\x.x x) ((\\x.x) (\\x.x))",
        "(\\x.x) (\\x.x) ((\\x.x) (\\x.x))",
        "(\\x.x x) (\\x.x)",
        "(\\x.x) ((\\x.x) (\\x.x))",
        "(\\x.x) (\\x.x) (\\x.x)",
        "(\\x.x) (\\x.x)",
    ]  # six transient states plus the absorbing class


def test_explore_states_cap():
    with pytest.raises(StateCapExceeded) as err:
        explore_states(mk_Mn(3), HALF, state_cap=3)
    assert err.value.discovered == 4


def test_explore_states_normal_origin():
    chain = explore_states(I, HALF)
    assert chain.states == ()


# 1/2 is the eps grid_expected_lengths explores at
EXPLORE_ORACLE_EPS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 7))


def _assert_explore_matches_eager_oracle(t):
    for eps in EXPLORE_ORACLE_EPS:
        expected = explore_eagerly(t, eps, 200)
        try:
            chain = explore_states(t, Strategy.peps(eps), state_cap=200)
        except StateCapExceeded:
            assert expected is None
            continue
        forms = chain.graph.forms
        assert expected == (
            tuple(forms[i] for i in chain.states),
            [render(chain.rep(i)) for i in chain.states],
            {forms[i]: tuple((TRM if j == TRM else forms[j], p) for j, p in chain.rows[i])
             for i in chain.states},
        )


@given(
    st.integers(0, 10**9),
    st.sampled_from(list(SubCalculus)),
)
@settings(max_examples=100, deadline=None)
def test_explore_matches_eager_oracle_on_random_terms(seed, tag):
    _assert_explore_matches_eager_oracle(random_term(seed, 40, tag))


@pytest.mark.parametrize("entry", anchor_corpus(), ids=lambda e: e.term_id)
def test_explore_matches_eager_oracle_on_anchor_terms(entry):
    _assert_explore_matches_eager_oracle(entry.term)


@pytest.mark.parametrize("literal", [
    "(\\x.x x x) ((\\z.z) ((\\z.z) y))",  # dup: 3 copies, 2 identities
    "(\\x.\\y.x y) ((\\z.y z) y)",  # the argument's free y meets the binder y
    "(\\f.\\y.f (f y)) (\\x.(\\z.x y) x)",
])
def test_explore_matches_eager_oracle_on_capture_prone_terms(literal):
    _assert_explore_matches_eager_oracle(parse(literal))


def _assert_report_names_states_as_the_oracle(t):
    """to_report, which builds and names each state in one walk, prints the
    states as the named oracle does: each class's first-found reduct,
    contracted from its parent's by reduce_at and rendered afresh."""
    for eps in EXPLORE_ORACLE_EPS:
        expected = explore_eagerly(t, eps, 200)
        try:
            chain = analyze(t, Strategy.peps(eps), state_cap=200)
        except StateCapExceeded:
            assert expected is None
            continue
        report = chain.to_report()  # no representative is built before it
        assert report["origin"] == render(t)
        assert report["states"] == expected[1]


@given(terms)
@settings(max_examples=100, deadline=None)
def test_report_names_states_as_the_oracle_on_hypothesis_terms(t):
    _assert_report_names_states_as_the_oracle(t)


@given(st.integers(0, 10**9), st.sampled_from(list(SubCalculus)))
@settings(max_examples=100, deadline=None)
def test_report_names_states_as_the_oracle_on_random_terms(seed, tag):
    _assert_report_names_states_as_the_oracle(random_term(seed, 40, tag))


@pytest.mark.parametrize("literal", [
    "(\\f.\\y.f (f y)) (\\x.\\y.x y)",  # reducts rename the binder y to y1
    "\\y.(\\x.\\y.x y) ((\\w.w) y) ((\\z.z) y)",
    "(\\x.x x) (\\y.\\z.(\\x.\\z.x z) z)",
    "(\\w.c) ((\\x.x x) (\\y.y (\\z.y z)))",  # a 2-state component
])
def test_report_names_states_as_the_oracle_on_renaming_terms(literal):
    _assert_report_names_states_as_the_oracle(parse(literal))


def _assert_explored_rows_are_chain_rows(t):
    """The rows the breadth-first search builds are chain_rows' on the
    same graph, in the search's order."""
    for eps in EXPLORE_ORACLE_EPS:
        try:
            chain = explore_states(t, Strategy.peps(eps), state_cap=200)
        except StateCapExceeded:
            continue
        assert list(chain.rows) == list(chain.states)
        assert chain.rows == chain.graph.chain_rows(chain.states, eps)


@pytest.mark.parametrize("entry", anchor_corpus(), ids=lambda e: e.term_id)
def test_explored_rows_are_chain_rows_on_anchor_terms(entry):
    _assert_explored_rows_are_chain_rows(entry.term)


@given(st.integers(0, 10**9), st.sampled_from(list(SubCalculus)))
@settings(max_examples=60, deadline=None)
def test_explored_rows_are_chain_rows_on_random_terms(seed, tag):
    _assert_explored_rows_are_chain_rows(random_term(seed, 40, tag))


def test_rep_does_not_recurse_on_discovery_depth():
    # a balanced tree of identity redexes: LO contracts them left to right,
    # so each class is found from the one before while the terms stay shallow
    n = 1024
    level = [App(I, Var("y")) for _ in range(n)]
    while len(level) > 1:
        level = [App(a, b) for a, b in zip(level[::2], level[1::2])]
    graph = StateGraph()
    i = graph.intern(level[0])
    while not graph.is_normal(i):
        (i,) = graph.successors(i, Fraction(1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        last = graph.rep(i)
    finally:
        sys.setrecursionlimit(limit)
    assert i == n and canonicalize(last) == graph.forms[i]


def _assert_law_edges_match_named_oracle(t):
    """StateGraph.beta and anf list the classes of the oracle's named
    reducts in its order, from t and from each class they find; a class
    found from t is named as the oracle names it."""
    for edges_of, oracle in ((StateGraph.beta, beta_successors), (StateGraph.anf, anf_successors)):
        graph = StateGraph()
        root = graph.intern(t)
        ids = edges_of(graph, root)
        named = oracle(t)
        assert [graph.forms[j] for j in ids] == [canonicalize(u) for u in named]
        assert [graph.rep(j) for j in ids] == [t if j == root else u for j, u in zip(ids, named)]
        for j in ids:
            reducts = [canonicalize(u) for u in oracle(graph.rep(j))]
            assert [graph.forms[k] for k in edges_of(graph, j)] == reducts


@pytest.mark.parametrize("entry", anchor_corpus(), ids=lambda entry: entry.term_id)
def test_law_edges_match_named_oracle_on_anchor_terms(entry):
    _assert_law_edges_match_named_oracle(entry.term)


@given(terms)
def test_law_edges_match_named_oracle_on_generated_terms(t):
    _assert_law_edges_match_named_oracle(t)


@given(st.integers(0, 10**9), st.sampled_from(list(SubCalculus)))
@settings(max_examples=100, deadline=None)
def test_law_edges_match_named_oracle_on_random_terms(seed, tag):
    _assert_law_edges_match_named_oracle(random_term(seed, 40, tag))


@pytest.mark.parametrize("edges", ["beta", "anf"])
@pytest.mark.parametrize(
    "t",
    [mk_Mn(4), parse("(\\x.x x x) ((\\z.z) ((\\z.z) y))")],
    ids=["Mn:4", "dup"],
)
def test_law_closure_builds_no_representative(monkeypatch, edges, t):
    reduce_at = pars.reduce_at
    calls = []

    def counting(t, path, memo=None):
        calls.append(path)
        return reduce_at(t, path, memo)

    monkeypatch.setattr(pars, "reduce_at", counting)
    graph = StateGraph()
    order = graph.closure(graph.intern(t), getattr(graph, edges), 600)
    assert calls == [] and len(order) > 2
    last = graph.rep(order[-1])  # naming a class replays the steps that found it
    assert calls and canonicalize(last) == graph.forms[order[-1]]


# ---------------------------------------------------------------------------
# exact solving


def test_analyze_builds_no_representative(monkeypatch):
    # reduce_at builds every representative, and with a memo it names it too
    reduce_at, render = pars.reduce_at, pars.render
    built, rendered = [], []

    def building(t, path, memo=None):
        built.append(memo is not None)
        return reduce_at(t, path, memo)

    def rendering(t, memo=None):
        rendered.append(t)
        return render(t, memo)

    monkeypatch.setattr(pars, "reduce_at", building)
    monkeypatch.setattr(pars, "render", rendering)
    chain = analyze(mk_Mn(20), Strategy.peps(Fraction(1, 3)))
    assert built == [] and rendered == []
    report = chain.to_report()  # naming the states builds their representatives
    assert built == [True] * (len(chain.states) - 1)
    # only the origin is rendered apart; each other state is named as it is built
    assert rendered == [chain.rep(chain.origin)]
    assert report["states"] == [render(chain.rep(i)) for i in chain.states]


@pytest.mark.parametrize(
    "t",
    [mk_Mn(9), parse("(\\x.x x x x x x x x) ((\\z.z) ((\\z.z) ((\\z.z) y)))")],
    ids=["Mn:9", "dup"],
)
def test_one_render_memo_over_a_chain_gives_fresh_renders(t):
    chain = analyze(t, Strategy.peps(Fraction(3, 7)))
    memo: dict = {}
    shared = [render(chain.rep(i), memo) for i in chain.states]
    assert shared == [render(chain.rep(i)) for i in chain.states]
    assert chain.to_report()["states"] == shared
    inner_nodes = sum(_inner_nodes(chain.rep(i)) for i in chain.states)
    assert len(memo) < inner_nodes  # representatives do share subterms


def _inner_nodes(t) -> int:
    """Abstractions and applications in t, a shared one once per path to it."""
    stack, count = [t], 0
    while stack:
        node = stack.pop()
        if isinstance(node, App):
            stack += [node.fn, node.arg]
        elif not isinstance(node, Var):
            stack.append(node.body)
        else:
            continue
        count += 1
    return count


def test_one_state_components_skip_elimination(monkeypatch):
    solve_linear = pars._solve_linear
    calls = []

    def counting(matrix, rhs):
        calls.append(len(rhs))
        return solve_linear(matrix, rhs)

    monkeypatch.setattr(pars, "_solve_linear", counting)
    dup = parse("(\\x.x x x x) ((\\z.z) ((\\z.z) ((\\z.z) y)))")
    chain = analyze(dup, Strategy.peps(Fraction(3, 7)))
    assert len(chain.states) > 1 and chain.expected_length is not None
    assert calls == []


# Found by searching every term up to size 13 over one free variable for RI
# cycles: RI alternates between two classes of the argument, and every LO
# step erases it, so the run ends with LO's first step, after 1/eps steps on
# average.
MULTI_STATE = parse("(\\w.c) ((\\x.x x) (\\y.y (\\z.y z)))")


@pytest.mark.parametrize("eps", [Fraction(2, 7), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)],
                         ids=str)
def test_multi_state_component_is_solved_by_elimination(monkeypatch, eps):
    solve_linear = pars._solve_linear
    sizes = []

    def counting(matrix, rhs):
        sizes.append((len(matrix), len(rhs)))
        return solve_linear(matrix, rhs)

    monkeypatch.setattr(pars, "_solve_linear", counting)
    chain = analyze(MULTI_STATE, Strategy.peps(eps))
    assert sizes == [(2, 2)]  # the origin's one-state component needs none
    assert len(chain.states) == 3
    assert chain.termination_prob == 1 and chain.expected_length == 1 / eps
    assert solve_rows_dense(chain.states, chain.rows, chain.origin) == (1, 1 / eps)
    # the length is geometric: P(length >= k) = (1 - eps)**(k - 1) for k >= 1
    horizon = 40
    trace = evolve_trace(MULTI_STATE, Strategy.peps(eps), horizon)
    assert list(trace.masses[1:]) == [(1 - eps) ** (k - 1) for k in range(1, horizon + 1)]
    tail = trace.trailing_mass * (1 - eps) / eps  # the steps beyond the horizon
    assert expected_length_truncated(trace) + tail == 1 / eps
    est = estimate(MULTI_STATE, Strategy.peps(eps), base_seed=7, n=2000, max_steps=2000)
    assert est.cutoff_count == 0
    assert abs(est.mean - float(1 / eps)) <= 3 * est.confidence_halfwidth_95


def test_multi_state_component_gives_one_over_eps_through_grid_and_analyze():
    grid = (Fraction(1, 3), Fraction(2, 7), Fraction(1, 2))
    solved = grid_expected_lengths(MULTI_STATE, grid)
    for eps in grid:
        chain = analyze(MULTI_STATE, Strategy.peps(eps))
        want = _exact((Fraction(1), 1 / eps))
        assert _exact(solved[eps]) == want
        assert _exact((chain.termination_prob, chain.expected_length)) == want


def test_multi_state_component_never_terminates_under_ri():
    chain = analyze(MULTI_STATE, Strategy.ri())
    assert len(chain.states) == 3
    assert chain.termination_prob == 0 and chain.expected_length is None


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1), Fraction(1, 3)], ids=str)
@pytest.mark.parametrize(
    "t",
    [mk_Mn(12), parse("(\\x.x x x x) ((\\z.z) ((\\z.z) ((\\z.z) y)))"), MULTI_STATE],
    ids=["Mn:12", "dup", "multi-state"],
)
def test_analyze_contracts_each_side_once_and_runs_one_tarjan(monkeypatch, t, eps):
    contract, iter_sccs = pars.contract_canonical, pars.iter_sccs
    contracted, tarjans = [], []

    def counting_contract(c, rightmost):
        contracted.append((c, rightmost))
        return contract(c, rightmost)

    def counting_sccs(successors):
        tarjans.append(len(successors))
        return iter_sccs(successors)

    monkeypatch.setattr(pars, "contract_canonical", counting_contract)
    monkeypatch.setattr(pars, "iter_sccs", counting_sccs)
    chain = analyze(t, Strategy.peps(eps))
    sides = (True,) if eps == 0 else (False,) if eps == 1 else (False, True)
    forms = chain.graph.forms
    # each state in search order, RI alone at eps 0, LO alone at eps 1
    assert contracted == [(forms[i], rightmost) for i in chain.states for rightmost in sides]
    assert tarjans == [len(chain.states) + 1]  # one Tarjan, over the states and TRM
    chain.to_report()
    assert len(contracted) == len(chain.states) * len(sides)


@pytest.mark.parametrize("k", [20, 60])
@pytest.mark.parametrize("eps", [Fraction(1, 3), Fraction(2, 7)], ids=str)
def test_analyze_matches_mn_closed_form(k, eps):
    assert analyze(mk_Mn(k), Strategy.peps(eps)).expected_length == closed_form_mix_cost(k, eps)


def test_solver_one_over_eps():
    for eps, want in zip(GRID, (10, 4, 2, Fraction(4, 3), 1)):
        chain = analyze(EX1, Strategy.peps(eps))
        assert chain.termination_prob == 1
        assert chain.expected_length == want == 1 / eps


def test_solver_three_plus_eps():
    for eps in GRID:
        chain = analyze(EX2, Strategy.peps(eps))
        assert chain.termination_prob == 1
        assert chain.expected_length == 3 + eps


def test_solver_divergent_self_loop():
    chain = analyze(OMEGA2, HALF)
    assert chain.termination_prob == 0
    assert chain.expected_length is None


def test_solver_normal_origin():
    chain = analyze(I, HALF)
    assert chain.termination_prob == 1 and chain.expected_length == 0


def test_solver_degenerate_endpoints():
    for t in (EX2, mk_Mn(2), mk_Mn(3)):
        at_one = analyze(t, Strategy.peps(1))
        assert at_one.expected_length == n_steps(t, "lo", 100).steps
    # eps=0 is deterministic innermost; finite whenever RI terminates
    at_zero = analyze(EX2, Strategy.peps(0))
    assert at_zero.expected_length == n_steps(EX2, "ri", 100).steps == 3


def test_solver_eps_zero_divergent_marks_infinite():
    chain = analyze(EX1, Strategy.peps(0))
    assert chain.termination_prob == 0
    assert chain.expected_length is None


def test_solver_agrees_with_truncated_series():
    for t in (EX1, EX2, mk_Mn(2)):
        for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)):
            chain = analyze(t, Strategy.peps(eps))
            trace = evolve_trace(t, Strategy.peps(eps), 2000)
            gap = abs(expected_length_truncated(trace) - chain.expected_length)
            assert gap < Fraction(1, 10**6)


def test_solver_equals_finished_series_on_lambda_A_terms():
    # lambda-A terms are strongly normalizing, so a long enough series
    # finishes and its sum is the expected length exactly
    corpus = random_corpus(SubCalculus.LAMBDA_A, count=100, size_cap=26)
    multi_state = 0
    for eps in (Fraction(1, 3), Fraction(5, 7)):
        for entry in corpus:
            trace = evolve_trace(entry.term, Strategy.peps(eps), 300)
            chain = analyze(entry.term, Strategy.peps(eps))
            assert trace.trailing_mass == 0, entry.term_id
            assert expected_length_truncated(trace) == chain.expected_length, entry.term_id
            multi_state += len(chain.states) > 1
    assert multi_state >= 80  # not decided by one-state chains


def test_grid_matches_per_eps_analysis():
    grid = (Fraction(0),) + GRID
    for t in (EX1, EX2, mk_Mn(2), OMEGA2, I):
        solved = grid_expected_lengths(t, grid)
        for eps in grid:
            chain = analyze(t, Strategy.peps(eps))
            assert solved[eps] == (chain.termination_prob, chain.expected_length)


def _analysis_or_cap(t, strategy):
    """The solved chain without its strategy name, or the cap overrun."""
    try:
        return replace(analyze(t, strategy, state_cap=200), strategy_name="")
    except StateCapExceeded as exc:
        return exc.discovered


@given(terms)
@settings(max_examples=60, deadline=None)
def test_lo_and_ri_are_the_mixture_endpoints(t):
    for named, mixture in (
        (Strategy.lo(), Strategy.peps(1)),
        (Strategy.ri(), Strategy.peps(0)),
    ):
        assert _analysis_or_cap(t, named) == _analysis_or_cap(t, mixture)
        assert evolve_trace(t, named, 8) == evolve_trace(t, mixture, 8)
        for seed in (0, 7):
            assert sample_run(t, named, seed, 40) == sample_run(t, mixture, seed, 40)


def test_solve_rows_partial_absorption_synthetic():
    # not reachable through the mixture strategy (termination is 0/1 there),
    # but the solver must still handle chains that absorb with prob < 1
    from lambdalab.pars import _solve_rows

    a, b, c = ("f", "a"), ("f", "b"), ("f", "c")
    rows = {
        a: ((b, Fraction(1, 2)), (c, Fraction(1, 2))),
        b: ((TRM, Fraction(1)),),
        c: ((c, Fraction(1)),),
    }
    termination, expected = _solve_rows((a, b, c), rows, a)
    assert termination == Fraction(1, 2) and expected is None
    # restricted to the absorbing-for-sure start, the expectation is exact
    termination, expected = _solve_rows((b,), {b: ((TRM, Fraction(1)),)}, b)
    assert termination == 1 and expected == 1


# the dense solver the component-by-component one replaced is the oracle

SOLVER_ORACLE_EPS = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 7))


def _assert_matches_dense_oracle(t):
    for eps in SOLVER_ORACLE_EPS:
        try:
            chain = explore_states(t, Strategy.peps(eps), state_cap=300)
        except StateCapExceeded:
            continue
        args = (chain.states, chain.rows, chain.origin)
        assert _exact(_solve_rows(*args)) == _exact(solve_rows_dense(*args))


def _exact(solved):
    """(termination, expected) by type, numerator and denominator, so that
    an int, or a Fraction that is not in lowest terms, does not pass for
    an equal Fraction."""
    return tuple(
        None if x is None else (type(x), x.numerator, x.denominator) for x in solved
    )


@given(
    st.integers(0, 10**9),
    st.sampled_from([SubCalculus.FULL, SubCalculus.LAMBDA_I, SubCalculus.LAMBDA_A]),
)
@settings(max_examples=100, deadline=None)
def test_solver_matches_dense_oracle_on_random_terms(seed, tag):
    _assert_matches_dense_oracle(random_term(seed, 40, tag))


@pytest.mark.parametrize("entry", anchor_corpus(), ids=lambda e: e.term_id)
def test_solver_matches_dense_oracle_on_anchor_terms(entry):
    # Omega, example1 and Mn:k have self-loops and divergent endpoints
    _assert_matches_dense_oracle(entry.term)


@st.composite
def _synthetic_specs(draw):
    """Row i of a synthetic chain as {target: weight}, -1 standing for TRM."""
    n = draw(st.integers(1, 7))
    targets = st.integers(-1, n - 1)
    return [
        draw(st.dictionaries(targets, st.integers(1, 4), min_size=1, max_size=4))
        for _ in range(n)
    ]


def _synthetic_chain(spec):
    """States ("s", i) listed last to first, and their rows as Fractions."""
    states = tuple(("s", i) for i in reversed(range(len(spec))))
    rows = {}
    for i, weights in enumerate(spec):
        total = sum(weights.values())
        rows[("s", i)] = tuple(
            (TRM if j < 0 else ("s", j), Fraction(w, total)) for j, w in weights.items()
        )
    return states, rows


@given(_synthetic_specs())
@example([{1: 1, 2: 1}, {-1: 1}, {2: 1}])  # partial absorption into a closed loop
@example([{1: 1}, {0: 1, 2: 1}, {-1: 2, 3: 1}, {3: 1, 4: 1}, {3: 1}])  # 2-state SCCs, one closed
@example([{1: 1, 2: 1}, {0: 1}, {-1: 1, 2: 1}])  # a cycle leading to sure absorption
@example([{0: 1}])  # a closed class on its own
@example([{0: 1, -1: 1}])  # one state with a self-loop, sure absorption
@example([{0: 1, 1: 1, -1: 1}, {1: 1}])  # one state with a self-loop, h = 1/2
@example([{0: 1, 1: 1}, {1: 1}])  # one state with a self-loop, no absorption
# a 2-state component with one-state components upstream and downstream
@example([{1: 1}, {2: 1}, {1: 1, 3: 1}, {3: 1, -1: 1}])  # all sure, a self-loop below
@example([{1: 1, 4: 1}, {2: 1}, {1: 1, 3: 1}, {-1: 1}, {4: 1}])  # partial absorption above
@example([{1: 1}, {2: 1, 3: 1}, {1: 1, 4: 1}, {-1: 1}, {4: 1}])  # partial inside, h = 1/2
@example([{1: 1, 2: 1}, {2: 1, 3: 1}, {3: 1, 1: 1}, {-1: 1, 3: 1}, {0: 1}])  # a feeder above
@settings(max_examples=300, deadline=None)
def test_solver_matches_dense_oracle_on_synthetic_chains(spec):
    states, rows = _synthetic_chain(spec)
    for origin in states:
        termination, expected = solved = _solve_rows(states, rows, origin)
        assert _exact(solved) == _exact(solve_rows_dense(states, rows, origin))
        assert type(termination) is Fraction  # never the int 0 or 1
        assert expected is None or type(expected) is Fraction


# ---------------------------------------------------------------------------
# strongly connected components


@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, n - 1), max_size=3), min_size=n, max_size=n)
))
@settings(max_examples=200)
def test_sccs_partition_by_mutual_reachability_sinks_first(successors):
    n = len(successors)
    reach = [{i} for i in range(n)]
    for _ in range(n):
        for i in range(n):
            for j in successors[i]:
                reach[i] |= reach[j]
    components = list(iter_sccs(successors))
    assert sorted(v for c in components for v in c) == list(range(n))
    where = {v: k for k, c in enumerate(components) for v in c}
    for i in range(n):
        for j in range(n):
            assert (where[i] == where[j]) == (j in reach[i] and i in reach[j])
        for j in successors[i]:
            assert where[j] <= where[i]  # a component after those it leads to


def test_iter_sccs_yields_each_component_as_it_closes():
    visited = []

    def out(v, targets):
        visited.append(v)
        yield from targets

    components = iter_sccs([out(0, []), out(1, [2]), out(2, [1, 0])])
    assert next(components) == [0] and visited == [0]
    assert sorted(next(components)) == [1, 2] and visited == [0, 1, 2]
    assert next(components, None) is None


def test_sccs_do_not_recurse_on_deep_graphs():
    n = 200_000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        path = list(iter_sccs([[i + 1] for i in range(n - 1)] + [[]]))
        cycle = list(iter_sccs([[(i + 1) % n] for i in range(n)]))
    finally:
        sys.setrecursionlimit(limit)
    assert path == [[i] for i in reversed(range(n))]
    assert len(cycle) == 1 and sorted(cycle[0]) == list(range(n))


def test_solve_is_pure():
    skeleton = explore_states(EX1, HALF)
    solved = solve_expected_length(skeleton)
    assert skeleton.solved is False and skeleton.termination_prob is None
    assert solved.solved and solved.expected_length == 2
    assert solved.states == skeleton.states


def test_chain_report_round_trip():
    report = analyze(EX1, HALF).to_report()
    assert report["expected_length"] == "2/1"
    assert report["termination_prob"] == "1/1"
    assert report["states"] == ["(\\x.y) ((\\x.x x) (\\x.x x))"]
    assert {(t["from"], t["to"], t["prob"]) for t in report["transitions"]} == {
        (0, "trm", "1/2"),
        (0, 0, "1/2"),
    }


# ---------------------------------------------------------------------------
# the expectation bound


def test_check_foster_equality_case():
    chain = analyze(EX1, Strategy.peps(Fraction(1, 2)))
    assert chain.expected_length == foster_bound(EX1, Fraction(1, 2)) == 2


def test_check_foster_strict_case():
    chain = analyze(EX2, Strategy.peps(Fraction(1, 2)))
    assert chain.expected_length == Fraction(7, 2)
    assert foster_bound(EX2, Fraction(1, 2)) == 8


def test_check_foster_normal_form():
    chain = analyze(I, Strategy.peps(Fraction(1, 2)))
    assert chain.expected_length == foster_bound(I, Fraction(1, 2)) == 0


def test_check_foster_inconclusive_on_divergence():
    assert foster_bound(OMEGA2, Fraction(1, 2), fuel=50) is None


def test_check_foster_rejects_zero_eps():
    with pytest.raises(InvalidEpsilon):
        foster_bound(EX1, 0)


def test_check_foster_random_wn_terms():
    for seed in range(40):
        t = random_term(seed, 10)
        for eps in (Fraction(1, 4), Fraction(3, 4)):
            bound = foster_bound(t, eps, fuel=200)
            if bound is None:
                break
            chain = analyze(t, Strategy.peps(eps))
            assert chain.termination_prob == 1
            assert chain.expected_length <= bound


# one-state components, solved in integers, against the dense oracle

E = Fraction(2, 7)
ONE_STATE_CHAINS = {
    # self-loop of weight eps, then of weight 1 - eps
    "loop_eps": {0: ((0, E), (TRM, 1 - E))},
    "loop_one_minus_eps": {0: ((TRM, E), (0, 1 - E))},
    # a chain of one-state components, each fed the value downstream
    "loops_in_series": {
        0: ((1, E), (0, 1 - E)),
        1: ((2, Fraction(1, 2)), (1, Fraction(1, 2))),
        2: ((TRM, Fraction(5, 9)), (2, Fraction(4, 9))),
    },
    # absorbed with probability 1/3: one exit is absorbed, one never is
    "partial_absorption": {
        0: ((0, Fraction(1, 4)), (1, Fraction(1, 4)), (2, Fraction(1, 2))),
        1: ((TRM, Fraction(1)),),
        2: ((2, Fraction(1)),),
    },
    # absorbed with probability 0: the only exit loops for ever
    "never_absorbed": {0: ((0, E), (1, 1 - E)), 1: ((1, Fraction(1)),)},
}


@pytest.mark.parametrize("name", ONE_STATE_CHAINS)
def test_one_state_components_match_dense_oracle(name):
    rows = ONE_STATE_CHAINS[name]
    states = tuple(rows)
    successors = [[j for j, _ in rows[i] if j != TRM] for i in states]
    assert all(len(c) == 1 for c in iter_sccs(successors))
    for origin in states:
        got = _solve_rows(states, rows, origin)
        assert got == solve_rows_dense(states, rows, origin)
        for x in got:
            assert x is None or (type(x) is Fraction and math.gcd(x.numerator, x.denominator) == 1)
    termination, expected = _solve_rows(states, rows, 0)
    if name == "loop_eps":
        assert (termination, expected) == (1, 1 / (1 - E))
    elif name == "loop_one_minus_eps":
        assert (termination, expected) == (1, 1 / E)
    elif name == "partial_absorption":
        assert (termination, expected) == (Fraction(1, 3), None)
    elif name == "never_absorbed":
        assert (termination, expected) == (0, None)
