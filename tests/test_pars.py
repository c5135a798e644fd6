import sys
from dataclasses import replace
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from lambdalab.laws import anchor_corpus
from lambdalab.montecarlo import sample_run
from lambdalab.pars import (
    TRM,
    Configuration,
    StateCapExceeded,
    _solve_rows,
    analyze,
    chain_derivation_lengths,
    check_foster,
    derivation_length_dist,
    evolve,
    evolve_trace,
    expected_length_truncated,
    explore_states,
    grid_expected_lengths,
    sccs,
    solve_expected_length,
)
from lambdalab.strategies import InvalidEpsilon, Strategy, n_steps
from lambdalab.terms import (
    SubCalculus,
    Var,
    canonicalize,
    mk_I,
    mk_Mn,
    mk_Omega,
    mk_example1,
    mk_example2,
    random_term,
    render,
)

from conftest import terms
from dense_solver import solve_rows_dense

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


@given(terms)
@settings(max_examples=60)
def test_evolve_trace_matches_iterated_evolve(t):
    trace = evolve_trace(t, HALF, 5)
    config = Configuration.dirac(t)
    masses = [config.mass]
    for _ in range(5):
        config = evolve(config, HALF)
        masses.append(config.mass)
    assert list(trace.masses) == masses


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
    assert chain.states == (canonicalize(EX1),)
    row = dict(chain.rows[canonicalize(EX1)])
    assert row == {TRM: Fraction(1, 2), canonicalize(EX1): Fraction(1, 2)}


def test_explore_states_omega_self_loop():
    for strategy in (HALF, Strategy.lo(), Strategy.ri()):
        chain = explore_states(OMEGA2, strategy)
        assert len(chain.states) == 1
        assert dict(chain.rows[chain.states[0]]) == {chain.states[0]: Fraction(1)}


def test_explore_states_example2_seven_states():
    chain = explore_states(EX2, HALF)
    renders = [render(chain.reps[c]) for c in chain.states]
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


# ---------------------------------------------------------------------------
# exact solving


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

ORACLE_EPS = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 7))


def _assert_matches_dense_oracle(t):
    for eps in ORACLE_EPS:
        try:
            chain = explore_states(t, Strategy.peps(eps), state_cap=300)
        except StateCapExceeded:
            continue
        args = (chain.states, chain.rows, chain.origin)
        assert _solve_rows(*args) == solve_rows_dense(*args)


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
@settings(max_examples=300, deadline=None)
def test_solver_matches_dense_oracle_on_synthetic_chains(spec):
    states, rows = _synthetic_chain(spec)
    for origin in states:
        assert _solve_rows(states, rows, origin) == solve_rows_dense(states, rows, origin)


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
    components = sccs(successors)
    assert sorted(v for c in components for v in c) == list(range(n))
    where = {v: k for k, c in enumerate(components) for v in c}
    for i in range(n):
        for j in range(n):
            assert (where[i] == where[j]) == (j in reach[i] and i in reach[j])
        for j in successors[i]:
            assert where[j] <= where[i]  # a component after those it leads to


def test_sccs_do_not_recurse_on_deep_graphs():
    n = 200_000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        path = sccs([[i + 1] for i in range(n - 1)] + [[]])
        cycle = sccs([[(i + 1) % n] for i in range(n)])
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
    report = check_foster(EX1, Fraction(1, 2))
    assert report.status == "holds" and report.reason == "equality"
    assert report.expected_length == 2 and report.bound == 2


def test_check_foster_strict_case():
    report = check_foster(EX2, Fraction(1, 2))
    assert report.status == "holds"
    assert report.expected_length == Fraction(7, 2) and report.bound == 8


def test_check_foster_normal_form():
    report = check_foster(I, Fraction(1, 2))
    assert report.status == "holds"
    assert report.expected_length == 0 and report.bound == 0


def test_check_foster_inconclusive_on_divergence():
    report = check_foster(OMEGA2, Fraction(1, 2), fuel=50)
    assert report.status == "inconclusive"


def test_check_foster_rejects_zero_eps():
    with pytest.raises(InvalidEpsilon):
        check_foster(EX1, 0)


def test_check_foster_random_wn_terms():
    for seed in range(40):
        t = random_term(seed, 10)
        if not n_steps(t, "lo", 200).finite:
            continue
        for eps in (Fraction(1, 4), Fraction(3, 4)):
            assert check_foster(t, eps).status == "holds"
