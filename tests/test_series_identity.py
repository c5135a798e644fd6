"""The exact identity between the truncated series and the solver.

After H steps of the eps-mixture, m_H(j) is the mass on class j.  The
Markov property at step H splits the expected derivation length into the
series' first H terms and the expected lengths k_j still to go, and the
termination probability into the mass absorbed by step H and the
absorption probabilities h_j (h = 1 and k = 0 on normal forms):

    E[T] = expected_length_truncated(evolve_trace(t, s, H)) + sum_j m_H(j) k_j
    P(termination) = 1 - |rho_H| + sum_j m_H(j) h_j

the first for a chain that terminates with probability 1.  m_H comes from
the named evolution of evolution_oracle and (h_j, k_j) from
pars._solve_rows on analyze's chain, so the two sides share no graph, and
both hold exactly at every horizon, not only in the limit.
"""

from fractions import Fraction

import pytest

from lambdalab.laws import anchor_corpus
from lambdalab.pars import _solve_rows, analyze, evolve_trace, expected_length_truncated
from lambdalab.strategies import Strategy
from lambdalab.terms import SubCalculus, mk_Mn, mk_example1, parse, random_term

from evolution_oracle import Configuration, evolve

IDENTITY_EPS = tuple(map(Fraction, ("0", "2/7", "1/3", "1/2", "1")))
HORIZONS = (0, 1, 3, 20)
TWO_STATE = r"(\w.c) ((\x.x x) (\y.y (\z.y z)))"  # its chain has a 2-state component


def _masses_at(t, strategy) -> dict:
    """m_H for each H in HORIZONS, mapping canonical forms to Fractions."""
    config, out = Configuration.dirac(t), {}
    for step in range(HORIZONS[-1] + 1):
        if step in HORIZONS:
            out[step] = config.masses
        config = evolve(config, strategy)
    return out


def _identity_failures(t, eps, trace_eps=None) -> list:
    """(H, side) for each identity that fails for t at eps; the series is
    evolved at trace_eps, which is eps unless a fault is planted."""
    chain = analyze(t, Strategy.peps(eps))
    graph, values = chain.graph, {}  # class id -> (h, k)
    trace_strategy = Strategy.peps(eps if trace_eps is None else trace_eps)
    failures = []
    for horizon, masses in _masses_at(t, Strategy.peps(eps)).items():
        trace = evolve_trace(t, trace_strategy, horizon)
        absorbed, to_go = 1 - trace.trailing_mass, Fraction(0)
        for c, m in masses.items():
            i = graph.ids[c]
            if graph.is_normal(i):
                h, k = 1, 0
            else:
                if i not in values:
                    values[i] = _solve_rows(chain.states, chain.rows, i)
                h, k = values[i]
            absorbed += m * h
            if k is not None:
                to_go += m * k
        if absorbed != chain.termination_prob:
            failures.append((horizon, "termination"))
        if chain.termination_prob == 1:
            if expected_length_truncated(trace) + to_go != chain.expected_length:
                failures.append((horizon, "expected length"))
    return failures


def _assert_identity(terms) -> None:
    for t in terms:
        for eps in IDENTITY_EPS:
            assert _identity_failures(t, eps) == [], (t, eps)


def test_identity_on_anchors_and_the_two_state_term():
    _assert_identity([e.term for e in anchor_corpus()] + [parse(TWO_STATE)])


@pytest.mark.parametrize("tag", list(SubCalculus), ids=lambda tag: tag.value)
def test_identity_on_random_terms(tag):
    _assert_identity(random_term(seed, 20, tag) for seed in range(250))


@pytest.mark.parametrize("t", [mk_example1(), mk_Mn(4)], ids=["example1", "Mn:4"])
def test_identity_fails_for_a_series_evolved_at_one_minus_eps(t):
    eps = Fraction(2, 7)
    assert (20, "expected length") in _identity_failures(t, eps, trace_eps=1 - eps)
