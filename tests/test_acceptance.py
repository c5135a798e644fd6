"""Acceptance suite: the ten headline criteria, one test each.

Each test prints a PASS/FAIL line (visible with -s or in captured output)
and asserts the criterion at its stated tolerance; exact-equality checks
use rationals end to end.  Shared corpora are built once per session.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from lambdalab import laws, repro
from lambdalab.pars import EvolutionTrace, derivation_length_dist, evolve_trace
from lambdalab.strategies import Strategy
from lambdalab.terms import mk_Mn


@pytest.fixture(scope="module")
def corpora():
    return laws.default_corpora()


def _check(result):
    print(result.line())
    assert result.passed, f"{result.title}: {result.detail}"


def test_criterion_01_cancelling_example_golden():
    _check(repro.criterion_1())


def test_criterion_02_duplicating_example_golden():
    result = repro.criterion_2()
    _check(result)
    assert result.detail == (
        "LO: (\\x.x x) ((\\x.x) (\\x.x)) -> (\\x.x) (\\x.x) ((\\x.x) (\\x.x))"
        " -> (\\x.x) ((\\x.x) (\\x.x)) -> (\\x.x) (\\x.x) -> \\x.x"
        " | RI: (\\x.x x) ((\\x.x) (\\x.x)) -> (\\x.x x) (\\x.x) -> (\\x.x) (\\x.x) -> \\x.x"
    )


def test_criterion_03_one_over_eps_exact():
    _check(repro.criterion_3())


def test_criterion_04_three_plus_eps_exact():
    _check(repro.criterion_4())


def test_criterion_05_expectation_bound_over_corpus(corpora):
    _check(repro.criterion_5(corpora))


def test_criterion_06_mixed_cost_family():
    _check(repro.criterion_6())


def test_criterion_07_subcalculus_grid_minima(corpora):
    _check(repro.criterion_7(corpora["lambda-A"], corpora["lambda-I"]))


def test_criterion_08_core_law_suite(corpora):
    _check(repro.criterion_8(corpora))


def test_criterion_09_evolution_semantics():
    _check(repro.criterion_9())


def test_criterion_09_reports_a_rising_mass(monkeypatch):
    # masses 1, 1/2, 3/4 over d = 2: the second drop is -1/4, yet the drops
    # and the trailing mass still sum to 1, so only monotonicity fails
    rising = EvolutionTrace(
        masses=(Fraction(1), Fraction(1, 2), Fraction(3, 4)),
        unreduced=((1, 0), (1, 1), (3, 2)), base=2, powers=(1, 2, 4),
    )
    monkeypatch.setattr(repro, "evolve_trace", lambda t, strategy, horizon: rising)
    result = repro.criterion_9()
    assert not result.passed
    assert "masses increased" in result.detail
    assert "mass not conserved" not in result.detail


def _composite_base_trace():
    """A trace at d = 10 with its drops, one of which is reduced to a
    denominator that divides a power of 10 without being one."""
    trace = evolve_trace(mk_Mn(4), Strategy.peps(Fraction(1, 10)), 200)
    drops = derivation_length_dist(trace)
    powers = set(trace.powers)
    odd = next(i for i, drop in drops.items() if drop.denominator not in powers)
    return trace, drops, odd


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 4), Fraction(2, 7)], ids=str)
def test_mass_check_passes_exact_traces(eps):
    for entry in laws.anchor_corpus():
        trace = evolve_trace(entry.term, Strategy.peps(eps), 200)
        assert repro._mass_conserved(derivation_length_dist(trace), trace), entry.term_id
    trace, drops, _ = _composite_base_trace()
    assert repro._mass_conserved(drops, trace)


def test_mass_check_fails_a_wrongly_reduced_drop():
    trace, drops, odd = _composite_base_trace()
    power = next(i for i, drop in drops.items() if drop.denominator in set(trace.powers))
    for i in (odd, power):
        drop = drops[i]
        # the first keeps a power of d as its denominator, the others do not
        for wrong in (Fraction(drop.numerator + 10, drop.denominator),
                      Fraction(drop.numerator + 1, drop.denominator),
                      Fraction(drop.numerator, 2 * drop.denominator)):
            assert not repro._mass_conserved({**drops, i: wrong}, trace)
    # a drop at a step the trace does not have
    for i in (-1, trace.horizon, trace.horizon + 1):
        assert not repro._mass_conserved({**drops, i: drops[odd]}, trace)


def test_mass_check_fails_a_wrong_trailing_mass(monkeypatch):
    trace, drops, _ = _composite_base_trace()
    tail = trace.trailing_mass
    for wrong in (Fraction(tail.numerator + 10, tail.denominator),
                  Fraction(tail.numerator, 2 * tail.denominator)):
        masses = trace.masses[:-1] + (wrong,)
        assert not repro._mass_conserved(drops, replace(trace, masses=masses))
    # criterion 9 reports it, and only it
    shifted = EvolutionTrace(
        masses=(Fraction(1), Fraction(1), Fraction(1, 3)),
        unreduced=((1, 0), (2, 1), (1, 2)), base=2, powers=(1, 2, 4),
    )
    monkeypatch.setattr(repro, "evolve_trace", lambda t, strategy, horizon: shifted)
    result = repro.criterion_9()
    assert not result.passed
    assert "mass not conserved" in result.detail
    assert "masses increased" not in result.detail


def test_criterion_10_monte_carlo_consistency():
    _check(repro.criterion_10())
