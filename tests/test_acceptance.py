"""Acceptance suite: the ten headline criteria, one test each.

Each test prints a PASS/FAIL line (visible with -s or in captured output)
and asserts the criterion at its stated tolerance; exact-equality checks
use rationals end to end.  Shared corpora are built once per session.
"""

import pytest

from lambdalab import laws, repro


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


def test_criterion_10_monte_carlo_consistency():
    _check(repro.criterion_10())
