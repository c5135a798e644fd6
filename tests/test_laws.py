from fractions import Fraction

import pytest

from lambdalab.laws import (
    CorpusTerm,
    DEFAULT_GRID,
    GRID_WITH_ZERO,
    LawReport,
    _acyclic,
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
)
from lambdalab.terms import (
    SubCalculus,
    is_lambda_A,
    is_lambda_I,
    mk_Mn,
    mk_Omega,
    mk_example1,
)


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


def test_run_suite_single_law(small_corpora):
    reports = run_suite("eps_minimum", corpora=small_corpora, count=40)
    assert [r.law_id for r in reports] == ["eps_minimum_at_1", "eps_minimum_at_0"]
    assert all(r.passed for r in reports)


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
