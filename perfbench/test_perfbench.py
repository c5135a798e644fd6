"""The benchmark's own checks: its oracles agree with lambdalab on small
cases, a wrong oracle makes jobs fail, and tracing changes no output."""

from fractions import Fraction

import pytest

from lambdalab import analyze, mk_example1, mk_example2, mk_Mn, parse, strategies, terms
from lambdalab.strategies import Strategy

import harness
import jobs
import oracles
import tracing

EPS = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(9, 10))


def _exact(t, e):
    return analyze(t, Strategy.peps(e)).expected_length


@pytest.mark.parametrize("e", EPS)
def test_closed_forms_match_analyze(e):
    assert oracles.example1_expected(e) == _exact(mk_example1(), e)
    assert oracles.example2_expected(e) == _exact(mk_example2(), e)
    for k in range(1, 7):
        assert oracles.mn_expected(k, e) == _exact(mk_Mn(k), e)
    for k, d in ((1, 1), (2, 1), (3, 2), (2, 3), (4, 2), (3, 3)):
        assert oracles.dup_expected(k, d, e) == _exact(parse(oracles.dup_term(k, d)), e)


def _small_jobs():
    e = Fraction(2, 7)
    return [
        jobs.mn_analyze_job(4, e),
        jobs.dup_analyze_job(3, 2, e),
        jobs.series_job("example1", e, 80),
        jobs.series_job("example2", e, 10),
        jobs.series_job("dup:2:2", e, 10),
        jobs.series_job("Mn:3", Fraction(1, 2), 120),
        jobs.mc_job("example2", Fraction(2, 5), 7, 300),
        jobs.mc_job("Mn:6", Fraction(3, 7), 8, 300),
    ]


def _fail_ratio(job_list):
    outcomes = [harness.attempt(job, i, 0) for i, job in enumerate(job_list)]
    return harness.end_to_end(outcomes, [(0.1, 0.1)], 1.0)["fail_ratio"][0], outcomes


def test_small_jobs_pass():
    ratio, outcomes = _fail_ratio(_small_jobs())
    assert ratio == 0, [o.error for o in outcomes if o.error]
    assert all(o.items > 0 for o in outcomes)


@pytest.mark.parametrize("oracle", ["mn_expected", "dup_expected",
                                    "example1_expected", "example2_expected"])
def test_perturbed_oracle_fails_jobs(monkeypatch, oracle):
    real = getattr(oracles, oracle)
    monkeypatch.setattr(oracles, oracle, lambda *a: real(*a) + Fraction(1, 100))
    ratio, _ = _fail_ratio(_small_jobs())
    assert ratio > 0


def test_traced_outputs_match_and_hooks_are_restored():
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr, *_ in tracing.SPAN_HOOKS + tracing.COUNT_HOOKS}
    tracer = tracing.Tracer()
    outcomes, rounds = harness.run_traced(_small_jobs(), 0, tracer)
    assert rounds == 1
    assert [o.error for o in outcomes] == [None] * len(outcomes)
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn
    assert strategies.redexes is terms.redexes
    assert tracer.missing == set()
    layers = tracing.layer_metrics(tracer, rounds, 1.0, 0.5)
    assert layers["montecarlo.draws"][0] > 0
    assert layers["montecarlo.rejections"][0] > 0
    assert layers["pars.solve.acyclic_share"][0] == 0.5  # Mn:4 cyclic, dup acyclic
    # every span's time lies within its job's root span
    roots = {s[0]: s for s in tracer.spans if s[3] == tracing.HARNESS_JOB}
    assert len(roots) == len(outcomes)
    total_self = sum(stat[1] for stat in tracer.stats.values())
    total_root = sum(s[5] - s[4] for s in roots.values())
    assert total_self == pytest.approx(total_root)


def test_rounds_depend_on_seed_only():
    labels = [j.label for j in jobs.build("chain_mn", 3)]
    assert labels == [j.label for j in jobs.build("chain_mn", 3)]
    assert labels != [j.label for j in jobs.build("chain_mn", 4)]
    assert sorted(labels) != sorted(j.label for j in jobs.build("chain_mn", 4))


def test_tail_takes_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(1, 201)]
    assert harness.tail(times) == (95.0, 190.0)
    assert harness.tail(times[:5]) == (100.0, 5.0)
