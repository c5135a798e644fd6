from fractions import Fraction
from itertools import islice

import pytest

import sampling_oracle as oracle
from lambdalab import montecarlo
from lambdalab.laws import random_corpus
from lambdalab.montecarlo import Estimate, SplitMix64, estimate, sample_run
from lambdalab.strategies import StepCount, Strategy, walk
from lambdalab.terms import (
    SubCalculus,
    Var,
    canonicalize,
    mk_I,
    mk_Mn,
    mk_Omega,
    mk_example1,
    mk_example2,
    parse,
)

EX1 = mk_example1()
EX2 = mk_example2()
HALF = Strategy.peps(Fraction(1, 2))


def test_splitmix64_reference_vectors():
    # published outputs of SplitMix64 for seed 0; pins the generator
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_below_is_exact_range():
    rng = SplitMix64(42)
    draws = [rng.below(10) for _ in range(1000)]
    assert all(0 <= d < 10 for d in draws)
    assert set(draws) == set(range(10))


def _below_one_word(rng, n):
    """below as it is for n <= 2**64: the top bits of one output."""
    shift = 64 - (n - 1).bit_length()
    while True:
        r = rng.next_u64() >> shift
        if r < n:
            return r


BELOW_ONE_WORD = sorted(
    {1, 2, 3, 5, 7, 10, 11, 99, 1000, 99999999999}
    | {2**k + d for k in range(1, 64) for d in (-1, 0, 1)}
    | {2**64 - 1, 2**64}
)


def test_splitmix64_below_keeps_its_stream_up_to_two_to_the_64():
    for seed in (0, 1, 12345):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        for n in BELOW_ONE_WORD:
            assert [rng.below(n) for _ in range(8)] == [_below_one_word(ref, n) for _ in range(8)]
            assert rng.state == ref.state


def test_splitmix64_below_joins_words_high_first():
    words = SplitMix64(7)
    w = [words.next_u64() for _ in range(4)]
    assert SplitMix64(7).below(2**128) == (w[0] << 64) | w[1]
    assert SplitMix64(7).below(2**65) == ((w[0] << 64) | w[1]) >> 63
    assert SplitMix64(7).below(2**192) == (((w[0] << 64) | w[1]) << 64) | w[2]


def _chi_square(counts, expected):
    return sum((c - expected) ** 2 / expected for c in counts)


def test_splitmix64_below_is_uniform_above_two_to_the_64():
    # n = 3 * 2**64 + 1 takes two words and keeps 66 bits; 16 equal-width
    # buckets by value and 16 by low bits, 12 800 draws on a fixed seed.
    # 37.70 is the 0.999 quantile of chi-square with 15 degrees of freedom.
    n, draws, buckets = 3 * 2**64 + 1, 12_800, 16
    rng = SplitMix64(2024)
    values = [rng.below(n) for _ in range(draws)]
    assert all(0 <= r < n for r in values)
    by_value, by_low = [0] * buckets, [0] * buckets
    for r in values:
        by_value[r * buckets // n] += 1
        by_low[r % buckets] += 1
    assert _chi_square(by_value, draws / buckets) < 37.70
    assert _chi_square(by_low, draws / buckets) < 37.70
    assert max(values) > 2**65  # the high word reaches the top of the range


def test_eps_one_is_deterministic_lo():
    for seed in (0, 7, 12345):
        result = sample_run(EX1, Strategy.peps(1), seed, 50)
        assert result.steps == StepCount.reached(1)
        assert result.final == canonicalize(Var("y"))


def test_eps_zero_diverges_to_cutoff():
    result = sample_run(EX1, Strategy.peps(0), seed=3, max_steps=50)
    assert result.steps == StepCount.exhausted(50)
    assert result.final is None


def test_normal_form_takes_zero_steps():
    result = sample_run(mk_I(), HALF, seed=11, max_steps=50)
    assert result.steps == StepCount.reached(0)


def test_sample_run_deterministic():
    a = sample_run(EX2, HALF, seed=99, max_steps=100)
    b = sample_run(EX2, HALF, seed=99, max_steps=100)
    assert a == b


def test_estimate_deterministic():
    a = estimate(EX1, HALF, base_seed=5, n=500, max_steps=200)
    b = estimate(EX1, HALF, base_seed=5, n=500, max_steps=200)
    assert a == b


def test_estimate_matches_individual_runs():
    n = 50
    batch = estimate(EX2, HALF, base_seed=17, n=n, max_steps=100)
    singles = [sample_run(EX2, HALF, 17 + i, 100) for i in range(n)]
    finite = [r.steps.steps for r in singles if r.steps.finite]
    assert batch.cutoff_count == sum(1 for r in singles if not r.steps.finite)
    assert batch.mean == sum(finite) / len(finite)


def test_estimate_normal_form():
    est = estimate(mk_I(), HALF, base_seed=0, n=5, max_steps=10)
    assert est == Estimate(5, 0, 0.0, 0.0, 0.0)


def test_estimate_counts_cutoffs_separately():
    est = estimate(mk_Omega(), HALF, base_seed=0, n=20, max_steps=30)
    assert est.cutoff_count == 20
    assert est.mean == 0.0


def test_estimate_consistency_with_exact_value():
    est1 = estimate(EX1, HALF, base_seed=0, n=4000, max_steps=4000)
    assert est1.cutoff_count == 0
    assert abs(est1.mean - 2.0) <= 3 * est1.confidence_halfwidth_95
    est2 = estimate(EX2, HALF, base_seed=0, n=4000, max_steps=4000)
    assert est2.cutoff_count == 0
    assert abs(est2.mean - 3.5) <= 3 * est2.confidence_halfwidth_95


def test_estimate_of_one_run_is_the_oracles():
    est = estimate(EX2, HALF, base_seed=3, n=1, max_steps=100)
    assert est.sample_count == 1
    assert est.sample_variance == 0.0
    assert est.confidence_halfwidth_95 == 0.0
    assert est == oracle.estimate(EX2, HALF, 3, 1, 100)


def test_estimate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        estimate(EX1, HALF, 0, 0, 10)
    with pytest.raises(ValueError):
        sample_run(EX1, HALF, 0, 0)


# The jump table and the run walker against the step-by-step oracle of
# tests/sampling_oracle.py.  Omega has a draw-free cycle, so every run of it
# is cut off, and I is normal.  The last term revisits classes under other
# binder names, which the walker prints as the actual reducts.
ORACLE_TERMS = [EX1, EX2, mk_Mn(6), mk_Mn(20), mk_Omega(), mk_I()] + [
    entry.term for tag in SubCalculus for entry in random_corpus(tag, count=25, size_cap=40)
] + [parse("(\\v0.c (\\v1.\\v2.(\\v3.(\\v4.\\v5.v4) v3) v0 (\\v6.v6))) (a (\\v7.b))")]
ORACLE_EPS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 5), Fraction(3, 7))


def _walked(t, strategy, seed, max_steps):
    """The canonical forms of one seeded walk, cut after max_steps steps."""
    steps = islice(walk(t, strategy, SplitMix64(seed).below), max_steps + 1)
    return [c for c, _ in steps]


def _oracle_path(t, strategy, seed, max_steps):
    sampler = oracle.Sampler(t, strategy)
    return [sampler.graph.forms[i] for i in sampler.path(seed, max_steps)]


@pytest.mark.parametrize("max_steps", (1, 2, 3, 7, 10_000))
@pytest.mark.parametrize("eps", ORACLE_EPS, ids=str)
def test_sampling_matches_step_by_step_oracle(monkeypatch, eps, max_steps):
    strategy = Strategy.peps(eps)
    counts = _count_draws(monkeypatch)
    for t in ORACLE_TERMS:
        assert estimate(t, strategy, 40, 6, max_steps) == oracle.estimate(t, strategy, 40, 6, max_steps)
        for seed in (0, 5):
            assert sample_run(t, strategy, seed, max_steps) == oracle.sample_run(t, strategy, seed, max_steps)
            seen = []
            for run in (_walked, _oracle_path):
                counts.update(below=0, next_u64=0)
                seen.append((run(t, strategy, seed, max_steps), dict(counts)))
            assert seen[0] == seen[1]


def test_landing_walk_stops_at_the_budget(monkeypatch):
    # under LO this term grows forever without a draw; an uncapped walk
    # to the next normal or branching class would never end
    graphs = []

    class RecordedGraph(montecarlo.StateGraph):
        def __init__(self):
            super().__init__()
            graphs.append(self)

    monkeypatch.setattr(montecarlo, "StateGraph", RecordedGraph)
    est = estimate(parse("(\\x.x x x) (\\x.x x x)"), Strategy.parse("peps:1"), 0, 5, 50)
    assert est == Estimate(5, 5, 0.0, 0.0, 0.0)
    assert len(graphs) == 1 and len(graphs[0].forms) <= 50 + 2


def _count_draws(monkeypatch) -> dict:
    # perfbench's tracer counts draws and rejections by wrapping these two
    # methods, so inlining the draw into the sampler (ROADMAP item 2) waits
    # until perfbench reads the library's own counters (item 1b)
    counts = {"below": 0, "next_u64": 0}
    for name in counts:
        method = getattr(SplitMix64, name)

        def counted(self, *args, _name=name, _method=method):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(SplitMix64, name, counted)
    return counts


@pytest.mark.parametrize("max_steps", (3, 100))
@pytest.mark.parametrize("t", [EX2, mk_Mn(6)], ids=["example2", "Mn:6"])
def test_draws_are_the_oracles(monkeypatch, t, max_steps):
    counts = _count_draws(monkeypatch)
    strategy = Strategy.peps(Fraction(3, 7))
    seen = []
    for run in (lambda: estimate(t, strategy, 5, 200, max_steps),
                lambda: oracle.estimate(t, strategy, 5, 200, max_steps),
                lambda: _walked(t, strategy, 9, max_steps),
                lambda: _oracle_path(t, strategy, 9, max_steps)):
        counts.update(below=0, next_u64=0)
        run()
        seen.append(dict(counts))
    assert seen[0] == seen[1] and seen[2] == seen[3]
    assert seen[0]["below"] > 0 and seen[0]["next_u64"] > seen[0]["below"]
    assert seen[2]["below"] > 0
