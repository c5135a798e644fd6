from fractions import Fraction

import pytest
from hypothesis import given

from lambdalab.pars import analyze, grid_expected_lengths
from lambdalab.strategies import (
    Distribution,
    InvalidEpsilon,
    StepCount,
    Strategy,
    foster_bound,
    n_steps,
    p_eps,
    parse_probability,
    walk,
)
from lambdalab.terms import (
    App,
    SubCalculus,
    Var,
    canonicalize,
    is_normal_canonical,
    is_normal_form,
    mk_I,
    mk_Mn,
    mk_Omega,
    mk_example1,
    mk_example2,
    random_term,
    redexes,
    reduce_at,
)

from conftest import reducible_terms, terms
from named_oracle import (
    alpha_eq,
    anf_successors,
    beta_successors,
    is_lambda_A,
    is_lambda_I,
    step_lo,
    step_ri,
    subterm_at,
)

I = mk_I()
II = App(I, I)
EX1 = mk_example1()
EX2 = mk_example2()


# ---------------------------------------------------------------------------
# deterministic steps


def test_step_lo_erases():
    assert step_lo(EX1) == Var("y")


def test_step_lo_duplicates():
    assert step_lo(EX2) == App(II, II)


def test_step_lo_normal_form():
    assert step_lo(I) is None


def test_step_ri_loops_on_erasable_argument():
    assert alpha_eq(step_ri(EX1), EX1)


def test_step_ri_reduces_argument_first():
    assert step_ri(EX2) == App(EX2.fn, I)


def test_step_ri_normal_form():
    assert step_ri(I) is None


def test_full_lo_sequence_example2():
    expected = [App(II, II), App(I, II), II, I]
    current = EX2
    for want in expected:
        current = step_lo(current)
        assert alpha_eq(current, want)
    assert step_lo(current) is None


def test_full_ri_sequence_example2():
    expected = [App(EX2.fn, I), II, I]
    current = EX2
    for want in expected:
        current = step_ri(current)
        assert alpha_eq(current, want)
    assert step_ri(current) is None


@given(reducible_terms)
def test_ri_step_is_argument_normal(t):
    paths = redexes(t)
    assert is_normal_form(subterm_at(t, paths[-1]).arg)
    u = step_ri(t)
    assert any(alpha_eq(u, v) for v in anf_successors(t))


# ---------------------------------------------------------------------------
# argument-normal successors


def test_anf_successors_example2():
    succ = anf_successors(EX2)
    assert len(succ) == 1
    assert succ[0] == App(EX2.fn, I)


def test_anf_successors_merge():
    succ = anf_successors(App(I, II))
    assert len(succ) == 1
    assert alpha_eq(succ[0], II)


def test_anf_successors_normal_form():
    assert anf_successors(I) == []


# ---------------------------------------------------------------------------
# the randomized strategy


def test_p_eps_two_branches():
    d = p_eps(EX1, Fraction(1, 3))
    assert d.total() == 1
    assert d.masses == {
        canonicalize(Var("y")): Fraction(1, 3),
        canonicalize(EX1): Fraction(2, 3),
    }


def test_p_eps_single_redex_is_dirac():
    for eps in (Fraction(0), Fraction(1, 2), Fraction(1)):
        d = p_eps(II, eps)
        assert d.masses == {canonicalize(I): Fraction(1)}


def test_p_eps_alpha_equal_reducts_merge():
    d = p_eps(App(I, II), Fraction(1, 2))
    assert d.masses == {canonicalize(II): Fraction(1)}


def test_p_eps_normal_form():
    assert p_eps(I, Fraction(1, 2)) is None


def test_p_eps_endpoint_masses_dropped():
    d = p_eps(EX1, Fraction(1))
    assert d.masses == {canonicalize(Var("y")): Fraction(1)}
    d = p_eps(EX1, Fraction(0))
    assert d.masses == {canonicalize(EX1): Fraction(1)}


@given(reducible_terms)
def test_p_eps_mass_one_and_support_in_reducts(t):
    d = p_eps(t, Fraction(2, 7))
    assert d.total() == 1
    reducts = {canonicalize(u) for u in beta_successors(t)}
    assert set(d.masses) <= reducts
    assert all(m > 0 for m in d.masses.values())


def test_distribution_rejects_excess_mass():
    with pytest.raises(ValueError):
        Distribution([(I, Fraction(3, 4)), (Var("y"), Fraction(1, 2))])


# ---------------------------------------------------------------------------
# step counters and the bound


def test_n_steps_goldens():
    assert n_steps(EX1, "lo", 10) == StepCount.reached(1)
    assert n_steps(EX1, "ri", 100) == StepCount.exhausted(100)
    assert n_steps(EX2, "lo", 10) == StepCount.reached(4)
    assert n_steps(EX2, "ri", 10) == StepCount.reached(3)
    assert n_steps(I, "lo", 10) == StepCount.reached(0)


@pytest.mark.parametrize(
    "term, strategy, n",
    [(EX2, "lo", 4), (EX2, "ri", 3), (mk_Mn(4), "lo", 7)],
    ids=["example2-lo", "example2-ri", "Mn:4-lo"],
)
def test_n_steps_fuel_boundary(term, strategy, n):
    assert n_steps(term, strategy, n) == StepCount.reached(n)
    assert n_steps(term, strategy, n - 1) == StepCount.exhausted(n - 1)


@pytest.mark.parametrize(
    "strategy, step",
    [("lo", step_lo), ("ri", step_ri), ("peps:1/1", step_lo), ("peps:0/1", step_ri)],
)
def test_walk_yields_each_reduct_down_to_the_normal_form(strategy, step):
    walked = list(walk(EX2, Strategy.parse(strategy)))
    assert walked[0] == (canonicalize(EX2), None) and is_normal_canonical(walked[-1][0])
    u = EX2
    for c, path in walked[1:]:  # replaying each path gives the named step
        v = reduce_at(u, path)
        assert v == step(u) and canonicalize(v) == c
        u = v


def test_walk_rejects_a_mixture():
    # a mixture needs draws; n_steps never passes any
    with pytest.raises(ValueError, match="peps:1/2"):
        next(walk(EX1, Strategy.peps(Fraction(1, 2))))
    with pytest.raises(ValueError, match="peps:1/2"):
        n_steps(EX1, "peps:1/2")


def test_foster_bound_values():
    assert foster_bound(EX1, Fraction(1, 2)) == 2
    assert foster_bound(I, Fraction(1, 2)) == 0
    assert foster_bound(EX2, Fraction(1, 4)) == 16


def test_foster_bound_undefined_on_divergence():
    assert foster_bound(mk_Omega(), Fraction(1, 2), fuel=50) is None


def test_foster_bound_rejects_zero():
    with pytest.raises(InvalidEpsilon):
        foster_bound(EX1, 0)


# ---------------------------------------------------------------------------
# strategy objects and probability parsing


def test_strategy_names_and_parse():
    assert Strategy.parse("lo").name == "lo"
    assert Strategy.parse("ri").name == "ri"
    assert Strategy.parse("peps:1/2").name == "peps:1/2"
    assert Strategy.parse("peps:1").eps == 1
    with pytest.raises(ValueError):
        Strategy.parse("outermost")


def test_float_eps_is_refused_at_every_entry_point():
    entry_points = {
        "Strategy.peps": Strategy.peps,
        "p_eps": lambda eps: p_eps(EX1, eps),
        "foster_bound": lambda eps: foster_bound(EX1, eps),
        "grid_expected_lengths": lambda eps: grid_expected_lengths(EX1, [Fraction(1, 2), eps]),
    }
    for name, call in entry_points.items():
        with pytest.raises(TypeError, match=r"not the float 0\.1$"):
            call(0.1)
        # ints, Fractions and 'num/den' strings give one exact eps
        assert call(1) == call(Fraction(1)) == call("1/1"), name
        assert call(Fraction(1, 10)) == call("1/10"), name
    assert analyze(EX1, Strategy.peps("1/10")).expected_length == 10


def test_parse_probability_rejects_decimals():
    with pytest.raises(ValueError):
        parse_probability("0.5")
    with pytest.raises(ValueError):
        parse_probability("3/2")
    assert parse_probability("1/2") == Fraction(1, 2)
    assert parse_probability("0") == 0
    assert parse_probability("1") == 1


def test_strategy_distribution_matches_steps():
    for t in (EX1, EX2, II):
        lo_dist = Strategy.lo().distribution(t)
        assert list(lo_dist.masses) == [canonicalize(step_lo(t))]
        ri_dist = Strategy.ri().distribution(t)
        assert list(ri_dist.masses) == [canonicalize(step_ri(t))]


# ---------------------------------------------------------------------------
# quantitative laws on small corpora (independent brute-force oracles)


def _all_path_lengths(t, successors, depth_cap=16):
    """Lengths of all reduction sequences from t to normal form; None when
    the recursion budget is exhausted before the enumeration is complete."""
    if is_normal_form(t):
        return {0}
    if depth_cap == 0:
        return None
    out = set()
    for u in successors(t):
        sub = _all_path_lengths(u, successors, depth_cap - 1)
        if sub is None:
            return None
        out |= {1 + n for n in sub}
    return out


def test_lo_monotone_on_random_wn_terms():
    checked = 0
    for seed in range(160):
        t = random_term(seed, 10)
        count = n_steps(t, "lo", 200)
        if not count.finite:
            continue
        for p in redexes(t):
            from lambdalab.terms import reduce_at

            u = reduce_at(t, p)
            reduct = n_steps(u, "lo", 200)
            assert reduct.finite and reduct.steps <= count.steps
            checked += 1
    assert checked > 30


def test_anf_sequences_have_equal_length():
    for seed in range(120):
        t = random_term(seed, 10)
        lengths = _all_path_lengths(t, anf_successors)
        if lengths is None:
            continue
        assert len(lengths) <= 1


def test_lambdaA_lo_is_shortest():
    checked = 0
    for seed in range(120):
        t = random_term(seed, 10, SubCalculus.LAMBDA_A)
        lengths = _all_path_lengths(t, beta_successors)
        assert lengths is not None and lengths  # lambda-A terms are SN
        count = n_steps(t, "lo", 200)
        assert count.finite
        assert count.steps <= min(lengths)
        checked += 1
    assert checked == 120


def test_lambdaI_anf_is_shortest():
    checked = 0
    for seed in range(120):
        t = random_term(seed, 10, SubCalculus.LAMBDA_I)
        if n_steps(t, "lo", 200).finite is False:
            continue
        beta_lengths = _all_path_lengths(t, beta_successors, depth_cap=14)
        anf_lengths = _all_path_lengths(t, anf_successors, depth_cap=14)
        if beta_lengths is None or anf_lengths is None:
            continue
        assert len(anf_lengths) == 1
        assert min(anf_lengths) <= min(beta_lengths)
        checked += 1
    assert checked > 60


def test_lambda_subcalculi_closed_under_reduction():
    from lambdalab.terms import free_vars

    for seed in range(120):
        t_i = random_term(seed, 10, SubCalculus.LAMBDA_I)
        for u in beta_successors(t_i):
            assert is_lambda_I(u)
            assert free_vars(u) == free_vars(t_i)
        t_a = random_term(seed, 10, SubCalculus.LAMBDA_A)
        for u in beta_successors(t_a):
            assert is_lambda_A(u)
