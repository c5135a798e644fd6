"""One-command verification: the ten headline results, each checked at its
stated tolerance (exact equality unless a decimal tolerance is given) and
timed.  The CLI surfaces these as pass/fail lines; the acceptance test
module runs the same checks under pytest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import islice

from . import laws
from .laws import DEFAULT_GRID, lo_normalizes
from .montecarlo import estimate
from .pars import (
    EvolutionTrace,
    analyze,
    derivation_length_dist,
    evolve_trace,
    expected_length_truncated,
    grid_expected_lengths,
)
from .strategies import StepCount, Strategy, n_steps, walk
from .terms import (
    App,
    Term,
    canonicalize,
    ensure_recursion_headroom,
    mk_example1,
    mk_example2,
    mk_I,
    mk_Mn,
    reduce_at,
    render,
)


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.number:>2}  {self.title} [{self.elapsed:.2f}s]"


# the seconds within which a timed criterion must finish, by number
TIME_BOUNDS = {3: 1.0, 6: 10.0, 8: 60.0, 10: 30.0}


def _result(number, title, started, passed, detail) -> CriterionResult:
    """Criterion number's result, failed too when it ran past its time bound."""
    elapsed = time.monotonic() - started
    passed = passed and (number not in TIME_BOUNDS or elapsed < TIME_BOUNDS[number])
    return CriterionResult(number, title, passed, detail, elapsed)


EPS_GRID_15 = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


def criterion_1() -> CriterionResult:
    """Cancelling example: LO finishes in one step, RI burns all its fuel."""
    started = time.monotonic()
    t = mk_example1()
    lo = n_steps(t, "lo", 10)
    ri = n_steps(t, "ri", 1000)
    passed = lo.finite and lo.steps == 1 and not ri.finite and ri.steps == 1000
    detail = f"LO: {lo}, RI: {ri}"
    return _result(1, "cancelling example: LO=1, RI diverges", started, passed, detail)


def _follow(t: Term, strategy: str, expected: list[Term]) -> tuple[bool, list[str]]:
    seen = [render(t)]
    current = t
    steps = islice(walk(t, Strategy.parse(strategy)), 1, None)
    for want, (_, path) in zip(expected, steps):
        current = reduce_at(current, path)
        seen.append(render(current))
        if canonicalize(current) != canonicalize(want):
            return False, seen
    return len(seen) == len(expected) + 1 and next(steps, None) is None, seen


def criterion_2() -> CriterionResult:
    """Duplicating example: LO takes 4 steps, RI 3, exact intermediates."""
    started = time.monotonic()
    t = mk_example2()
    i = mk_I()
    ii = App(i, i)
    lo_expected = [App(ii, ii), App(i, ii), ii, i]
    ri_expected = [App(t.fn, i), ii, i]
    ok_lo, lo_seen = _follow(t, "lo", lo_expected)
    ok_ri, ri_seen = _follow(t, "ri", ri_expected)
    lo_count = n_steps(t, "lo", 10)
    ri_count = n_steps(t, "ri", 10)
    passed = (
        ok_lo
        and ok_ri
        and lo_count == StepCount.reached(4)
        and ri_count == StepCount.reached(3)
    )
    detail = "LO: " + " -> ".join(lo_seen) + " | RI: " + " -> ".join(ri_seen)
    return _result(2, "duplicating example: LO=4, RI=3, exact traces", started, passed, detail)


def criterion_3() -> CriterionResult:
    """Expected length of the cancelling example is exactly 1/eps."""
    started = time.monotonic()
    t = mk_example1()
    rows = []
    passed = True
    for eps in EPS_GRID_15:
        chain = analyze(t, Strategy.peps(eps))
        ok = chain.termination_prob == 1 and chain.expected_length == 1 / eps
        passed = passed and ok
        rows.append(f"eps={eps}: {chain.expected_length} (want {1 / eps})")
    return _result(3, "1/eps law on the cancelling example", started, passed, "; ".join(rows))


def criterion_4() -> CriterionResult:
    """Expected length of the duplicating example is exactly 3 + eps."""
    started = time.monotonic()
    t = mk_example2()
    rows = []
    passed = True
    for eps in EPS_GRID_15 + (Fraction(0),):
        chain = analyze(t, Strategy.peps(eps))
        want = 3 + eps
        ok = chain.termination_prob == 1 and chain.expected_length == want
        trace = evolve_trace(t, Strategy.peps(eps), 50)
        truncated = expected_length_truncated(trace)
        ok = ok and abs(truncated - want) < Fraction(1, 10**12)
        passed = passed and ok
        rows.append(f"eps={eps}: {chain.expected_length}")
    return _result(4, "3+eps law on the duplicating example (solver and series)",
                   started, passed, "; ".join(rows))


def criterion_5(corpora, solve=None) -> CriterionResult:
    """Expectation bound N_LO/eps on every WN default-corpus term; solve,
    when given, is passed on to laws.law_foster."""
    started = time.monotonic()
    ensure_recursion_headroom()
    entries = (
        corpora["anchor"] + corpora["full"] + corpora["lambda-I"] + corpora["lambda-A"]
    )
    wn_entries = [e for e in entries if lo_normalizes(e.term, laws.DEFAULT_WN_FUEL) is not None]
    report = laws.law_foster(wn_entries, "WN part of the default corpora", solve)
    passed = report.passed and report.inconclusive == 0 and report.cases_run == len(wn_entries)
    detail = (
        f"{report.cases_passed}/{report.cases_run} WN terms hold on the full grid"
        + (f"; first violation: {report.counterexamples[0]}" if report.counterexamples else "")
        + (f"; inconclusive: {report.inconclusive}" if report.inconclusive else "")
    )
    return _result(5, "expectation bound N_LO/eps over the WN corpus", started, passed, detail)


def closed_form_mix_cost(n: int, eps: Fraction) -> Fraction:
    """The published closed form for the mixed-cost family: (n-3)e^3+4e^2+2/e."""
    eps = Fraction(eps)
    return (n - 3) * eps**3 + 4 * eps**2 + Fraction(2) / eps


def criterion_6() -> CriterionResult:
    """Mixed-cost family: endpoint value n+3, an interior grid point beats
    both deterministic strategies, and the closed-form table is emitted."""
    started = time.monotonic()
    lines = ["n  eps    solver        closed-form   match"]
    passed = True
    for n in (2, 3, 4, 5):
        t = mk_Mn(n)
        solved = grid_expected_lengths(t, DEFAULT_GRID)
        lo = n_steps(t, "lo", 100)
        ri = n_steps(t, "ri", 1000)
        at_one = solved[Fraction(1)][1]
        if not (lo.finite and lo.steps == n + 3 and at_one == n + 3):
            passed = False
            lines.append(f"n={n}: endpoint mismatch: N_LO={lo}, solver(1)={at_one}")
        if ri.finite:
            passed = False
            lines.append(f"n={n}: RI unexpectedly finished in {ri.steps} steps")
        interior = {
            eps: e for eps, (_, e) in solved.items() if 0 < eps < 1 and e is not None
        }
        if not any(e < n + 3 for e in interior.values()):
            passed = False
            lines.append(f"n={n}: no interior grid point beats n+3")
        for eps in sorted(solved):
            _, e = solved[eps]
            formula = closed_form_mix_cost(n, eps)
            match = "yes" if e == formula else "NO"
            lines.append(f"{n}  {str(eps):<6} {str(e):<13} {str(formula):<13} {match}")
    return _result(6, "mixed-cost family: endpoints, interior minimum, closed-form table",
                   started, passed, "\n".join(lines))


def criterion_7(lambda_a, lambda_i, solve=None) -> CriterionResult:
    """Grid argmin at eps=1 on 200 lambda-A terms and eps=0 on 200 WN
    lambda-I terms; solve, when given, is passed on to laws.law_eps_minimum."""
    started = time.monotonic()
    ensure_recursion_headroom()
    report_a = laws.law_eps_minimum(lambda_a, Fraction(1), "200 lambda-A terms", solve=solve)
    report_i = laws.law_eps_minimum(lambda_i, Fraction(0), "200 WN lambda-I terms", solve=solve)
    passed = (
        report_a.passed and report_i.passed
        and report_a.inconclusive == 0 and report_i.inconclusive == 0
        and report_a.cases_run == len(lambda_a) and report_i.cases_run == len(lambda_i)
    )
    detail = f"lambda-A: {report_a.summary()} | lambda-I: {report_i.summary()}"
    if not report_a.passed:
        detail += f" | first lambda-A counterexample: {report_a.counterexamples[0]}"
    if not report_i.passed:
        detail += f" | first lambda-I counterexample: {report_i.counterexamples[0]}"
    return _result(7, "sub-calculus grid minima (lambda-A at 1, lambda-I at 0)",
                   started, passed, detail)


def criterion_8(corpora) -> CriterionResult:
    """The five enumeration laws pass with < 5% inconclusive in < 60 s."""
    started = time.monotonic()
    reports = laws.run_suite("core", corpora=corpora)
    lines = [r.summary() for r in reports]
    passed = all(r.passed for r in reports)
    for r in reports:
        if r.cases_run and r.inconclusive / r.cases_run >= 0.05:
            passed = False
            lines.append(f"{r.law_id}: inconclusive fraction >= 5%")
    return _result(8, "core law suite on the default corpora", started, passed, "\n".join(lines))


def _mass_conserved(drops: dict, trace: EvolutionTrace) -> bool:
    """Whether the drops and the trailing mass sum to exactly 1, with no
    big integer divided by another.

    Each reduced Fraction enters the sum as a numerator over a power d**j
    of d: its own, when its denominator is in the trace's table of powers,
    and otherwise (a composite d can leave a proper divisor of a power of
    d) the integer drop or trailing N over d**s_i that it was reduced from,
    once cross-multiplying shows the two are equal.  The terms are summed
    over the largest power so far, so every lift is a multiplication by a
    table entry, and a wrongly reduced drop or mass still fails the check."""
    powers, unreduced = trace.powers, trace.unreduced
    last = len(unreduced) - 1
    exponent = {power: j for j, power in enumerate(powers)}
    total = top = 0  # the running sum is total / d**top
    for i, mass in (*drops.items(), (last, trace.trailing_mass)):
        n, j = mass.numerator, exponent.get(mass.denominator)
        if j is None:
            if i == last:
                n, j = unreduced[i]
            elif 0 <= i < last:
                (n, s), (n_next, j) = unreduced[i], unreduced[i + 1]
                n = n * powers[j - s] - n_next
            else:
                return False
            if mass.numerator * powers[j] != n * mass.denominator:
                return False
        if j >= top:
            total, top = total * powers[j - top] + n, j
        else:
            total += n * powers[top - j]
    return total == powers[top]


def criterion_9() -> CriterionResult:
    """Evolution semantics: monotone masses, exact mass conservation, and
    series-vs-solver agreement at horizon 2000 below 1e-6."""
    started = time.monotonic()
    tolerance = Fraction(1, 10**6)
    problems = []
    checked = 0
    for entry in laws.anchor_corpus():
        solved = grid_expected_lengths(entry.term, DEFAULT_GRID)
        for eps in DEFAULT_GRID:
            strategy = Strategy.peps(eps)
            trace = evolve_trace(entry.term, strategy, 2000)
            checked += 1
            drops = derivation_length_dist(trace)  # a mass rises where its drop is negative
            if any(drop < 0 for drop in drops.values()):
                problems.append(f"{entry.term_id} eps={eps}: masses increased")
                continue
            if not _mass_conserved(drops, trace):
                problems.append(f"{entry.term_id} eps={eps}: mass not conserved")
                continue
            termination, expected = solved[eps]
            if termination == 1:
                gap = abs(expected_length_truncated(trace) - expected)
                if gap >= tolerance:
                    problems.append(
                        f"{entry.term_id} eps={eps}: series gap {float(gap):.2e}"
                    )
    passed = not problems
    detail = f"{checked} (term, eps) traces checked" + (
        "; " + "; ".join(problems[:3]) if problems else ""
    )
    return _result(9, "evolution semantics at horizon 2000", started, passed, detail)


def criterion_10() -> CriterionResult:
    """Monte Carlo means agree with the exact values for 99+ of 100 seeds."""
    started = time.monotonic()
    eps = Fraction(1, 2)
    cases = [(mk_example1(), Fraction(2)), (mk_example2(), Fraction(7, 2))]
    lines = []
    passed = True
    for t, exact in cases:
        chain = analyze(t, Strategy.peps(eps))
        if chain.expected_length != exact:
            passed = False
            lines.append(f"{render(t)}: solver gave {chain.expected_length}, want {exact}")
            continue
        hits = 0
        for s in range(100):
            est = estimate(t, Strategy.peps(eps), base_seed=s * 100_000, n=10_000,
                           max_steps=10_000)
            if est.cutoff_count == 0 and abs(est.mean - float(exact)) <= 3 * est.confidence_halfwidth_95:
                hits += 1
        lines.append(f"{render(t)}: {hits}/100 seeds within 3 halfwidths of {exact}")
        passed = passed and hits >= 99
    return _result(10, "Monte Carlo consistency at eps=1/2", started, passed, "; ".join(lines))


def run_all() -> list[CriterionResult]:
    """All ten criteria; shares the expensive corpora across checks, and
    one grid solve per term between criteria 5 and 7."""
    ensure_recursion_headroom()
    corpora = laws.default_corpora()
    solve = cache(partial(grid_expected_lengths, grid=laws.GRID_WITH_ZERO))
    return [
        criterion_1(),
        criterion_2(),
        criterion_3(),
        criterion_4(),
        criterion_5(corpora, solve),
        criterion_6(),
        criterion_7(corpora["lambda-A"], corpora["lambda-I"], solve),
        criterion_8(corpora),
        criterion_9(),
        criterion_10(),
    ]
