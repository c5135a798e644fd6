"""Reduction strategies: the randomized mixture that picks the LO-redex
with probability eps and the RI-redex with probability 1 - eps, with
deterministic LO and RI as its endpoints, the one walker that runs any of
them, and derivation-length counters on canonical forms.

All probabilities are exact rationals end to end; no floating point enters
strategy or solver code.  A strategy's output distribution always has total
mass exactly 1, with support contained in the one-step beta-reducts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Optional

from .terms import (
    CanonicalTerm,
    RedexPath,
    Term,
    canonicalize,
    contract_canonical,
    is_normal_form,  # unused here: perfbench's tracer hooks strategies.is_normal_form
    redexes,
    reduce_at,
)


class InvalidEpsilon(ValueError):
    """eps = 0 where a strictly positive mixing weight is required."""


DEFAULT_FUEL = 10_000


def exact_eps(eps) -> Fraction:
    """eps as a Fraction, from an int, a Fraction or a 'num/den' string.  A
    float is refused: its binary value is seldom the rational meant, as
    0.1 is 3602879701896397/36028797018963968."""
    if isinstance(eps, float):
        raise TypeError(f"eps must be an int, a Fraction or 'num/den', not the float {eps!r}")
    return Fraction(eps)


def parse_probability(text: str) -> Fraction:
    """Exact rational in [0,1] from 'num/den', '0' or '1'; decimals rejected."""
    m = re.fullmatch(r"(\d+)(?:/(\d+))?", text.strip())
    if not m:
        raise ValueError(f"probability must be 'num/den' or an integer, got {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError("probability denominator must be nonzero")
    p = Fraction(num, den)
    if not 0 <= p <= 1:
        raise ValueError(f"probability {text!r} outside [0,1]")
    return p


@dataclass(frozen=True)
class StepCount:
    """Finite(n): normal form reached in n steps; otherwise fuel ran out."""

    steps: int
    finite: bool

    @classmethod
    def reached(cls, n: int) -> "StepCount":
        return cls(n, True)

    @classmethod
    def exhausted(cls, fuel: int) -> "StepCount":
        return cls(fuel, False)

    def __str__(self) -> str:
        return str(self.steps) if self.finite else f"fuel-exhausted({self.steps})"


class Distribution:
    """Exact-rational distribution over alpha-classes of terms.

    Keys are canonical terms; one concrete representative per class is kept
    so downstream code can keep reducing without re-parsing.  All masses are
    positive and sum to at most 1 (strategy outputs sum to exactly 1).
    """

    __slots__ = ("masses", "reps")

    def __init__(self, entries: list[tuple[Term, Fraction]]):
        masses: dict[CanonicalTerm, Fraction] = {}
        reps: dict[CanonicalTerm, Term] = {}
        for term, p in entries:
            if p < 0:
                raise ValueError("negative probability mass")
            if p == 0:
                continue
            c = canonicalize(term)
            masses[c] = masses.get(c, Fraction(0)) + p
            reps.setdefault(c, term)
        if sum(masses.values(), Fraction(0)) > 1:
            raise ValueError("total mass exceeds 1")
        self.masses = masses
        self.reps = reps

    def total(self) -> Fraction:
        return sum(self.masses.values(), Fraction(0))

    def support(self) -> list[CanonicalTerm]:
        return list(self.masses)

    def items(self):
        return self.masses.items()

    def rep(self, c: CanonicalTerm) -> Term:
        return self.reps[c]

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and self.masses == other.masses

    def __repr__(self) -> str:
        from .terms import render

        inner = ", ".join(f"{render(self.reps[c])}: {p}" for c, p in self.masses.items())
        return f"Distribution({{{inner}}})"


# ---------------------------------------------------------------------------
# the randomized strategy


def p_eps(t: Term, eps) -> Optional[Distribution]:
    """Distribution of the eps-mixture of LO and RI on t; None iff t normal.

    When the LO- and RI-reducts are alpha-equal, as with a single redex,
    the two masses merge onto one class and the output is Dirac.
    """
    eps = exact_eps(eps)
    if not 0 <= eps <= 1:
        raise ValueError(f"eps must lie in [0,1], got {eps}")
    paths = redexes(t)
    if not paths:
        return None
    return Distribution([(reduce_at(t, paths[0]), eps), (reduce_at(t, paths[-1]), 1 - eps)])


@dataclass(frozen=True)
class Strategy:
    """The eps-mixture of LO and RI under a display name.

    LO is the mixture at eps = 1 and RI the one at eps = 0; the name is
    all that tells them apart from peps:1/1 and peps:0/1.
    """

    eps: Fraction
    name: str

    @staticmethod
    def lo() -> "Strategy":
        return Strategy(Fraction(1), "lo")

    @staticmethod
    def ri() -> "Strategy":
        return Strategy(Fraction(0), "ri")

    @staticmethod
    def peps(eps) -> "Strategy":
        eps = exact_eps(eps)
        if not 0 <= eps <= 1:
            raise ValueError(f"eps must lie in [0,1], got {eps}")
        return Strategy(eps, f"peps:{eps.numerator}/{eps.denominator}")

    @staticmethod
    def parse(text: str) -> "Strategy":
        text = text.strip()
        if text == "lo":
            return Strategy.lo()
        if text == "ri":
            return Strategy.ri()
        if text.startswith("peps:"):
            return Strategy.peps(parse_probability(text[len("peps:"):]))
        raise ValueError(f"unknown strategy {text!r} (want lo, ri or peps:<num>/<den>)")

    def distribution(self, t: Term) -> Optional[Distribution]:
        return p_eps(t, self.eps)


# ---------------------------------------------------------------------------
# derivation-length counters


def walk(
    t: Term, strategy: Strategy, below: Optional[Callable[[int], int]] = None
) -> Iterator[tuple[CanonicalTerm, Optional[RedexPath]]]:
    """The canonical forms of t and of its successive reducts under the
    strategy, ending with the normal form if one is reached.  Each comes
    with the path of the redex whose contraction gave it, None for t
    itself, so replaying the paths with reduce_at rebuilds the named
    reducts.  At eps 1 a step contracts the LO-redex, at eps 0 the RI-redex;
    a mixture contracts both, and only where the reducts are different
    classes does it draw below(eps.denominator), taking the RI-reduct when
    the draw is >= eps.numerator, as a Monte Carlo run draws."""
    eps = strategy.eps
    mixture = 0 < eps < 1
    if mixture and below is None:
        raise ValueError(f"strategy {strategy.name} is a mixture and needs draws")
    step = canonicalize(t), None
    while step is not None:
        yield step
        c = step[0]
        step = contract_canonical(c, eps == 0)
        if mixture and step is not None:
            ri = contract_canonical(c, True)
            if ri[0] != step[0] and below(eps.denominator) >= eps.numerator:
                step = ri


def n_steps(t: Term, strategy: str, fuel: int = DEFAULT_FUEL) -> StepCount:
    """Steps to normal form under "lo", "ri" or an endpoint peps, fuel-bounded."""
    # fuel steps visit fuel + 1 terms; a further term means the fuel ran out
    n = sum(1 for _ in islice(walk(t, Strategy.parse(strategy)), fuel + 2)) - 1
    return StepCount.reached(n) if n <= fuel else StepCount.exhausted(fuel)


def foster_bound(t: Term, eps, fuel: int = DEFAULT_FUEL) -> Optional[Fraction]:
    """Upper bound N_LO(t)/eps on the expected derivation length.

    Valid because one LO-branch of every mixture step decreases N_LO by at
    least one while the other branch never increases it, so N_LO drops by
    at least eps in expectation per step.  None when LO does not reach a
    normal form within fuel (bound undefined at this fuel).
    """
    eps = exact_eps(eps)
    if eps == 0:
        raise InvalidEpsilon("the bound requires eps > 0")
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0,1], got {eps}")
    count = n_steps(t, "lo", fuel)
    if not count.finite:
        return None
    return Fraction(count.steps) / eps
