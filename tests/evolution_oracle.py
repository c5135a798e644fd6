"""The named-term evolution, kept as a test oracle for pars.evolve_trace.

A configuration maps each alpha-class to its mass as a Fraction and keeps
a named representative per class; one step pushes every mass along the
strategy's distribution from that representative, so it shares no state
graph, no integer masses and no reduction with the library's trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from lambdalab.strategies import Strategy
from lambdalab.terms import CanonicalTerm, Term, canonicalize


@dataclass(frozen=True)
class Configuration:
    """Partial distribution over alpha-classes at a given step index."""

    masses: dict  # CanonicalTerm -> Fraction, all > 0
    reps: dict  # CanonicalTerm -> Term
    step: int = 0

    @classmethod
    def dirac(cls, t: Term) -> "Configuration":
        return cls({canonicalize(t): Fraction(1)}, {canonicalize(t): t}, 0)

    @property
    def mass(self) -> Fraction:
        return sum(self.masses.values(), Fraction(0))


def evolve(config: Configuration, strategy: Strategy) -> Configuration:
    """Push every unit of mass one step along the strategy.

    Normal-form states have no outgoing transitions, so their mass simply
    disappears; total mass is therefore non-increasing.
    """
    masses: dict[CanonicalTerm, Fraction] = {}
    reps: dict[CanonicalTerm, Term] = {}
    for c, m in config.masses.items():
        dist = strategy.distribution(config.reps[c])
        if dist is None:
            continue
        for c2, p in dist.items():
            masses[c2] = masses.get(c2, Fraction(0)) + m * p
            reps.setdefault(c2, dist.rep(c2))
    return Configuration(masses, reps, config.step + 1)
