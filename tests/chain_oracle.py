"""Chain-side absorption-time distribution, kept as a test oracle for
pars.derivation_length_dist: it pushes mass through the rows of an explored
chain, while derivation_length_dist reads mass drops off an evolution trace.
"""

from __future__ import annotations

from fractions import Fraction

from lambdalab.pars import TRM, ChainAnalysis


def chain_derivation_lengths(chain: ChainAnalysis, horizon: int) -> dict[int, Fraction]:
    """Absorption-time distribution of the chain up to the horizon.

    Pushes the origin's unit mass through the chain rows and records the
    mass entering TRM at each step; agrees entry-wise with the trace-side
    derivation_length_dist over the shared horizon.  Zero entries omitted.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    out: dict[int, Fraction] = {}
    if not chain.states:  # origin already normal
        out[0] = Fraction(1)
        return out
    current: dict[int, Fraction] = {chain.origin: Fraction(1)}
    for step in range(1, horizon + 1):
        absorbed = Fraction(0)
        nxt: dict[int, Fraction] = {}
        for c, m in current.items():
            for target, p in chain.rows[c]:
                if target == TRM:
                    absorbed += m * p
                else:
                    nxt[target] = nxt.get(target, Fraction(0)) + m * p
        if absorbed:
            out[step] = absorbed
        current = nxt
        if not current:
            break
    return out
