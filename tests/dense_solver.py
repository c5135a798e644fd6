"""The dense chain solver, kept as a test oracle for pars._solve_rows.

Acyclic chains are solved by back-substitution in topological order; any
other chain by a fixpoint for the states that can reach TRM, one dense
Gaussian elimination for the absorption probabilities on them, and a second
one for the expected absorption time on the states absorbed surely.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from lambdalab.pars import TRM, SingularSystem
from lambdalab.terms import CanonicalTerm


def _solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Exact Gaussian elimination; raises SingularSystem on a zero pivot."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem(f"no pivot in column {col}")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] / a[col][col]
            for k in range(col, n + 1):
                a[r][k] -= factor * a[col][k]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = a[r][n]
        for k in range(r + 1, n):
            acc -= a[r][k] * x[k]
        x[r] = acc / a[r][r]
    return x


def _toposort_rows(states: tuple, rows: dict) -> Optional[list]:
    """States in topological order of the non-absorbing edges, or None when
    the transition graph has a cycle."""
    indegree = {c: 0 for c in states}
    for c in states:
        for target, _ in rows[c]:
            if target != TRM:
                indegree[target] += 1
    queue = [c for c in states if indegree[c] == 0]
    out = []
    while queue:
        c = queue.pop()
        out.append(c)
        for target, _ in rows[c]:
            if target != TRM:
                indegree[target] -= 1
                if indegree[target] == 0:
                    queue.append(target)
    return out if len(out) == len(states) else None


def solve_rows_dense(
    states: tuple, rows: dict, origin: CanonicalTerm
) -> tuple[Fraction, Optional[Fraction]]:
    """Absorption probability at TRM from origin and, when it is 1, the
    exact expected absorption time (None otherwise), by dense elimination
    over every state that can reach TRM."""
    if not states:
        return Fraction(1), Fraction(0)  # the origin itself is normal

    # Acyclic chains (every strongly normalizing start term) solve by plain
    # back-substitution: each maximal path ends in TRM, so absorption is
    # sure and the expected time is 1 + the mean over successors.
    topo = _toposort_rows(states, rows)
    if topo is not None:
        expected: dict[CanonicalTerm, Fraction] = {}
        for c in reversed(topo):
            acc = Fraction(1)
            for target, p in rows[c]:
                if target != TRM:
                    acc += p * expected[target]
            expected[c] = acc
        return Fraction(1), expected[origin]

    # states that can reach TRM at all (fixpoint over the row graph)
    can_reach: set = set()
    changed = True
    while changed:
        changed = False
        for c in states:
            if c in can_reach:
                continue
            for target, _ in rows[c]:
                if target == TRM or target in can_reach:
                    can_reach.add(c)
                    changed = True
                    break
    if origin not in can_reach:
        return Fraction(0), None

    # absorption probabilities on the can-reach set; everything else is 0
    order = [c for c in states if c in can_reach]
    pos = {c: i for i, c in enumerate(order)}
    n = len(order)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    rhs = [Fraction(0)] * n
    for i, c in enumerate(order):
        matrix[i][i] = Fraction(1)
        for target, p in rows[c]:
            if target == TRM:
                rhs[i] += p
            elif target in pos:
                matrix[i][pos[target]] -= p
    h = _solve_linear(matrix, rhs)
    termination = h[pos[origin]]
    if termination != 1:
        return termination, None

    # expected absorption time on the sure-absorption subsystem; from a
    # state with absorption probability 1 every successor has it too
    sure = [c for i, c in enumerate(order) if h[i] == 1]
    spos = {c: i for i, c in enumerate(sure)}
    m = len(sure)
    matrix2 = [[Fraction(0)] * m for _ in range(m)]
    rhs2 = [Fraction(1)] * m
    for i, c in enumerate(sure):
        matrix2[i][i] = Fraction(1)
        for target, p in rows[c]:
            if target == TRM:
                continue
            if target not in spos:
                raise SingularSystem("sure-absorption subsystem is not closed")
            matrix2[i][spos[target]] -= p
    k = _solve_linear(matrix2, rhs2)
    return termination, k[spos[origin]]
