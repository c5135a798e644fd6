"""Closed-form expected derivation lengths of the benchmark's term families.

Every function here is independent of lambdalab's solver: it evaluates a
formula in exact rationals, so a job whose answer disagrees is wrong, not
merely slow.  ``e`` is the mixture weight of the leftmost-outermost redex.
"""

from __future__ import annotations

from fractions import Fraction


def example1_expected(e: Fraction) -> Fraction:
    """(\\x.y) Omega: LO erases Omega with probability e and RI rewrites
    Omega to itself, so the length is geometric with mean 1/e."""
    return 1 / e


def example2_expected(e: Fraction) -> Fraction:
    """(\\x.x x) (I I): the LO branch copies the redex and takes 4 steps in
    all, the RI branch takes 3, so the mean is 4e + 3(1-e) = 3 + e."""
    return 3 + e


def mn_expected(k: int, e: Fraction) -> Fraction:
    """The paper's closed form for Mn:k, valid for every k >= 1."""
    return (k - 3) * e**3 + 4 * e**2 + 2 / e


def dup_term(k: int, d: int) -> str:
    """(\\x.x x ... x) ((\\z.z) (... ((\\z.z) y))): k copies of x, d identities."""
    arg = "y"
    for _ in range(d):
        arg = f"(\\z.z) ({arg})"
    return f"(\\x.{' '.join(['x'] * k)}) ({arg})"


def dup_expected(k: int, d: int, e: Fraction) -> Fraction:
    """Expected length of dup_term(k, d).

    Write A_0 = y and A_j = (\\z.z) A_{j-1}, and T_j = (\\x.x^k) A_j.  For
    j >= 1, T_j has 1 + j redexes: the outer one is leftmost-outermost and
    the identity applied to y is rightmost-innermost.

    * With probability 1 - e the RI step contracts that identity, so
      T_j -> T_{j-1} in one step.
    * With probability e the LO step copies A_j k times.  The result holds
      k*j identity redexes.  Each contraction removes exactly one of them
      and creates none, because every A_i reduces to y and never to an
      abstraction.  So k*j steps remain, whatever the strategy.
    * T_0 = (\\x.x^k) y has one redex and normalises in one step.

    A run takes RI j times, reaching T_{d-j} after j steps, and then either
    takes LO (probability e, j + 1 + k(d-j) steps in all) or, when j = d,
    finishes from T_0 (d + 1 steps).  Hence

        E = sum_{j<d} e (1-e)^j (j + 1 + k(d-j)) + (1-e)^d (d + 1).
    """
    total = sum(
        (e * (1 - e) ** j * (j + 1 + k * (d - j)) for j in range(d)), Fraction(0)
    )
    return total + (1 - e) ** d * (d + 1)
