"""Exact rational helpers: parsing, formatting, and small linear algebra.

Everything in this package is exact.  Rationals enter as ``fractions.Fraction``
or as "num/den" strings at the I/O boundary; no floats are accepted anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def parse_rational(s) -> Fraction:
    """Parse "num/den" or an integer literal (string or int) into a Fraction.

    Decimal floats are rejected on purpose: exactness is guaranteed at the
    boundary.
    """
    if isinstance(s, bool):
        raise ValueError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, Fraction):
        return s
    if not isinstance(s, str):
        raise ValueError(f"not a rational: {s!r} (floats are not accepted)")
    t = s.strip()
    if "/" in t:
        num, den = t.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(t))


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def common_denominator(qs) -> int:
    return lcm(*(Fraction(q).denominator for q in qs))


def numerators_over(qs, den: int) -> list[int]:
    """Integer numerators of qs over the common denominator den (exact)."""
    out = []
    for q in qs:
        q = Fraction(q)
        if den % q.denominator:
            raise ValueError(f"{q} has no exact representation over /{den}")
        out.append(q.numerator * (den // q.denominator))
    return out
