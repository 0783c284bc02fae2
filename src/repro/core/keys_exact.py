"""Exact integer arithmetic for the key schedule.

The keys of Algorithm 1 are ``kappa = d * gamma + l`` with
``gamma = sqrt(q)`` for the rational ``q = h k / Delta``.  The production
implementation uses IEEE doubles (see :mod:`repro.core.keys`); every
decision the algorithm takes, however, is one of exactly two questions:

1. **ordering** -- is ``d1 sqrt(q) + l1 < d2 sqrt(q) + l2``?
2. **scheduling** -- what is ``ceil(d sqrt(q) + l + pos)``?

Both are decidable in exact integer arithmetic (compare/extract square
roots of integers), which this module implements.  The property tests
drive random instances through both implementations and require
identical answers -- turning the claim of :mod:`repro.core.keys` (a
rational gamma is keyed exactly, an irrational one never rounds to the
wrong side of an integer in the paper's parameter ranges) into a
tested fact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple


def exact_compare_keys(d1: int, l1: int, d2: int, l2: int,
                       q_num: int, q_den: int) -> int:
    """Sign of ``(d1 sqrt(q) + l1) - (d2 sqrt(q) + l2)`` for
    ``q = q_num / q_den > 0``, in exact arithmetic.

    Returns -1, 0, or +1.
    """
    if q_num <= 0 or q_den <= 0:
        raise ValueError("q must be a positive rational")
    a = d1 - d2          # coefficient of sqrt(q)
    b = l2 - l1          # compare a*sqrt(q) with b
    if a == 0:
        return (b < 0) - (b > 0)
    # sign analysis: a*sqrt(q) ? b
    if a > 0 and b <= 0:
        return 1
    if a < 0 and b >= 0:
        return -1 if not (a == 0 and b == 0) else 0
    # both sides share a sign; compare squares: a^2 q ? b^2
    lhs = a * a * q_num
    rhs = b * b * q_den
    if lhs == rhs:
        return 0 if (a > 0) == (b > 0) else (1 if a > 0 else -1)
    bigger_sq = 1 if lhs > rhs else -1
    if a > 0:   # both positive: larger square wins
        return bigger_sq
    return -bigger_sq  # both negative: larger square means more negative


def exact_ceil_key_plus(d: int, l: int, pos: int,
                        q_num: int, q_den: int) -> int:
    """``ceil(d sqrt(q) + l + pos)`` exactly, for non-negative ``d``.

    ``d sqrt(q) = sqrt(d^2 q_num q_den) / q_den``; let ``M`` be that
    radicand.  The answer is ``l + pos + t`` where ``t`` is the smallest
    integer with ``t q_den >= sqrt(M)``, i.e. ``(t q_den)^2 >= M`` (with
    the equality case meaning sqrt(M) is the exact integer ``t q_den``).
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    if q_num <= 0 or q_den <= 0:
        raise ValueError("q must be a positive rational")
    base = l + pos
    if d == 0:
        return base
    M = d * d * q_num * q_den
    s = math.isqrt(M)
    # smallest t with (t * q_den)^2 >= M
    t = s // q_den
    while (t * q_den) ** 2 < M:
        t += 1
    return base + t


def gamma_squared(h: int, k: int, delta: int) -> Tuple[int, int]:
    """``q = gamma^2 = h k / Delta`` in lowest terms (Delta > 0)."""
    if delta <= 0:
        raise ValueError("Delta must be positive for a rational gamma^2")
    f = Fraction(h * k, delta)
    return f.numerator, f.denominator


def float_matches_exact(d1: int, l1: int, d2: int, l2: int,
                        h: int, k: int, delta: int) -> bool:
    """Does the float comparison of two keys agree with exact
    arithmetic?  (Used by the soundness property test.)"""
    from .keys import gamma_for, key_of
    g = gamma_for(h, k, delta)
    kf1, kf2 = key_of(d1, l1, g), key_of(d2, l2, g)
    float_sign = (kf1 > kf2) - (kf1 < kf2)
    q_num, q_den = gamma_squared(h, k, delta)
    return float_sign == exact_compare_keys(d1, l1, d2, l2, q_num, q_den)
