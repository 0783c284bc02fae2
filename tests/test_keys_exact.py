"""Exact-arithmetic validation of the floating-point key schedule.

Turns keys.py's numerical-soundness claim into a tested fact: over wide
random parameter ranges, the float implementation's orderings and
ceilings agree bit-for-bit with exact integer arithmetic.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.keys import gamma_for, key_of, send_round
from repro.core.keys_exact import (
    exact_ceil_key_plus,
    exact_compare_keys,
    float_matches_exact,
    gamma_squared,
)


class TestExactCompare:
    def test_equal_keys(self):
        assert exact_compare_keys(2, 3, 2, 3, 2, 1) == 0

    def test_rational_tie(self):
        # q = 4 (gamma = 2): d=1,l=2 gives 4; d=2,l=0 gives 4
        assert exact_compare_keys(1, 2, 2, 0, 4, 1) == 0

    def test_irrational_never_ties_mixed(self):
        # gamma = sqrt(2): 1*sqrt(2)+1 vs 0*sqrt(2)+2: sqrt(2) < 1? no
        assert exact_compare_keys(1, 1, 0, 2, 2, 1) == 1  # 2.41 > 2

    def test_negative_direction(self):
        assert exact_compare_keys(0, 1, 1, 1, 2, 1) == -1

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            exact_compare_keys(1, 1, 1, 1, 0, 1)


class TestExactCeil:
    def test_integer_gamma(self):
        # gamma = 2 (q = 4): ceil(3*2 + 1 + 2) = 9
        assert exact_ceil_key_plus(3, 1, 2, 4, 1) == 9

    def test_exact_boundary_not_rounded_up(self):
        # gamma = sqrt(4)/2 = 1 with q = 1: ceil(5 + 0 + 1) = 6 exactly
        assert exact_ceil_key_plus(5, 0, 1, 1, 1) == 6

    def test_irrational(self):
        # gamma = sqrt(2): ceil(1*1.414 + 0 + 1) = 3
        assert exact_ceil_key_plus(1, 0, 1, 2, 1) == 3

    def test_d_zero(self):
        assert exact_ceil_key_plus(0, 7, 3, 9999, 7) == 10

    def test_invalid(self):
        with pytest.raises(ValueError):
            exact_ceil_key_plus(-1, 0, 0, 1, 1)
        with pytest.raises(ValueError):
            exact_ceil_key_plus(1, 0, 0, 0, 1)


PARAMS = st.tuples(
    st.integers(min_value=1, max_value=256),    # h
    st.integers(min_value=1, max_value=256),    # k
    st.integers(min_value=1, max_value=4096),   # Delta
)


@settings(max_examples=300, deadline=None)
@given(PARAMS,
       st.integers(min_value=0, max_value=4096),
       st.integers(min_value=0, max_value=512),
       st.integers(min_value=0, max_value=4096),
       st.integers(min_value=0, max_value=512))
def test_float_ordering_matches_exact(params, d1, l1, d2, l2):
    h, k, delta = params
    assert float_matches_exact(d1, l1, d2, l2, h, k, delta)


@settings(max_examples=300, deadline=None)
@given(PARAMS,
       st.integers(min_value=0, max_value=4096),
       st.integers(min_value=0, max_value=512),
       st.integers(min_value=1, max_value=2048))
# gamma = 19/3 exactly, yet 57 * float(gamma) is 361.00000000000006: the
# rational gamma must be keyed exactly (repro.core.keys.RationalGamma).
@example((57, 247, 351), 57, 0, 1)
def test_float_ceil_matches_exact(params, d, l, pos):
    h, k, delta = params
    g = gamma_for(h, k, delta)
    got = send_round(key_of(d, l, g), pos)
    q_num, q_den = gamma_squared(h, k, delta)
    want = exact_ceil_key_plus(d, l, pos, q_num, q_den)
    assert got == want, (params, d, l, pos, got, want)


def test_exhaustive_small_range():
    """Brute-force agreement over a dense small grid (no sampling)."""
    for h in (1, 2, 3, 5):
        for k in (1, 2, 4):
            for delta in (1, 2, 3, 8):
                g = gamma_for(h, k, delta)
                q_num, q_den = gamma_squared(h, k, delta)
                for d in range(0, 12):
                    for l in range(0, 8):
                        for pos in (1, 2, 7):
                            got = send_round(key_of(d, l, g), pos)
                            want = exact_ceil_key_plus(d, l, pos, q_num, q_den)
                            assert got == want
