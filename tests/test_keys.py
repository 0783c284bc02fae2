"""Tests for the key schedule (gamma, kappa, send rounds)."""

import math

import pytest

from repro.core import (
    ceil_key,
    gamma_for,
    key_of,
    max_entries_per_source,
    send_round,
    theoretical_key_bound,
)
from repro.core.keys import RationalGamma


class TestGamma:
    def test_paper_formula(self):
        assert gamma_for(4, 9, 4) == math.sqrt(4 * 9 / 4)

    def test_gamma_one_when_hk_equals_delta(self):
        assert gamma_for(2, 2, 4) == 1.0

    @pytest.mark.parametrize("h,k,delta", [(0, 1, 1), (1, 0, 1), (1, 1, -1)])
    def test_invalid_inputs(self, h, k, delta):
        with pytest.raises(ValueError):
            gamma_for(h, k, delta)

    def test_rational_gamma_keeps_its_ratio(self):
        """``h k / Delta = 361/9``: gamma is 19/3, keyed exactly
        (57 * float(19/3) would be 361.00000000000006), and the ratio
        survives pickling (checkpoints and sweep workers pickle the
        programs that hold it)."""
        import copy
        import pickle

        g = gamma_for(57, 247, 351)
        assert isinstance(g, RationalGamma) and (g.num, g.den) == (19, 3)
        assert g == math.sqrt(57 * 247 / 351)
        assert key_of(57, 0, g) == 361.0
        assert key_of(57, 0, float(g)) > 361.0
        for clone in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert type(clone) is RationalGamma
            assert (clone, clone.num, clone.den) == (g, 19, 3)
        assert type(gamma_for(4, 9, 5)) is float  # 36/5: irrational

    def test_delta_zero_gamma_exceeds_cutoff(self):
        """The degenerate stand-in must push any d >= 1 key past the
        Lemma II.14 cutoff h + k."""
        for h, k in [(1, 1), (5, 3), (10, 12)]:
            g = gamma_for(h, k, 0)
            assert key_of(1, 0, g) > h + k


class TestKeys:
    def test_key_blends_distance_and_hops(self):
        g = 2.0
        assert key_of(3, 4, g) == 10.0

    def test_key_deterministic_across_recomputation(self):
        g = gamma_for(7, 3, 11)
        assert key_of(5, 2, g) == key_of(5, 2, g)

    def test_crossing_an_edge_strictly_increases_key(self):
        g = gamma_for(5, 4, 9)
        for d, l, w in [(0, 0, 0), (3, 2, 0), (3, 2, 5)]:
            assert key_of(d + w, l + 1, g) >= key_of(d, l, g) + 1

    def test_ceil_key(self):
        assert ceil_key(3.0) == 3
        assert ceil_key(3.0001) == 4

    def test_send_round(self):
        assert send_round(2.5, 3) == 6
        assert send_round(3.0, 3) == 6


class TestBounds:
    def test_invariant2_bound(self):
        assert max_entries_per_source(4, 1, 4) == 5.0  # sqrt(16)+1

    def test_key_bound(self):
        # Delta*gamma + h with gamma = sqrt(hk/Delta) = sqrt(Delta h k) + h
        assert theoretical_key_bound(4, 4, 4) == pytest.approx(8 + 4)
