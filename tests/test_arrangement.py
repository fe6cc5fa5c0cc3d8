import itertools

import pytest
from hypothesis import given, settings, strategies as st

from stochord.arrangement import (
    PairClass,
    SwapMove,
    canonical_form,
    check_arrangement_leq,
    check_pair_equal_a,
    pair,
)
from stochord.majorization import component_tolerance
from stochord.verdicts import Status


def verify_arrangement_chain(p1, p2, moves) -> bool:
    """Oracle: replay ``moves`` from the canonical representative of
    ``p1``; True iff every swap is legal and the result equals ``p2`` up to
    common permutation."""
    if p1.n != p2.n:
        return False
    tol = component_tolerance(p1.x, p1.y, p2.x, p2.y)
    c1 = canonical_form(p1)
    y = list(c1.y)
    for mv in moves:
        if not (0 <= mv.i < mv.j < len(y)):
            return False
        if not y[mv.i] > y[mv.j] + tol:
            return False
        y[mv.i], y[mv.j] = y[mv.j], y[mv.i]
    return check_pair_equal_a(PairClass(c1.x, tuple(y)), p2)


class TestPairBasics:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pair((1, 2), (1, 2, 3))

    def test_swap_positions_validated(self):
        with pytest.raises(ValueError):
            SwapMove(2, 1)
        with pytest.raises(ValueError):
            SwapMove(-1, 0)

    def test_canonical_form_sorts_by_x_then_y(self):
        p = pair((2, 1, 1), (5, 7, 6))
        c = canonical_form(p)
        assert c.x == (1.0, 1.0, 2.0)
        assert c.y == (6.0, 7.0, 5.0)

    @given(
        st.lists(st.integers(0, 5), min_size=2, max_size=4),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equality_invariant_under_common_permutation(self, xs, data):
        n = len(xs)
        ys = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        perm = data.draw(st.permutations(range(n)))
        p = pair(xs, ys)
        q = pair([xs[i] for i in perm], [ys[i] for i in perm])
        assert check_pair_equal_a(p, q)
        assert canonical_form(p) == canonical_form(q)

    def test_different_couplings_not_equal(self):
        assert not check_pair_equal_a(pair((1, 2), (3, 4)), pair((1, 2), (4, 3)))


class TestArrangementOrder:
    def test_reflexive(self):
        p = pair((1, 2, 3), (4, 5, 6))
        v = check_arrangement_leq(p, p)
        assert v.status is Status.HOLDS and v.witness == []

    def test_single_swap_raises_pair(self):
        # x increasing; swapping a larger-before-smaller y pair moves up
        lo = pair((1, 2), (7, 3))
        hi = pair((1, 2), (3, 7))
        up = check_arrangement_leq(lo, hi)
        assert up.status is Status.HOLDS and up.witness == [SwapMove(0, 1)]
        down = check_arrangement_leq(hi, lo)
        assert down.status is Status.REFUTED

    def test_sandwich_exhaustive_n4(self):
        """Opposite ordering is the minimum, similar ordering the maximum."""
        x = (1.0, 2.0, 3.0, 4.0)
        y_vals = (10.0, 20.0, 30.0, 40.0)
        bottom = pair(x, tuple(sorted(y_vals, reverse=True)))
        top = pair(x, tuple(sorted(y_vals)))
        for perm in itertools.permutations(y_vals):
            mid = pair(x, perm)
            assert check_arrangement_leq(bottom, mid).status is Status.HOLDS
            assert check_arrangement_leq(mid, top).status is Status.HOLDS

    def test_multiset_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_arrangement_leq(pair((1, 2), (3, 4)), pair((1, 2), (3, 5)))

    def test_tie_blocks_identify_arrangements(self):
        # equal x components: any y arrangement within the block is the same pair
        p = pair((1, 1), (5, 9))
        q = pair((1, 1), (9, 5))
        assert check_pair_equal_a(p, q)
        assert check_arrangement_leq(p, q).status is Status.HOLDS

    def test_budget_exhaustion_yields_unknown(self):
        p1 = pair((1, 2, 3, 4), (40, 30, 20, 10))
        p2 = pair((1, 2, 3, 4), (10, 20, 30, 40))
        v = check_arrangement_leq(p1, p2, budget=1)
        assert v.status is Status.UNKNOWN

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_witness_always_replays(self, data):
        n = data.draw(st.integers(2, 4))
        x = tuple(float(v) for v in data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        y = tuple(float(v) for v in data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
        perm = data.draw(st.permutations(range(n)))
        p1 = pair(x, y)
        p2 = pair(x, tuple(y[i] for i in perm))
        v = check_arrangement_leq(p1, p2)
        if v.status is Status.HOLDS:
            assert verify_arrangement_chain(p1, p2, v.witness)

    def test_chain_replay_rejects_illegal_swap(self):
        p1 = pair((1, 2), (3, 7))
        p2 = pair((1, 2), (7, 3))
        # swapping an already-increasing y pair is not a legal move
        assert not verify_arrangement_chain(p1, p2, [SwapMove(0, 1)])
