import collections
import copy
import dataclasses
import hashlib
import itertools
import json
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from stochord import majorization, rc_order
from stochord.arrangement import (
    PairClass,
    SwapMove,
    _rank_count_violation,
    _tolerance,
    _value_ids,
    canonical_form,
    check_arrangement_leq,
    check_pair_equal_a,
    pair,
)
from stochord.harness import MATRIX, Scenario, _param_pairs, generate_instance
from stochord.majorization import (
    BASE_TOL,
    MajorizationMode,
    check_majorization,
    component_tolerance,
    t_transform_chain,
)
from stochord.rc_order import (
    ChainConstructionError,
    ElementaryMove,
    MoveKind,
    RcChain,
    RcMode,
    chain_from_json,
    chain_to_json,
    check_necessary,
    construct_chain_opposite,
    decide_wrc,
    is_opposite_ordered,
    verify_rc_chain,
    verify_rc_move,
)
from stochord.verdicts import OrderVerdict, Status

STRICT, WEAK = RcMode.STRICT, RcMode.WEAK


def _search(p1, p2, mode, budget):
    """The best-first search from ``p1`` toward ``p2``, as ``decide_wrc``
    runs it past its other routes."""
    return rc_order._search(p1, p2, mode, budget)


def _target(p2):
    """The search's target record of the pair ``p2``."""
    return rc_order._target(p2)


def _reference_verify_rc_move(a, b, m, mode, number=float):
    """``verify_rc_move`` as it was before its tolerance became one scan and
    its coordinate checks plain loops: the oracle of the rewritten one.  With
    ``number=Fraction`` it compares the two moved coordinates exactly, as
    ``Fraction``s of the floats, the fallback ``verify_rc_move`` took where
    their sums pass the largest float before it summed integers over one
    power of two."""
    n = a.n
    if b.n != n:
        return False
    kind = m.kind
    if mode is RcMode.STRICT and kind in rc_order._WEAK_ONLY:
        return False
    if not n:
        return kind in (MoveKind.RAISE_X, MoveKind.LOWER_Y)
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    tol = 1e-12 * max(
        1.0, max(ax), -min(ax), max(ay), -min(ay), max(bx), -min(bx), max(by), -min(by)
    )
    if kind is MoveKind.RAISE_X:
        return all(abs(ay[k] - by[k]) <= tol and ax[k] <= bx[k] + tol for k in range(n))
    if kind is MoveKind.LOWER_Y:
        return all(abs(ax[k] - bx[k]) <= tol and ay[k] >= by[k] - tol for k in range(n))
    i, j = m.i, m.j
    if j >= n or not (by[j] - by[i]) * (bx[j] - bx[i]) <= tol:
        return False
    if kind in rc_order._MOVES_X:
        moved_a, moved_b, fixed_a, fixed_b = ax, bx, ay, by
    else:
        moved_a, moved_b, fixed_a, fixed_b = ay, by, ax, bx
    if not all(
        abs(fixed_a[k] - fixed_b[k]) <= tol
        and (k == i or k == j or abs(moved_a[k] - moved_b[k]) <= tol)
        for k in range(n)
    ):
        return False
    u, v, s, t = moved_a[i], moved_a[j], moved_b[i], moved_b[j]
    pair_tol = 1e-12 * max(1.0, abs(u), abs(v), abs(s), abs(t)) * 2
    u, v, s, t, pair_tol = map(number, (u, v, s, t, pair_tol))
    if kind is MoveKind.WEAK_MAJORIZE_Y:
        return not (min(u, v) < min(s, t) - pair_tol or u + v < s + t - pair_tol)
    if max(u, v) > max(s, t) + pair_tol or u + v > s + t + pair_tol:
        return False
    return kind is MoveKind.WEAK_MAJORIZE_X or not abs(u + v - (s + t)) > pair_tol


# multiples of a tolerance, on both sides of 1, 2 and 3
_EDGE_STEPS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, -0.5, -1.0, -1.5, -2.0, -2.5, -3.0)


@st.composite
def _move_cases(draw):
    """A pair ``a``, a pair ``b`` one move of a drawn kind from it (a swap, a
    transfer or a fresh draw at two positions, or a componentwise raise or
    lower), a move whose ``j`` may lie past the end, and a mode.  Components
    come from a pool with ties, ``-0.0`` and a far value.  Then up to two
    edge moves, on a vector of b or on one of both pairs alike: a component
    moved by 0.5 to 3 times a tolerance, alone or as a transfer to another
    (mostly at i and j), around the edges of each check.  Every
    two-coordinate sum of finite components stays finite; now and then one
    component is infinite."""
    n = draw(st.integers(0, 6))
    scale = draw(st.sampled_from((1.0, 1e-3, 1e4, 2.0**1000)))
    comp = st.one_of(
        st.sampled_from((0.0, -0.0, 1.0, 2.0, 0.5, -1.0, 1e4)),
        st.floats(-3.0, 3.0, allow_nan=False),
    )
    ax, ay = ([draw(comp) * scale for _ in range(n)] for _ in range(2))
    kind = draw(st.sampled_from(MoveKind))
    bx, by = list(ax), list(ay)
    i = j = None
    if kind in rc_order._COUPLED:
        i = draw(st.integers(0, max(n - 2, 0)))
        past = n < 2 or draw(st.integers(0, 7)) == 0
        j = draw(st.integers(max(n, i + 1), n + 1) if past else st.integers(i + 1, n - 1))
        moved = bx if kind in rc_order._MOVES_X else by
        if j < n:
            u, w = moved[i], moved[j]
            how = draw(st.sampled_from(("swap", "spread", "spread", "pull", "fresh")))
            if how == "swap":
                moved[i], moved[j] = w, u
            elif how == "fresh":
                moved[i], moved[j] = draw(comp) * scale, draw(comp) * scale
            else:
                lo, hi = (i, j) if u <= w else (j, i)
                if how == "spread":  # or swap them back, at eps 0
                    eps = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))) * scale
                else:  # pull the two together, at most to their mean
                    eps = -draw(st.floats(0.0, 0.5, allow_nan=False)) * (moved[hi] - moved[lo])
                moved[lo], moved[hi] = moved[lo] - eps, moved[hi] + eps
            if draw(st.booleans()):  # order the other vector oppositely at i, j
                other_a, other_b = (ay, by) if moved is bx else (ax, bx)
                up = (moved[j] - moved[i]) >= 0
                lo, hi = sorted((other_a[i], other_a[j]))
                other_a[i], other_a[j] = (hi, lo) if up else (lo, hi)
                other_b[i], other_b[j] = other_a[i], other_a[j]
    elif n:
        raised = bx if kind is MoveKind.RAISE_X else by
        sign = 1.0 if kind is MoveKind.RAISE_X else -1.0
        for k in range(n):
            if draw(st.booleans()):
                raised[k] += sign * draw(st.floats(0.0, 2.0, allow_nan=False)) * scale
    if n:
        # each check's tolerance is BASE_TOL times big, but the pair one's is
        # twice the moved values' largest magnitude at i and j
        tols = [BASE_TOL * max(1.0, *map(abs, ax + ay + bx + by))]
        spots = tuple(range(n))
        if kind in rc_order._COUPLED and j < n:
            spots = (i, j)
            pair_big = max(1.0, *(abs(c) for v in (ax, ay, bx, by) for c in (v[i], v[j])))
            tols.append(2 * BASE_TOL * pair_big)
        for _ in range(draw(st.sampled_from((0, 1, 1, 1, 2)))):
            # one of b's vectors, or one vector of both pairs alike
            vecs = draw(st.sampled_from(((bx,), (by,), (ax, bx), (ay, by))))
            where = spots if draw(st.booleans()) else tuple(range(n))
            k, k2 = draw(st.sampled_from(where)), draw(st.sampled_from(where))
            step = draw(st.sampled_from(_EDGE_STEPS)) * draw(st.sampled_from(tols))
            transfer = draw(st.booleans())  # which keeps the sum
            for vec in vecs:
                vec[k] += step
                if transfer:
                    vec[k2] -= step
    for u, w in itertools.combinations(ax + ay + bx + by, 2):
        assume(math.isfinite(u + w))
    if n and draw(st.integers(0, 9)) == 0:  # an infinite component, as a search candidate may hold
        vec = draw(st.sampled_from((ax, ay, bx, by)))
        vec[draw(st.integers(0, n - 1))] = draw(st.sampled_from((math.inf, -math.inf)))
    mode = draw(st.sampled_from((STRICT, WEAK, WEAK)))
    a, b = PairClass(tuple(ax), tuple(ay)), PairClass(tuple(bx), tuple(by))
    return a, b, ElementaryMove(kind, i, j), mode


@st.composite
def _coupled_edge_cases(draw):
    """A coupled move at the edge of its pair tolerance: at positions
    ``i < j``, b's moved vector is a's swapped or spread there, or neither,
    then moved by 0.5 to 3 times the pair tolerance at i alone or as a
    transfer to j; the other vector is a's, ordered oppositely or tied at
    i and j so that the coupling holds, or set so that the coupling's
    product lies at the edge of its tolerance."""
    n = draw(st.integers(2, 6))
    scale = draw(st.sampled_from((1.0, 1e-3, 1e4, 2.0**1000)))
    comp = st.one_of(
        st.sampled_from((0.0, -0.0, 1.0, 2.0, 0.5, -1.0)), st.floats(-3.0, 3.0, allow_nan=False)
    )
    moved_a, other = ([draw(comp) * scale for _ in range(n)] for _ in range(2))
    kind = draw(st.sampled_from(rc_order._COUPLED))
    i, j = sorted(draw(st.permutations(range(n)))[:2])
    moved_b = list(moved_a)
    if draw(st.booleans()):
        moved_b[i], moved_b[j] = moved_b[j], moved_b[i]
    lo, hi = (i, j) if moved_b[i] <= moved_b[j] else (j, i)
    eps = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))) * scale
    moved_b[lo], moved_b[hi] = moved_b[lo] - eps, moved_b[hi] + eps
    pair_big = max(1.0, *map(abs, (moved_a[i], moved_a[j], moved_b[i], moved_b[j])))
    step = draw(st.sampled_from(_EDGE_STEPS)) * 2 * BASE_TOL * pair_big
    moved_b[i] += step
    if draw(st.booleans()):
        moved_b[j] -= step
    how = draw(st.sampled_from(("tied", "opposite", "product")))
    d = moved_b[j] - moved_b[i]
    if how == "tied":
        other[j] = other[i]
    elif how == "product" and d:
        # the coupling's product of differences 0.5 to 3 tolerances from 0
        big = max(1.0, *map(abs, moved_a + moved_b + other))
        other[j] = other[i] + draw(st.sampled_from(_EDGE_STEPS)) * BASE_TOL * big / d
    elif (other[j] - other[i]) * d > 0:
        other[i], other[j] = other[j], other[i]
    for u, w in itertools.combinations(moved_a + moved_b + other, 2):
        assume(math.isfinite(u + w))
    moved_a, moved_b, other = tuple(moved_a), tuple(moved_b), tuple(other)
    if kind in rc_order._MOVES_X:
        a, b = PairClass(moved_a, other), PairClass(moved_b, other)
    else:
        a, b = PairClass(other, moved_a), PairClass(other, moved_b)
    return a, b, ElementaryMove(kind, i, j), WEAK


@st.composite
def _componentwise_edge_cases(draw):
    """A raise of x or a lower of y at the edge of the move's tolerance:
    b's moved vector raised (lowered) at some positions, then one component
    of b, in either vector, moved by 0.5 to 3 times the tolerance."""
    n = draw(st.integers(1, 6))
    scale = draw(st.sampled_from((1.0, 1e-3, 1e4, 2.0**1000)))
    comp = st.one_of(
        st.sampled_from((0.0, -0.0, 1.0, 2.0, 0.5, -1.0)), st.floats(-3.0, 3.0, allow_nan=False)
    )
    ax, ay = ([draw(comp) * scale for _ in range(n)] for _ in range(2))
    kind = draw(st.sampled_from((MoveKind.RAISE_X, MoveKind.LOWER_Y)))
    bx, by = list(ax), list(ay)
    moved, sign = (bx, 1.0) if kind is MoveKind.RAISE_X else (by, -1.0)
    for k in range(n):
        if draw(st.booleans()):
            moved[k] += sign * draw(st.floats(0.0, 2.0, allow_nan=False)) * scale
    big = max(1.0, *map(abs, ax + ay + bx + by))
    vec = draw(st.sampled_from((bx, by)))
    vec[draw(st.integers(0, n - 1))] += draw(st.sampled_from(_EDGE_STEPS)) * BASE_TOL * big
    a, b = PairClass(tuple(ax), tuple(ay)), PairClass(tuple(bx), tuple(by))
    return a, b, ElementaryMove(kind), WEAK


@st.composite
def _overflowing_moves(draw):
    """A coupled move whose moved coordinates sum past +1.8e308 or
    -1.8e308, in either mode: a's moved vector holds components near 2^1021
    to 2^1023 of one sign; at positions ``i < j``, b's is a's swapped,
    spread, pulled together or drawn afresh there, then moved by 0.5 to 3
    times the pair tolerance at i alone or as a transfer to j.  The other
    vector, small or of the moved one's magnitudes and sign, is tied or
    ordered oppositely at i and j, or left as drawn.  Every difference of
    two components stays finite, so the coupling's product is never nan."""
    n = draw(st.integers(2, 4))
    sign = draw(st.sampled_from((1.0, -1.0)))
    big = st.builds(
        lambda m, e: sign * m * 2.0**e,
        st.floats(1.0, 2.0, exclude_max=True),
        st.sampled_from((1021, 1022, 1023, 1023)),
    )
    moved_a = [draw(big) for _ in range(n)]
    other = [draw(st.one_of(big, st.floats(-3.0, 3.0))) for _ in range(n)]
    kind = draw(st.sampled_from(rc_order._COUPLED))
    i, j = sorted(draw(st.permutations(range(n)))[:2])
    moved_b = list(moved_a)
    how = draw(st.sampled_from(("swap", "spread", "pull", "fresh")))
    if how == "swap":
        moved_b[i], moved_b[j] = moved_b[j], moved_b[i]
    elif how == "fresh":
        moved_b[i], moved_b[j] = draw(big), draw(big)
    else:
        lo, hi = (i, j) if moved_b[i] <= moved_b[j] else (j, i)
        eps = draw(st.floats(0.0, 1.0) if how == "spread" else st.floats(-0.5, 0.0))
        eps *= moved_b[hi] - moved_b[lo]
        moved_b[lo], moved_b[hi] = moved_b[lo] - eps, moved_b[hi] + eps
    pair_big = max(map(abs, (moved_a[i], moved_a[j], moved_b[i], moved_b[j])))
    step = draw(st.sampled_from(_EDGE_STEPS)) * 2 * BASE_TOL * pair_big
    moved_b[i] += step
    if draw(st.booleans()):
        moved_b[j] -= step
    how = draw(st.sampled_from(("tied", "opposite", "drawn")))
    if how == "tied":
        other[j] = other[i]
    elif how == "opposite" and (other[j] - other[i]) * (moved_b[j] - moved_b[i]) > 0:
        other[i], other[j] = other[j], other[i]
    assume(all(map(math.isfinite, moved_b)))
    assume(not (math.isfinite(moved_a[i] + moved_a[j]) and math.isfinite(moved_b[i] + moved_b[j])))
    moved_a, moved_b, other = tuple(moved_a), tuple(moved_b), tuple(other)
    if kind in rc_order._MOVES_X:
        a, b = PairClass(moved_a, other), PairClass(moved_b, other)
    else:
        a, b = PairClass(other, moved_a), PairClass(other, moved_b)
    return a, b, ElementaryMove(kind, i, j), draw(st.sampled_from((STRICT, WEAK)))


class TestVerifyRcMove:
    def test_majorize_x_needs_reverse_paired_target(self):
        # moving up the chain spreads coordinates; target has x increasing
        # while y decreases at (0,1), so the coupling is legal
        a = pair((1.5, 2.5), (9.0, 2.0))
        b = pair((1.0, 3.0), (9.0, 2.0))
        assert verify_rc_move(a, b, ElementaryMove(MoveKind.MAJORIZE_X, 0, 1), STRICT)

    def test_majorize_x_rejected_when_similarly_ordered(self):
        a = pair((1.5, 2.5), (2.0, 9.0))
        b = pair((1.0, 3.0), (2.0, 9.0))
        assert not verify_rc_move(a, b, ElementaryMove(MoveKind.MAJORIZE_X, 0, 1), STRICT)

    def test_move_must_preserve_other_vector(self):
        a = pair((1.5, 2.5), (9.0, 2.0))
        b = pair((1.0, 3.0), (9.0, 3.0))
        assert not verify_rc_move(a, b, ElementaryMove(MoveKind.MAJORIZE_X, 0, 1), STRICT)

    def test_move_must_fix_off_coordinates(self):
        a = pair((1.5, 2.5, 5.0), (9.0, 2.0, 1.0))
        b = pair((1.0, 3.0, 6.0), (9.0, 2.0, 1.0))
        assert not verify_rc_move(a, b, ElementaryMove(MoveKind.MAJORIZE_X, 0, 1), STRICT)

    def test_contraction_is_not_a_majorization_move(self):
        # the chain may only spread coordinates, never pull them together
        a = pair((1.0, 3.0), (9.0, 2.0))
        b = pair((1.5, 2.5), (9.0, 2.0))
        assert not verify_rc_move(a, b, ElementaryMove(MoveKind.MAJORIZE_X, 0, 1), STRICT)

    def test_weak_moves_rejected_in_strict_mode(self):
        a = pair((1.0, 2.0), (3.0, 4.0))
        b = pair((1.5, 2.5), (3.0, 4.0))
        m = ElementaryMove(MoveKind.RAISE_X)
        assert verify_rc_move(a, b, m, WEAK)
        assert not verify_rc_move(a, b, m, STRICT)

    def test_a_zero_difference_passes_beside_an_overflowing_one(self):
        """A spread of x = (-1e308, 1e308) to (-1.5e308, 1.5e308) beside
        y = (1, 1): x's difference passes the largest float and y's is 0, so
        the coupling product is ``inf * 0 = nan``, yet the move is legal, as
        at 1e307; so is the same spread of y beside x = (1, 1)."""
        for big in (1e307, 1e308):
            ones, start, spread = (1.0, 1.0), (-big, big), (-1.5 * big, 1.5 * big)
            for mode in (STRICT, WEAK):
                m = ElementaryMove(MoveKind.MAJORIZE_X, 0, 1)
                assert verify_rc_move(pair(start, ones), pair(spread, ones), m, mode)
                m = ElementaryMove(MoveKind.MAJORIZE_Y, 0, 1)
                assert verify_rc_move(pair(ones, start), pair(ones, spread), m, mode)

    def test_lower_y_componentwise(self):
        a = pair((1.0, 2.0), (3.0, 4.0))
        b = pair((1.0, 2.0), (2.5, 4.0))
        assert verify_rc_move(a, b, ElementaryMove(MoveKind.LOWER_Y), WEAK)
        assert not verify_rc_move(b, a, ElementaryMove(MoveKind.LOWER_Y), WEAK)

    @pytest.mark.parametrize(
        "kind, mode, build, inside, outside",
        [
            # the largest value only in b.x; a.x[1] sits d above b.x[1]
            (MoveKind.RAISE_X, WEAK,
             lambda d: (((1.0, 1.0 + d), (2.0, 2.0)), ((1e4, 1.0), (2.0, 2.0))), 1e-9, 2e-8),
            # the largest value only in a.y; x moves by d
            (MoveKind.LOWER_Y, WEAK,
             lambda d: (((1.0, 2.0), (1e4, 1.0)), ((1.0, 2.0 + d), (1.0, 1.0))), 1e-9, 2e-8),
            # the largest value only in y on an x move; an off coordinate moves by d
            (MoveKind.MAJORIZE_X, STRICT,
             lambda d: (((1.0, 2.0, 3.0), (1e4, 1.0, 5.0)),
                        ((0.5, 2.5, 3.0 + d), (1e4, 1.0, 5.0))), 1e-9, 2e-8),
            # the largest value only in b.x; the target's product is 2e4 * d
            (MoveKind.MAJORIZE_X, WEAK,
             lambda d: (((1.0, 1.0), (1.0, 1.0 + d)), ((-1e4 + 2.0, 1e4), (1.0, 1.0 + d))),
             2e-13, 2e-12),
            # the largest value only in b.x; y moves by d
            (MoveKind.WEAK_MAJORIZE_X, WEAK,
             lambda d: (((1.0, 2.0), (9.0, 2.0)), ((0.5, 1e4), (9.0, 2.0 + d))), 1e-9, 2e-8),
            # the largest value only in b.y; x moves by d
            (MoveKind.MAJORIZE_Y, STRICT,
             lambda d: (((2.0, 1.0), (5e3, 5e3)), ((2.0, 1.0 + d), (0.0, 1e4))), 7e-9, 2e-8),
            # the largest value only in x on a y move; x moves by d
            (MoveKind.WEAK_MAJORIZE_Y, WEAK,
             lambda d: (((1e4, 1.0), (2.0, 3.0)), ((1e4, 1.0 + d), (1.0, 3.0))), 1e-9, 2e-8),
        ],
        ids=["raise_x", "lower_y", "majorize_x", "majorize_x_product", "weak_majorize_x",
             "majorize_y", "weak_majorize_y"],
    )
    def test_tolerance_scales_by_all_four_vectors(self, kind, mode, build, inside, outside):
        """Each move passes only because the tolerance scales by the largest
        component of a.x, a.y, b.x and b.y together: a tolerance from fewer of
        them, or none, rejects it.  A deviation past that tolerance fails."""
        m = ElementaryMove(kind, 0, 1) if kind in rc_order._COUPLED else ElementaryMove(kind)
        a, b = (pair(*v) for v in build(inside))
        assert verify_rc_move(a, b, m, mode)
        a, b = (pair(*v) for v in build(outside))
        assert not verify_rc_move(a, b, m, mode)
        # the weak kinds are weak mode's alone; the full ones hold in both
        other = WEAK if mode is STRICT else STRICT
        a, b = (pair(*v) for v in build(inside))
        assert verify_rc_move(a, b, m, other) is (kind not in rc_order._WEAK_ONLY)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_coupled_move_is_the_majorization_of_its_two_coordinates(self, data):
        """With the other vector constant, a coupled move at n = 2 holds
        exactly when check_majorization does, tolerance edges included."""
        scale = data.draw(st.sampled_from((1.0, 1e-3, 1e4)))
        s, t = (data.draw(st.floats(-3.0, 3.0)) * scale for _ in range(2))
        # (s, t) itself, swapped or averaged, each coordinate nudged
        u, v = data.draw(st.sampled_from(((s, t), (t, s), (0.5 * (s + t),) * 2)))
        nudge = st.sampled_from((0.0, 1e-13, -1e-13, 2e-12, -2e-12, 1e-9))
        u, v = u + data.draw(nudge) * scale, v + data.draw(nudge) * scale
        same = (1.0, 1.0)
        for kind, mode in (
            (MoveKind.MAJORIZE_X, MajorizationMode.FULL),
            (MoveKind.WEAK_MAJORIZE_X, MajorizationMode.BELOW),
            (MoveKind.MAJORIZE_Y, MajorizationMode.FULL),
            (MoveKind.WEAK_MAJORIZE_Y, MajorizationMode.ABOVE),
        ):
            if kind in rc_order._MOVES_X:
                a, b = pair((u, v), same), pair((s, t), same)
            else:
                a, b = pair(same, (u, v)), pair(same, (s, t))
            want, _ = check_majorization((u, v), (s, t), mode)
            assert verify_rc_move(a, b, ElementaryMove(kind, 0, 1), WEAK) is want, kind

    @given(_move_cases())
    @settings(max_examples=1000, deadline=None)
    def test_agrees_with_the_reference(self, case):
        """The rewritten move check gives the reference's answer on every
        kind, both modes, empty pairs, ``j`` past the end, ties, ``-0.0``
        and components nudged around each tolerance edge, and rejects every
        move between pairs with an infinite component."""
        a, b, m, mode = case
        # the reference also let a move reach an infinite component
        finite = all(map(math.isfinite, a.x + a.y + b.x + b.y))
        want = _reference_verify_rc_move(a, b, m, mode) and finite
        event(f"{m.kind.value}: {want}" + ("" if finite else " (infinite)"))
        assert verify_rc_move(a, b, m, mode) is want

    @given(st.one_of(_coupled_edge_cases(), _componentwise_edge_cases()))
    @settings(max_examples=2000, deadline=None)
    def test_tolerance_edges_agree_with_the_reference(self, case):
        """The same at the tolerance edges where the general draw rarely
        lands: each side of the pair tolerance's max and sum comparisons, of
        the coupling's product and of the componentwise comparisons."""
        a, b, m, mode = case
        want = _reference_verify_rc_move(a, b, m, mode)
        event(f"{m.kind.value}: {want}")
        assert verify_rc_move(a, b, m, mode) is want

    @given(_overflowing_moves())
    @settings(max_examples=600, deadline=None)
    def test_sums_past_the_floats_agree_with_the_fraction_reference(self, case):
        """Where the moved coordinates sum past the largest float, of either
        sign, every coupled kind in either mode gives the answer of the
        reference that compares them as ``Fraction``s, on each side of the
        pair tolerance."""
        a, b, m, mode = case
        want = _reference_verify_rc_move(a, b, m, mode, Fraction)
        event(f"{m.kind.value}, {mode.value}: {want}")
        assert verify_rc_move(a, b, m, mode) is want

    @pytest.mark.parametrize("exponent", [1000, 1021])
    def test_sums_past_the_floats_compare_exactly(self, exponent):
        """At r = 2^1021 both y sums of the moved coordinates pass the
        largest float; they compare exactly, so a move that breaks the sum
        is rejected and one that keeps it accepted, as at r = 2^1000."""
        r = 2.0**exponent
        x = (0.4, 0.5, 0.6)
        a = pair(x, (r, 5 * r, 4 * r))
        m = ElementaryMove(MoveKind.MAJORIZE_Y, 1, 2)
        for mode in (STRICT, WEAK):
            assert not verify_rc_move(a, pair(x, (r, 6 * r, 3.5 * r)), m, mode)
            assert verify_rc_move(a, pair(x, (r, 6 * r, 3 * r)), m, mode)
        weak = ElementaryMove(MoveKind.WEAK_MAJORIZE_Y, 1, 2)
        assert verify_rc_move(a, pair(x, (r, 6 * r, 2.5 * r)), weak, WEAK)
        assert not verify_rc_move(a, pair(x, (r, 6 * r, 3.5 * r)), weak, WEAK)

    def test_a_move_onto_an_infinity_is_rejected(self):
        """A search candidate can hold an infinity (a transfer onto
        ``a + b - g`` past the largest float).  Its tolerance, scaled by the
        largest magnitude, was infinite too, so every check passed and such
        a pair entered the search tree; the move is rejected now."""
        big = 2.0**1021
        a = pair((0.4, 0.5, 0.6), (big, 5 * big, 4 * big))
        m = ElementaryMove(MoveKind.MAJORIZE_Y, 1, 2)
        b = PairClass(a.x, (big, math.inf, -math.inf))
        assert _reference_verify_rc_move(a, b, m, WEAK)
        for mode in (STRICT, WEAK):
            assert not verify_rc_move(a, b, m, mode)
            assert not verify_rc_move(b, a, m, mode)
            assert not verify_rc_move(a, PairClass(a.x, (big, math.inf, 4 * big)), m, mode)
        lower = ElementaryMove(MoveKind.LOWER_Y)
        assert not verify_rc_move(PairClass(a.x, (math.inf,) * 3), b, lower, WEAK)

    def test_coupled_move_requires_positions(self):
        with pytest.raises(ValueError):
            ElementaryMove(MoveKind.MAJORIZE_X)
        with pytest.raises(ValueError):
            ElementaryMove(MoveKind.MAJORIZE_Y, 1, 1)


class TestCheckNecessary:
    def test_strict_needs_full_majorization_both(self):
        p1 = pair((1.0, 3.0), (5.0, 5.0))
        p2 = pair((0.0, 4.0), (4.0, 6.0))
        assert check_necessary(p1, p2, STRICT) == (True, None)
        ok, viol = check_necessary(p2, p1, STRICT)
        assert not ok and viol["vector"] == "x"

    def test_weak_directions(self):
        # x may shrink (below-weak), y may grow (above-weak)
        p1 = pair((1.0, 1.0), (6.0, 6.0))
        p2 = pair((1.0, 2.0), (5.0, 6.0))
        assert check_necessary(p1, p2, WEAK)[0]
        assert not check_necessary(p2, p1, WEAK)[0]


# one case per route of decide_wrc: (p1, p2), mode, budget, and the verdict's
# status and detail
_ROUTE_CASES = [
    (((0.0, 4.0), (3.0, 3.0)), ((1.0, 3.0), (3.0, 3.0)), STRICT, 4000,
     Status.REFUTED, {"route": "necessary"}),
    (((1.0, 2.0), (3.0, 4.0)), ((2.0, 1.0), (4.0, 3.0)), STRICT, 4000,
     Status.HOLDS, {"route": "equal"}),
    (((1.0, 2.0), (0.9, 0.8)), ((1.5, 2.5), (0.7, 0.6)), WEAK, 4000,
     Status.HOLDS, {"route": "opposite"}),
    (((1.0, 2.0, 3.0), (10.0, 20.0, 30.0)), ((1.0, 2.0, 3.0), (20.0, 10.0, 30.0)),
     STRICT, 4000, Status.HOLDS, {"route": "arrangement"}),
    (((1.0, 1.0, 1.0), (3.0, 3.0, 3.0)), ((3.5, 0.5, 2.0), (4.0, 1.0, 2.0)), WEAK,
     4000, Status.HOLDS, {"route": "search", "expanded": 147, "budget": 4000}),
    (((1.0, 1.0, 1.0), (3.0, 3.0, 3.0)), ((3.5, 0.5, 2.0), (4.0, 1.0, 2.0)), WEAK,
     100, Status.UNKNOWN, {"route": "search", "expanded": 100, "budget": 100,
                           "reason": "search budget exhausted"}),
    (((1.0, 2.0, 3.0), (20.0, 30.0, 10.0)), ((1.0, 2.0, 3.0), (10.0, 20.0, 30.0)),
     STRICT, 4000, Status.REFUTED, {"route": "arrangement"}),
    (((1.04, 1.08), (0.74, 2.73)), ((0.96, 1.48), (0.43, 2.63)), WEAK, 4000,
     Status.UNKNOWN, {"route": "search", "expanded": 19, "budget": 4000,
                      "reason": "search space exhausted"}),
]
_ROUTE_IDS = [
    "necessary", "equal", "opposite", "arrangement", "search", "budget",
    "arrangement-refuted", "space",
]


def _count_calls(monkeypatch, names):
    """Wrap each function ``rc_order.<name>`` at every module attribute of
    the package that binds it, as the benchmark's span tracer installs its
    wrappers; returns the counter of the wrapped calls by name."""
    calls = collections.Counter()
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "stochord"]
    for name in names:
        original = getattr(rc_order, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


class TestDecideWrc:
    def test_equal_pairs_hold_with_empty_chain(self):
        p = pair((1.0, 2.0), (3.0, 4.0))
        q = pair((2.0, 1.0), (4.0, 3.0))  # common permutation
        v = decide_wrc(p, q, STRICT)
        assert v.status is Status.HOLDS and len(v.witness.moves) == 0

    @pytest.mark.parametrize("mode", [STRICT, WEAK])
    def test_worked_example_near_the_largest_float(self, mode):
        """The worked example with its rates times 2^1021, both ways: the
        search meets candidates whose components pass the largest float,
        and no check raises on them.  Scaling by a power of two keeps the
        order, so each verdict is the one at scale 1; a holds chain
        verifies."""
        x1, y1 = (0.4, 0.6, 0.5), (2.0, 3.0, 4.0)
        x2, y2 = (0.7, 0.3, 0.5), (1.0, 3.0, 5.0)
        r = 2.0**1021
        for (a, b), (c, d) in (((x1, y1), (x2, y2)), ((x2, y2), (x1, y1))):
            unit = decide_wrc(pair(a, b), pair(c, d), mode)
            v = decide_wrc(pair(a, [r * t for t in b]), pair(c, [r * t for t in d]), mode)
            assert v.status is unit.status
            assert not v.holds or verify_rc_chain(v.witness)

    @pytest.mark.parametrize("exponent", [1019, 1020, 1021])
    def test_worked_example_in_units_near_the_largest_float(self, exponent):
        """The worked example with its rates times 2^1019, 2^1020 and 2^1021
        takes the same five search nodes and the same two moves, though at
        2^1021 the rates sum past the largest float, where a test on the
        moved vector's sum would compare ``inf - inf``."""
        r = 2.0**exponent
        p1 = pair((0.4, 0.6, 0.5), (2 * r, 3 * r, 4 * r))
        p2 = pair((0.7, 0.3, 0.5), (r, 3 * r, 5 * r))
        v = decide_wrc(p1, p2)
        assert v.status is Status.HOLDS
        assert v.detail == {"route": "search", "expanded": 5, "budget": 4000}
        assert [(m.kind, m.i, m.j) for m in v.witness.moves] == [
            (MoveKind.MAJORIZE_Y, 0, 2),
            (MoveKind.MAJORIZE_Y, 1, 2),
        ]
        assert verify_rc_chain(v.witness) and check_pair_equal_a(v.witness.pairs[-1], p2)

    def test_necessary_violation_refutes(self):
        p1 = pair((0.0, 4.0), (3.0, 3.0))
        p2 = pair((1.0, 3.0), (3.0, 3.0))
        v = decide_wrc(p1, p2, STRICT)
        assert v.status is Status.REFUTED and v.violation["vector"] == "x"

    @pytest.mark.parametrize("mode", ["weak", "strict", "nonsense", None, 1])
    def test_a_mode_that_is_not_an_rc_mode_is_refused(self, mode):
        """The worked example holds in either mode; a mode given by its
        value, or by anything else, is refused before any route runs, where
        it used to decide and to write a witness that ``chain_to_json``
        could not serialize."""
        p1, p2 = pair((0.4, 0.6, 0.5), (2.0, 3.0, 4.0)), pair((0.7, 0.3, 0.5), (1.0, 3.0, 5.0))
        assert decide_wrc(p1, p2, WEAK).holds and decide_wrc(p1, p2, STRICT).holds
        with pytest.raises(TypeError, match="RcMode"):
            decide_wrc(p1, p2, mode)

    def test_arrangement_ordered_pairs_are_ordered_strictly(self):
        """Exhaustive embedding of the arrangement order, n = 3."""
        x = (1.0, 2.0, 3.0)
        ys = (10.0, 20.0, 30.0)
        for perm1 in itertools.permutations(ys):
            for perm2 in itertools.permutations(ys):
                p1, p2 = pair(x, perm1), pair(x, perm2)
                if check_arrangement_leq(p2, p1).status is not Status.HOLDS:
                    continue
                # p1 arrangement-larger => p1 below p2 in the coupled order
                v = decide_wrc(p1, p2, STRICT)
                assert v.status is Status.HOLDS
                assert verify_rc_chain(v.witness)

    def test_strict_implies_weak(self):
        p1 = pair((0.4, 0.6, 0.5), (2.0, 3.0, 4.0))
        p2 = pair((0.7, 0.3, 0.5), (1.0, 3.0, 5.0))
        assert decide_wrc(p1, p2, STRICT).status is Status.HOLDS
        assert decide_wrc(p1, p2, WEAK).status is Status.HOLDS

    def test_witness_chain_endpoints(self):
        p1 = pair((0.4, 0.6, 0.5), (2.0, 3.0, 4.0))
        p2 = pair((0.7, 0.3, 0.5), (1.0, 3.0, 5.0))
        v = decide_wrc(p1, p2, STRICT)
        chain = v.witness
        assert check_pair_equal_a(chain.pairs[0], p1)
        assert check_pair_equal_a(chain.pairs[-1], p2)
        assert verify_rc_chain(chain)

    def test_componentwise_weak_dominance(self):
        p1 = pair((1.0, 2.0), (0.9, 0.8))
        p2 = pair((1.5, 2.5), (0.7, 0.6))
        assert decide_wrc(p1, p2, WEAK).status is Status.HOLDS
        assert decide_wrc(p1, p2, STRICT).status is Status.REFUTED

    def test_near_tied_y_under_larger_x_holds(self):
        """y's components differ by 5e-12, past the y vectors' own tolerance
        but within that of all four.  The construction's swap loop sorts them
        exactly, so its transfer chain on y receives sorted vectors and the
        construction decides: a raise of x, a swap and a transfer on y, a
        transfer on x, and a lowering of y."""
        p1 = pair((10.0, 10.0), (1.0, 1.000000000005))
        p2 = pair((9.0, 12.0), (1.5, 0.4))
        v = decide_wrc(p1, p2, WEAK)
        assert v.status is Status.HOLDS
        assert v.detail == {"route": "opposite"}
        assert len(v.witness.moves) == 5
        assert verify_rc_chain(v.witness)
        assert check_pair_equal_a(v.witness.pairs[0], p1)
        assert check_pair_equal_a(v.witness.pairs[-1], p2)

    def test_budget_exhaustion_reports_unknown(self):
        # the pair of the "search" route below, which needs 147 nodes
        p1 = pair((1.0, 1.0, 1.0), (3.0, 3.0, 3.0))
        p2 = pair((3.5, 0.5, 2.0), (4.0, 1.0, 2.0))
        v = decide_wrc(p1, p2, WEAK, budget=1)
        assert v.status is Status.UNKNOWN
        assert v.detail["expanded"] == 1
        assert v.detail["reason"] == "search budget exhausted"

    @pytest.mark.parametrize(
        "p1, p2, mode, budget, status, detail", _ROUTE_CASES, ids=_ROUTE_IDS
    )
    def test_detail_names_the_route(self, p1, p2, mode, budget, status, detail):
        v = decide_wrc(pair(*p1), pair(*p2), mode, budget)
        assert v.status is status and v.detail == detail

    @pytest.mark.parametrize(
        "p1, p2, mode, budget, status, detail", _ROUTE_CASES, ids=_ROUTE_IDS
    )
    def test_routes_call_the_public_checks(
        self, monkeypatch, p1, p2, mode, budget, status, detail
    ):
        """Each decision runs ``check_necessary`` once, and the arrangement
        route ``check_arrangement_leq`` once, through the module attributes
        a tracer wraps, so their spans count the decisions' calls."""
        calls = _count_calls(monkeypatch, ("check_necessary", "check_arrangement_leq"))
        v = decide_wrc(pair(*p1), pair(*p2), mode, budget)
        assert v.detail == detail
        arranged = int(detail["route"] == "arrangement")
        assert (calls["check_necessary"], calls["check_arrangement_leq"]) == (1, arranged)

    def test_arrangement_refutation_is_final_on_equal_multisets(self):
        """Only the pairing differs and no swap chain leads back: with
        exactly equal multisets the refutation names the failing (k, t); with
        multisets equal only within tolerance it falls through to the
        search."""
        p1 = pair((1.0, 2.0, 3.0), (20.0, 30.0, 10.0))
        v = decide_wrc(p1, pair((3.0, 1.0, 2.0), (30.0, 10.0, 20.0)), STRICT)
        assert v.status is Status.REFUTED and v.detail == {"route": "arrangement"}
        assert v.violation == {"reason": "rank count fails", "k": 0, "t": 20.0}
        near = pair((1.0, 2.0, 3.0), (10.0, 20.0, 30.0 + 1e-12))
        for mode in (STRICT, WEAK):
            assert decide_wrc(p1, near, mode).detail["route"] == "search"

    @pytest.mark.parametrize(
        "p2, kind",
        [
            (((1.0, 2.0 + 1e-10), (3.0, 4.0)), MoveKind.RAISE_X),
            (((1.0, 2.0), (3.0, 4.0 - 1e-10)), MoveKind.LOWER_Y),
        ],
        ids=["raise_x", "lower_y"],
    )
    def test_goal_sharing_the_start_key_is_found(self, p2, kind):
        """A goal whose dedupe key (components rounded to 9 decimals) equals
        the start's is still a goal: one componentwise move reaches it."""
        p1, p2 = pair((1.0, 2.0), (3.0, 4.0)), pair(*p2)
        assert not check_pair_equal_a(p1, p2)
        v = decide_wrc(p1, p2, WEAK)
        assert v.status is Status.HOLDS
        assert v.detail == {"route": "search", "expanded": 1, "budget": 4000}
        assert [m.kind for m in v.witness.moves] == [kind]
        assert verify_rc_chain(v.witness) and check_pair_equal_a(v.witness.pairs[-1], p2)

    def test_search_route_witness_is_pinned(self, monkeypatch):
        """A chain found by the best-first search, byte for byte: a change to
        the search's candidates, their order or its distance shows here."""
        searched = []
        real_search = rc_order._search

        def search(*args):
            searched.append(args)
            return real_search(*args)

        monkeypatch.setattr(rc_order, "_search", search)
        p1 = pair((1.0, 1.0, 1.0), (3.0, 3.0, 3.0))
        p2 = pair((3.5, 0.5, 2.0), (4.0, 1.0, 2.0))  # unsorted on purpose
        v = decide_wrc(p1, p2, WEAK)
        assert searched and v.status is Status.HOLDS
        text = chain_to_json(v.witness)
        steps = [
            (r["move"] and (r["move"]["kind"], r["move"]["i"], r["move"]["j"]),
             tuple(r["pair"]["x"]), tuple(r["pair"]["y"]))
            for r in json.loads(text)["chain"]
        ]
        assert steps == [
            (None, (1.0, 1.0, 1.0), (3.0, 3.0, 3.0)),
            (("majorize_y", 0, 1), (1.0, 1.0, 1.0), (2.0, 4.0, 3.0)),
            (("majorize_x", 0, 1), (1.5, 0.5, 1.0), (2.0, 4.0, 3.0)),
            (("majorize_x", 0, 2), (2.0, 0.5, 0.5), (2.0, 4.0, 3.0)),
            (("majorize_y", 1, 2), (2.0, 0.5, 0.5), (2.0, 1.0, 6.0)),
            (("lower_y", None, None), (2.0, 0.5, 0.5), (2.0, 1.0, 4.0)),
            (("raise_x", None, None), (2.0, 0.5, 3.5), (2.0, 1.0, 4.0)),
        ]
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "be22157ecde30735567c2eed04411cbea7200fccde9f108814701b2df307bfc5"
        )


# sha256 of the search's outputs per matrix row: each case's status, detail
# and witness JSON, over every parameter pair at n = 2..6, seeds 0..2, both
# directions, that passes the necessary conditions the search assumes
SEARCH_DIGESTS = {
    ("RaiseAlpha", "negbin"): "3ac50165eeeb0b667f108a09be2cbc62b10fc5334bbd61a7a80f2d7e1c05606b",
    ("LowerBeta", "negbin"): "b3bb623e24c9b573a87b4c050c884c9aa078c9cef214a68330a008acc843b7f2",
    ("MajorizeBeta", "negbin"): "18b0fbcca2bf9d5ebc1d4aaf7bca46a490d02618f7a4d1a6be67e66abf5e7095",
    ("DiffAlphaMajorizeBeta", "negbin"): "fd0a95b24dea759502082dd5f0139d6da75f3bb8220017cecb800f5d50640895",
    ("MajorizeAlpha", "negbin"): "257f7d08849cb3b70d6eaf78d7324e877ab4babf94ef27f59cec2d8814b4d6f9",
    ("ConvAI", "negbin"): "2e89bda351267c7b7caec612799b95553827f1a9c277eda1f6336e583b0bb9cd",
    ("RcGeneral", "negbin"): "95e87b8de34187f96a845b09c645a31f42b1ae157e9a5c299e16c6e70969e76b",
    ("GammaConv", "gamma"): "d6bd0305e4bf565e0dd04eb65c3eebb813116f497b6c891285f018d4b94d1b27",
    ("OppositeOrderedWeak", "negbin"): "c4b09e59ffbf29a6f806e2172c173bf3ff3fe73112424c5661908c19920076bd",
    ("LogMajorizeBetaSt", "negbin"): "6748938a36527168f7ccf9310b3fbe21896ef7ff03846fb43b0df2661d4933e7",
    ("StGeneral", "negbin"): "05dc10166cd107ef634d35b2f80c6906097447b2a7acd5dbcee77551b47d7614",
    ("StGeneral", "gamma"): "57bf2fca36585e4a1389d4396b5f9f3cdd3bbea0f027e5a73e4f10e96adb269d",
    ("AITail", "gamma"): "7c7291f876897defb70180a2ff4aaa7a8d2bd1f0b590bc6ab4081e90282df0f0",
    ("CoupledGammaPair", "gamma"): "2c973415dfc5e2a4a31945c7299649e5a040157f65b7dff7d78afb3b2b994431",
    ("MixtureLemmaSt", "negbin"): "09dab0a5773c1ee084f30a515616544ea777fa42781bc8ed771aa8cfcc990402",
}


# sha256 of ``decide_wrc``'s outputs per matrix row, over every parameter
# pair at n = 2..6, seeds 0..2, both directions, weak and strict mode (budget
# 200): each case's status, detail, violation and witness JSON, so the bytes
# of every route's witness are pinned, ``opposite`` and ``equal`` included
DECIDE_DIGESTS = {
    ("RaiseAlpha", "negbin"): "4cb05d5954ba1a3c015012715734810e97e0574a71552fed474642d00dba5b2d",
    ("LowerBeta", "negbin"): "631525f4d08bb2e38963efc1eaf6f2be223fab23abb6962b6c3aa6a248a87dee",
    ("MajorizeBeta", "negbin"): "2589de076363f7017341d2d846b0f86f0ae9a52bb04bf04b6834bc242f2b6de3",
    ("DiffAlphaMajorizeBeta", "negbin"): "91d6e343afdda5d9217e773150ae438d9714209227ed0c7415b5949cc7a4ea18",
    ("MajorizeAlpha", "negbin"): "dbd33171fa7e1352eaa5de2beb708a2694faf1474874d3f97cd37d0dcf6f8163",
    ("ConvAI", "negbin"): "dc25f617e5543e3f1995fcc16c1731252e9b6ad8cb4d76240b6b2e571178a399",
    ("RcGeneral", "negbin"): "38ccc0c164a512375de5a192a0722af24dcc55a023524c9386551f6fb8bcba91",
    ("GammaConv", "gamma"): "dde1793edeb3d21cf16e1c87c29710e661883ebf76e71d67710846e214508ac1",
    ("OppositeOrderedWeak", "negbin"): "d579c4fd3e2d1c8afe2ac1748141dd962151b8acd6c0eccb1f680ac52b769828",
    ("LogMajorizeBetaSt", "negbin"): "5518898aacae24e8ec9e94fdc767b379a493036a8e5bb1d08ab407deb93b1bce",
    ("StGeneral", "negbin"): "21629b3b6b60e5882627c7709185452254c050186612f4b617802adad43dbb03",
    ("StGeneral", "gamma"): "4ca968a46da9dc7a95987f717872292b18f0371af5b2aba0826a6d5dedea2a0e",
    ("AITail", "gamma"): "8dc95f07f8500f75a651a1b6954135a118bf8cb6206307b6c2f76462e723b2b8",
    ("CoupledGammaPair", "gamma"): "5ead8e30ebec21c294109a9eeedb4914e0959075386032edc8df2b15882d4572",
    ("MixtureLemmaSt", "negbin"): "84d2d0f80899fac3007fa7caebbcbf52e6d5d2180b385180b8a0a8729fafc487",
}
# the same over the off-matrix batch of the test below
DECIDE_OFF_MATRIX_DIGEST = "eb13449e724730caadef8da159e8218e5165cb81074cc5e5a0cb5f4b3bd6f116"


def _verdict_bytes(v):
    """A verdict's status, detail, violation and witness JSON."""
    return b"".join((
        v.status.value.encode(),
        json.dumps(v.detail, sort_keys=True).encode(),
        json.dumps(v.violation, sort_keys=True).encode(),
        b"null" if v.witness is None else chain_to_json(v.witness).encode(),
    ))


def _update_with_verdict(h, v):
    h.update(_verdict_bytes(v))


class TestDecideDigests:
    def test_matrix_decisions_match_the_pinned_digests(self):
        digests = {}
        routes = collections.Counter()
        for row in MATRIX:
            h = hashlib.sha256()
            for n, seed in itertools.product(range(2, 7), range(3)):
                s1, s2 = generate_instance(Scenario(row.name, row.family, n, seed))
                q1, q2 = _param_pairs(s1, s2, row.order)
                for a, b in ((q1, q2), (q2, q1)):
                    for mode in (WEAK, STRICT):
                        v = decide_wrc(a, b, mode, 200)
                        _update_with_verdict(h, v)
                        routes[mode.value, v.status.value, v.detail["route"]] += 1
            digests[row.name.value, row.family] = h.hexdigest()
        assert digests == DECIDE_DIGESTS
        assert routes["weak", "holds", "opposite"] == 155
        assert routes["strict", "holds", "opposite"] == 69

    def test_off_matrix_decisions_match_the_pinned_digest(self):
        """``_random_pairs(25)`` both ways, and each target against its own
        coordinates reversed (the ``equal`` route), in both modes."""
        h = hashlib.sha256()
        routes = collections.Counter()
        for a, b in _random_pairs(25):
            for p, q in ((a, b), (b, a), (b, PairClass(b.x[::-1], b.y[::-1]))):
                for mode in (WEAK, STRICT):
                    v = decide_wrc(p, q, mode, 200)
                    _update_with_verdict(h, v)
                    routes[v.detail["route"]] += 1
        assert h.hexdigest() == DECIDE_OFF_MATRIX_DIGEST
        assert routes["equal"] == 200 and routes["opposite"] == 6

    def test_decisions_do_not_depend_on_the_listing_order(self):
        """A common permutation of either queried pair's coordinate pairs
        leaves the status, detail, violation and witness JSON unchanged byte
        for byte, in both modes: over the matrix pairs at n = 2..6, seeds
        0..2, both directions, and over ``_random_pairs(25)``."""
        rng = random.Random(30)

        def permuted(p):
            perm = rng.sample(range(p.n), p.n)
            if perm == sorted(perm):
                perm.reverse()
            return PairClass(tuple(p.x[k] for k in perm), tuple(p.y[k] for k in perm))

        cases = list(_random_pairs(25))
        for row in MATRIX:
            for n, seed in itertools.product(range(2, 7), range(3)):
                s1, s2 = generate_instance(Scenario(row.name, row.family, n, seed))
                q1, q2 = _param_pairs(s1, s2, row.order)
                cases += [(q1, q2), (q2, q1)]
        assert len(cases) == 550
        for a, b in cases:
            for mode in (WEAK, STRICT):
                want = _verdict_bytes(decide_wrc(a, b, mode, 200))
                assert _verdict_bytes(decide_wrc(permuted(a), b, mode, 200)) == want
                assert _verdict_bytes(decide_wrc(a, permuted(b), mode, 200)) == want


# ---------------------------------------------------------------------------
# The decision path before each queried vector was sorted once: the oracle of
# the one that reads the sorts each PairClass keeps.  It sorts each vector
# again wherever a step needs it sorted, as that path did, and runs the same
# search.


def _reference_check_majorization(x, y, mode):
    """``check_majorization`` sorting each vector in the order its mode
    reads it: ``check_sorted_majorization`` reads a vector backwards unless
    the mode is ABOVE, so a decreasing sort goes in reversed."""
    if mode is MajorizationMode.ABOVE:
        return majorization.check_sorted_majorization(sorted(x), sorted(y), mode)
    xs, ys = sorted(x, reverse=True), sorted(y, reverse=True)
    return majorization.check_sorted_majorization(xs[::-1], ys[::-1], mode)


def _reference_check_necessary(p1, p2, mode):
    x_mode, y_mode = rc_order._necessary_modes(mode)
    ok, k = _reference_check_majorization(p1.x, p2.x, x_mode)
    if not ok:
        return False, {"vector": "x", "prefix": k, "mode": x_mode.value}
    ok, k = _reference_check_majorization(p1.y, p2.y, y_mode)
    if not ok:
        return False, {"vector": "y", "prefix": k, "mode": y_mode.value}
    return True, None


def _reference_canonical(p):
    return PairClass(*(tuple(zip(*sorted(zip(p.x, p.y)))) or ((), ())))


def _reference_scale(p):
    return max(map(abs, p.x + p.y), default=0.0)


def _reference_construct_opposite(p1, p2, mode):
    x2s, y2s = tuple(sorted(p2.x)), tuple(sorted(p2.y, reverse=True))
    tol = BASE_TOL * max(1.0, _reference_scale(p2))
    if not all(
        abs(a - u) <= tol and abs(b - v) <= tol
        for (a, b), (u, v) in zip(sorted(zip(x2s, y2s)), sorted(zip(p2.x, p2.y)))
    ):
        raise ChainConstructionError("target pair is not opposite ordered")
    rep1 = _reference_canonical(p1)
    x1, y1 = rep1.x, rep1.y
    n = len(x1)
    pairs, moves = [rep1], []

    def push(move, target):
        pairs.append(target)
        moves.append(move)

    x_cur = x1
    dx = sum(x2s) - sum(x1)
    if mode is WEAK and dx > 0:
        x_cur = rc_order._raise_to_majorized(x1, x2s)
        push(ElementaryMove(MoveKind.RAISE_X), PairClass(x_cur, y1))
    y_top = y2s
    dy = sum(y1) - sum(y2s)
    if mode is WEAK and dy > 0:
        y_top = (y2s[0] + dy,) + y2s[1:]
    y_cur = list(pairs[-1].y)
    for pos in range(n):
        top = pos
        for k in range(pos + 1, n):
            if y_cur[k] > y_cur[top]:
                top = k
        if top != pos:
            y_cur[pos], y_cur[top] = y_cur[top], y_cur[pos]
            push(ElementaryMove(MoveKind.MAJORIZE_Y, pos, top), PairClass(x_cur, tuple(y_cur)))
    try:
        y_chain = t_transform_chain(tuple(y_cur[::-1]), y_top[::-1])
        x_chain = t_transform_chain(x_cur, x2s)
    except (ValueError, RuntimeError) as exc:
        raise ChainConstructionError(f"transfer chain refused: {exc}") from exc
    for (i, j, _eps), nxt in zip(y_chain.steps, y_chain.vectors[1:]):
        push(ElementaryMove(MoveKind.MAJORIZE_Y, n - 1 - j, n - 1 - i), PairClass(x_cur, nxt[::-1]))
    for (i, j, _eps), nxt in zip(x_chain.steps, x_chain.vectors[1:]):
        push(ElementaryMove(MoveKind.MAJORIZE_X, i, j), PairClass(nxt, pairs[-1].y))
    if mode is WEAK and dy > 0:
        push(ElementaryMove(MoveKind.LOWER_Y), PairClass(x2s, y2s))
    chain = RcChain(tuple(pairs), tuple(moves), mode)
    if not verify_rc_chain(chain):
        raise ChainConstructionError("chain rejected under rounding")
    end = pairs[-1]
    if (end.x, end.y) != (x2s, y2s) and not check_pair_equal_a(end, p2):
        raise ChainConstructionError("chain ends off the target under rounding")
    return chain


def _reference_arrangement_leq(p1, p2):
    """``check_arrangement_leq`` on pairs of one length with matching
    multisets, its canonical forms and value ids each sorted afresh."""
    tol = component_tolerance(p1.x, p1.y, p2.x, p2.y)
    c1, c2 = _reference_canonical(p1), _reference_canonical(p2)
    blocks = tuple(map(_value_ids(c1.x, tol).__getitem__, c1.x))
    y_ids = _value_ids(c1.y + c2.y, tol)
    m = max(y_ids.values()) + 1
    y = list(map(y_ids.__getitem__, c1.y))
    target = list(map(y_ids.__getitem__, c2.y))
    found = _rank_count_violation(y, target, blocks, m)
    if found is not None:
        k, t = found
        t = min(v for v, i in y_ids.items() if i == t)
        violation = {"reason": "rank count fails", "k": k, "t": t}
        return OrderVerdict(Status.REFUTED, violation=violation)
    surplus = collections.defaultdict(int)
    for b, u, v in zip(blocks, y, target):
        surplus[b, u] += 1
        surplus[b, v] -= 1

    def added(i, j):
        bi, bj, yi, yj = blocks[i], blocks[j], y[i], y[j]
        gained = (surplus[bi, yj] >= 0) + (surplus[bj, yi] >= 0)
        return gained - (surplus[bi, yi] > 0) - (surplus[bj, yj] > 0)

    witness = []
    while any(s > 0 for s in surplus.values()):
        legal = [
            (i, j)
            for i, j in itertools.combinations(range(len(y)), 2)
            if y[i] > y[j] and blocks[i] != blocks[j]
        ]
        for _, i, j in sorted((added(i, j), i, j) for i, j in legal):
            y[i], y[j] = y[j], y[i]
            if _rank_count_violation(y, target, blocks, m) is None:
                break
            y[i], y[j] = y[j], y[i]
        else:
            raise AssertionError("no legal swap keeps the rank-count criterion")
        for b, gone, come in ((blocks[i], y[j], y[i]), (blocks[j], y[i], y[j])):
            surplus[b, gone] -= 1
            surplus[b, come] += 1
        witness.append(SwapMove(i, j))
    return OrderVerdict(Status.HOLDS, witness=witness)


def _reference_target(p2):
    goal_tol = BASE_TOL * max(1.0, _reference_scale(p2))
    return rc_order._Target(p2, tuple(sorted(set(p2.x))), tuple(sorted(set(p2.y))), 2 * goal_tol)


def _reference_is_goal(flat, p2):
    """The search's goal test as it was before it called
    ``check_pair_equal_a``: a candidate's canonical ``x + y`` against the
    target's canonical components, within the larger of the two pairs' own
    tolerances."""
    c2 = _reference_canonical(p2)
    goal_tol = BASE_TOL * max(1.0, _reference_scale(p2))
    tol = max(BASE_TOL * max(1.0, max(flat), -min(flat)), goal_tol)
    return all(abs(a - b) <= tol for a, b in zip(flat, c2.x + c2.y))


def _reference_decide_wrc(p1, p2, mode, budget):
    ok, viol = _reference_check_necessary(p1, p2, mode)
    if not ok:
        return OrderVerdict(Status.REFUTED, violation=viol, detail={"route": "necessary"})
    tol = component_tolerance(p1.x, p1.y, p2.x, p2.y)
    if check_pair_equal_a(p1, p2):
        return OrderVerdict(
            Status.HOLDS,
            witness=RcChain((_reference_canonical(p1),), (), mode),
            detail={"route": "equal"},
        )
    try:
        chain = _reference_construct_opposite(p1, p2, mode)
    except ChainConstructionError:
        pass
    else:
        return OrderVerdict(Status.HOLDS, witness=chain, detail={"route": "opposite"})

    def multisets_match(a, b):
        return all(abs(u - v) <= tol for u, v in zip(sorted(a), sorted(b)))

    if multisets_match(p1.x, p2.x) and multisets_match(p1.y, p2.y):
        arranged = _reference_arrangement_leq(p2, p1)
        if arranged.holds:
            c2 = _reference_canonical(p2)
            y, pairs = list(c2.y), [c2]
            for mv in arranged.witness:
                y[mv.i], y[mv.j] = y[mv.j], y[mv.i]
                pairs.append(PairClass(c2.x, tuple(y)))
            moves = [
                ElementaryMove(MoveKind.MAJORIZE_Y, mv.i, mv.j) for mv in reversed(arranged.witness)
            ]
            chain = RcChain(tuple(reversed(pairs)), tuple(moves), mode)
            if verify_rc_chain(chain):
                return OrderVerdict(Status.HOLDS, witness=chain, detail={"route": "arrangement"})
        elif sorted(p1.x) == sorted(p2.x) and sorted(p1.y) == sorted(p2.y):
            detail = {"route": "arrangement"}
            return OrderVerdict(Status.REFUTED, violation=arranged.violation, detail=detail)
    return _search(p1, p2, mode, budget)


# values near the top of the floats, whose sums pass the largest float
_TOP = (1e308, -1e308, 1.5e308, 8.98846567431158e307, -1.7e308)


@st.composite
def _decision_cases(draw):
    """A mode and two pairs of one length n = 1..6, asked either way round.
    Components come from a pool with exact ties and both signs of zero,
    scaled by 1 or 1e307, with now and then a value near +-1e308.  The
    second pair is a fresh draw; the first with its y paired otherwise
    (equal multisets); the first under a common permutation, or with
    components nudged by 0.5 to 2 times the tolerance (near-ties); or an
    opposite-ordered pair from which the first is made by averaging pairs of
    components (then, in weak mode, lowering x and raising y), so that the
    necessary check mostly passes."""
    n = draw(st.integers(1, 6))
    mode = draw(st.sampled_from((WEAK, STRICT)))
    scale = draw(st.sampled_from((1.0, 1.0, 1.0, 1e307)))
    comp = st.one_of(
        st.sampled_from((0.0, -0.0, 0.5, 1.0, 2.0, 3.0, -1.0)),
        st.floats(-3.0, 3.0, allow_nan=False),
    ).map(lambda v: v * scale)
    if scale > 1:
        comp = st.one_of(comp, st.sampled_from(_TOP))

    def vector():
        return [draw(comp) for _ in range(n)]

    def permuted(x, y):
        perm = draw(st.permutations(range(n)))
        return PairClass(tuple(x[k] for k in perm), tuple(y[k] for k in perm))

    x1, y1 = vector(), vector()
    how = draw(st.sampled_from(("fresh", "pairing", "permuted", "near", "opposite", "opposite")))
    event(f"input: {how}")
    if how == "fresh":
        x2, y2 = vector(), vector()
    elif how == "pairing":
        x2, y2 = list(x1), [y1[k] for k in draw(st.permutations(range(n)))]
    elif how in ("permuted", "near"):
        x2, y2 = list(x1), list(y1)
        if how == "near":
            big = max(1.0, *map(abs, x1 + y1))
            for _ in range(draw(st.integers(1, 3))):
                vec = draw(st.sampled_from((x2, y2)))
                k = draw(st.integers(0, n - 1))
                vec[k] += draw(st.sampled_from((0.5, 1.0, 2.0, -0.5, -1.0, -2.0))) * BASE_TOL * big
    else:
        x2, y2 = sorted(vector()), sorted(vector(), reverse=True)
        x1, y1 = list(x2), list(y2)
        positions = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        for which in draw(st.lists(st.sampled_from((0, 1)), max_size=4 if n > 1 else 0)):
            v = (x1, y1)[which]
            i, j = draw(positions)
            lam = draw(st.sampled_from((0.25, 0.5, 0.75)))
            v[i], v[j] = lam * v[i] + (1 - lam) * v[j], (1 - lam) * v[i] + lam * v[j]
        if mode is WEAK:
            x1 = [v - draw(st.sampled_from((0.0, 0.0, 0.5))) * scale for v in x1]
            y1 = [v + draw(st.sampled_from((0.0, 0.0, 0.5))) * scale for v in y1]
    p1, p2 = permuted(x1, y1), permuted(x2, y2)
    for p in (p1, p2):
        assume(all(map(math.isfinite, p.x + p.y)))
    if draw(st.booleans()):
        p1, p2 = p2, p1
    return mode, p1, p2


class TestViewReference:
    """The decision that reads the sorts each queried pair keeps against
    the path that sorted each vector wherever a step needed it."""

    @given(_decision_cases())
    @example((WEAK, PairClass((0.0, -0.0), (1.0, 1.0)), PairClass((-0.0, 0.0), (1.0, 1.0))))
    @example((STRICT, PairClass((1.0, 2.0), (0.0, -0.0)), PairClass((2.0, 1.0), (-0.0, 0.0))))
    @example((
        WEAK, PairClass((1.0, 2.0, 3.0), (-0.0, 5.0, 0.0)), PairClass((1.0, 2.0, 3.0), (5.0, 0.0, -0.0))
    ))
    @settings(max_examples=500, deadline=None)
    def test_decisions_match_the_reference_byte_for_byte(self, case):
        """Status, violation, detail and witness JSON, in both modes."""
        mode, p1, p2 = case
        want = _verdict_bytes(_reference_decide_wrc(p1, p2, mode, 30))
        got = decide_wrc(p1, p2, mode, 30)
        event(f"route: {got.detail['route']}")
        assert _verdict_bytes(got) == want

    @given(_decision_cases())
    @settings(max_examples=300, deadline=None)
    def test_search_target_matches_the_reference(self, case):
        """The search's target record from the pair's sorts: every field
        holds the reference's floats, signs of zero included."""
        _, _, p2 = case
        got, want = rc_order._target(p2), _reference_target(p2)
        for field in got._fields:
            assert repr(getattr(got, field)) == repr(getattr(want, field)), field

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_goal_test_matches_the_reference(self, data):
        """The search's goal test, ``check_pair_equal_a`` on the candidate
        pair, decides as the reference did on the candidate's canonical
        ``x + y``: its tolerance over both pairs' scales is the larger of
        their own tolerances, and its first comparison of the sorted
        vectors refutes no pair whose canonical forms agree.  Targets are
        the candidate's coordinate pairs permuted and nudged by a few times
        the tolerance; or the candidate with its largest magnitude raised
        by half the tolerance and one component moved by the target's own
        tolerance, past the candidate's; or the candidate with its y
        permuted; or any pair."""
        n = data.draw(st.integers(1, 4))
        finite = _EDGE_FLOATS.filter(math.isfinite)
        x, y = (data.draw(st.lists(finite, min_size=n, max_size=n)) for _ in "xy")
        candidate = PairClass(tuple(x), tuple(y))
        step = BASE_TOL * max(1.0, candidate.scale)
        shape = data.draw(st.sampled_from(("nudged", "edge", "paired", "any")))
        if shape == "nudged":
            coords = data.draw(st.permutations(list(zip(x, y))))
            x2, y2 = (list(v) for v in zip(*coords))
            for _ in range(data.draw(st.integers(0, 3))):
                v = data.draw(st.sampled_from((x2, y2)))
                k = data.draw(st.integers(0, n - 1))
                v[k] += data.draw(st.sampled_from((0.5, 1.0, 1.5, 2.0, -0.5, -1.0, -2.0))) * step
        elif shape == "edge":
            flat = x + y
            big = max(range(2 * n), key=lambda k: abs(flat[k]))
            flat[big] += math.copysign(0.5 * step, flat[big])
            k = data.draw(st.integers(0, 2 * n - 1))
            flat[k] += data.draw(st.sampled_from((1.0, -1.0))) * BASE_TOL * max(1.0, *map(abs, flat))
            x2, y2 = flat[:n], flat[n:]
        elif shape == "paired":
            x2, y2 = x, data.draw(st.permutations(y))
        else:
            x2, y2 = (data.draw(st.lists(finite, min_size=n, max_size=n)) for _ in "xy")
        assume(all(map(math.isfinite, x2 + y2)))
        target = PairClass(tuple(x2), tuple(y2))
        c = _reference_canonical(candidate)
        want = _reference_is_goal(c.x + c.y, target)
        event(f"{shape}: {want}")
        assert check_pair_equal_a(candidate, target) == want


# 0, its signed twin, subnormals, magnitudes near the largest float, and
# infinities, beside any other float but a NaN
_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1.79e308,
     -1.79e308, sys.float_info.max, -sys.float_info.max, math.inf, -math.inf]
) | st.floats(allow_nan=False)


@st.composite
def _edge_pairs(draw):
    """A pair of up to four components per vector, built directly, so that
    its components may be infinite."""
    n = draw(st.integers(0, 4))
    x, y = (tuple(draw(st.lists(_EDGE_FLOATS, min_size=n, max_size=n))) for _ in "xy")
    return PairClass(x, y)


class TestKeptSorts:
    """Each pair sorts its vectors once and keeps the sorts for every later
    call that reads them."""

    @given(_decision_cases())
    @settings(max_examples=150, deadline=None)
    def test_reused_pairs_answer_as_fresh_copies(self, case):
        """The same two pair objects, decided forward, reversed and forward
        again in both modes, and handed to ``check_arrangement_leq`` and
        ``construct_chain_opposite`` each time, answer as fresh copies do:
        status, detail, violation and witness, the chains as JSON.
        Afterwards each pair's kept sorts equal fresh sorts, signs of zero
        included."""
        _, p1, p2 = case

        def answers(a, b):
            out = []
            for mode in (WEAK, STRICT):
                out.append(_verdict_bytes(decide_wrc(a, b, mode, 30)))
                try:
                    out.append(chain_to_json(construct_chain_opposite(a, b, mode)))
                except ChainConstructionError as exc:
                    out.append(repr(exc))
            try:
                v = check_arrangement_leq(a, b)
            except ValueError as exc:
                out.append(repr(exc))
            else:
                out.append((v.status, v.detail, repr(v.violation), v.witness))
            return out

        for a, b in ((p1, p2), (p2, p1), (p1, p2)):
            assert answers(a, b) == answers(PairClass(a.x, a.y), PairClass(b.x, b.y))
        for p in (p1, p2):
            assert repr(p.xs) == repr(tuple(sorted(p.x)))
            assert repr(p.ys) == repr(tuple(sorted(p.y)))
            assert repr(p.pairs) == repr(tuple(sorted(zip(p.x, p.y))))
            assert p.scale == max(map(abs, p.x + p.y))

    @given(_edge_pairs(), _edge_pairs())
    @settings(max_examples=300, deadline=None)
    @example(PairClass((2.0, 1.0), (3.0, -0.0)), PairClass((), ()))
    def test_copies_are_equal_pairs_with_equal_sorts(self, p, other):
        """A pair's kept sorts equal fresh ones, signs of zero included, in
        the pair itself and in what ``copy``, ``deepcopy``, ``pickle`` and
        ``dataclasses.replace`` give: the frozen slots are filled past the
        class's ``__setattr__``, on construction and on unpickling.  Its
        scale is its largest magnitude, infinities included, and ``n`` its
        length.  The pair tolerance read off two scales is
        ``component_tolerance`` of the four vectors, which the checks that
        read it instead rest on.  The pairs are built directly, so
        components may be infinite; none is a NaN, which no path of the
        program puts in a pair."""
        copies = (
            p,
            copy.copy(p),
            copy.deepcopy(p),
            pickle.loads(pickle.dumps(p)),
            dataclasses.replace(p),
        )
        for q in copies:
            assert q == p and hash(q) == hash(p)
        for q in (*copies, dataclasses.replace(p, x=p.y, y=p.x)):
            assert repr((q.xs, q.ys)) == repr((tuple(sorted(q.x)), tuple(sorted(q.y))))
            assert q.scale == max(map(abs, q.x + q.y), default=0.0)
            assert q.n == len(q.x)
        for a, b in ((p, other), (other, p), (p, p)):
            assert _tolerance(a, b) == component_tolerance(a.x, a.y, b.x, b.y)


class TestSearch:
    def test_matches_the_reference_bit_for_bit(self):
        """The search's outputs on the scenario matrix, byte for byte, against
        digests of the plain loop that ran every check on every candidate
        (three rows re-pinned when the x lift began to keep majorization,
        which changed the raise-to-total candidate, and eight when the goal
        values began to be offered sorted); budget 200 lets the
        reversed ConvAI/AITail pairs run out of it quickly."""
        searched = {Status.HOLDS: 0, Status.UNKNOWN: 0}
        digests = {}
        for row in MATRIX:
            h = hashlib.sha256()
            for n, seed in itertools.product(range(2, 7), range(3)):
                s1, s2 = generate_instance(Scenario(row.name, row.family, n, seed))
                q1, q2 = _param_pairs(s1, s2, row.order)
                for a, b in ((q1, q2), (q2, q1)):
                    if not check_necessary(a, b, WEAK)[0]:
                        continue
                    v = _search(a, b, WEAK, 200)
                    h.update(v.status.value.encode())
                    h.update(json.dumps(v.detail, sort_keys=True).encode())
                    h.update(b"null" if v.witness is None else chain_to_json(v.witness).encode())
                    searched[v.status] += 1
            digests[row.name.value, row.family] = h.hexdigest()
        assert digests == SEARCH_DIGESTS
        assert searched == {Status.HOLDS: 225, Status.UNKNOWN: 30}

    def test_off_matrix_pairs_match_the_pinned_digest(self):
        """The search's outputs on random pairs outside the matrix, byte for
        byte, against a digest pinned before the candidates became tuples
        and re-pinned when the x lift began to keep majorization and when
        the goal values began to be offered sorted."""
        h = hashlib.sha256()
        searched = {Status.HOLDS: 0, Status.UNKNOWN: 0}
        for a, b in _random_pairs(25):
            if not check_necessary(a, b, WEAK)[0]:
                continue
            v = _search(a, b, WEAK, 200)
            h.update(v.status.value.encode())
            h.update(json.dumps(v.detail, sort_keys=True).encode())
            h.update(b"null" if v.witness is None else chain_to_json(v.witness).encode())
            searched[v.status] += 1
        assert h.hexdigest() == OFF_MATRIX_DIGEST
        assert searched == {Status.HOLDS: 17, Status.UNKNOWN: 14}

    def test_every_holds_carries_a_verified_chain_between_the_queried_pairs(self):
        """``verify_theorem_instance`` does not replay ``decide_wrc``'s
        witness: each ``holds`` route checks its own chain.  On every
        matrix pair at n = 2..6, seeds 0..2, both directions, the off-matrix
        batch and each of its targets against itself, every ``holds``
        chain passes ``verify_rc_chain`` in weak mode and starts and ends
        on the queried pairs (budget 200, as above; the counts are the same
        at the default budget)."""

        def queries():
            for row in MATRIX:
                for n, seed in itertools.product(range(2, 7), range(3)):
                    s1, s2 = generate_instance(Scenario(row.name, row.family, n, seed))
                    q1, q2 = _param_pairs(s1, s2, row.order)
                    yield "matrix", q1, q2
                    yield "matrix", q2, q1
            for a, b in _random_pairs(25):
                yield "off-matrix", a, b
                yield "off-matrix", b, b

        routes = collections.Counter()
        for batch, a, b in queries():
            v = decide_wrc(a, b, WEAK, 200)
            if v.holds:
                chain = v.witness
                assert chain.mode is WEAK and verify_rc_chain(chain)
                assert check_pair_equal_a(chain.pairs[0], a)
                assert check_pair_equal_a(chain.pairs[-1], b)
                routes[batch, v.detail["route"]] += 1
        assert routes == {
            ("matrix", "arrangement"): 24,
            ("matrix", "opposite"): 155,
            ("matrix", "search"): 46,
            ("off-matrix", "equal"): 100,
            ("off-matrix", "opposite"): 6,
            ("off-matrix", "search"): 11,
        }

    def test_goal_pass_gates_bound_the_goal_tests(self, monkeypatch):
        """The reversed ConvAI and AITail pairs, which ``decide_wrc`` refutes
        by the arrangement criterion before any search, run the search out
        of its budget.  The far-coordinate gate and the ``near`` pre-test
        together keep the goal pass from testing any candidate: without the
        gate it makes 27,798 goal tests (984 when the gate only counted the
        near coordinate pairs), without the pre-test 88, all of coupled
        candidates."""
        calls = 0
        real = rc_order.check_pair_equal_a

        def spy(p1, p2):
            nonlocal calls
            calls += 1
            return real(p1, p2)

        monkeypatch.setattr(rc_order, "check_pair_equal_a", spy)
        statuses = collections.Counter()
        for row in MATRIX:
            if (row.name.value, row.family) not in (("ConvAI", "negbin"), ("AITail", "gamma")):
                continue
            for n, seed in itertools.product(range(2, 7), range(3)):
                s1, s2 = generate_instance(Scenario(row.name, row.family, n, seed))
                q1, q2 = _param_pairs(s1, s2, row.order)
                statuses[_search(q2, q1, WEAK, 200).status] += 1
        assert statuses == {Status.UNKNOWN: 30}
        assert calls == 0

    def test_goal_is_verified_without_the_candidates_before_it(self, monkeypatch):
        """Ten of the start's candidates pass the necessary check and the
        dedupe before the goal in yield order; the goal is the only one
        ``verify_rc_move`` sees, once, as ``verify_rc_chain`` replays the
        one-move chain."""
        calls = []
        real = rc_order.verify_rc_move

        def spy(a, b, m, mode):
            calls.append(m)
            return real(a, b, m, mode)

        monkeypatch.setattr(rc_order, "verify_rc_move", spy)
        p1 = pair((1.0, 2.0, 3.0, 4.0, 6.0, 5.0), (3.0, 1.0, 4.0, 1.0, 5.0, 9.0))
        p2 = pair(p1.x, (3.0, 1.0, 4.0, 1.0, 4.0, 10.0))
        v = _search(p1, p2, WEAK, 200)
        move = ElementaryMove(MoveKind.MAJORIZE_Y, 4, 5)
        assert v.holds and v.detail["expanded"] == 1 and v.witness.moves == (move,)
        assert calls == [move]

    def test_goal_pass_stops_at_the_first_coupled_goal(self, monkeypatch):
        """The start's x transfer at positions 0 and 1 is the goal.  Those
        are the two far coordinates, so the goal pass generates candidates
        at that position pair only, and there up to the goal and no more,
        which an eager pass would not; the witness is the one pinned when
        the pass listed every candidate.  With three far coordinates it
        generates no coupled candidate at all."""
        generated = []
        real = rc_order._coupled_at

        def counting(p, target, positions, *vectors):
            positions = list(positions)
            generated.append([p, target, positions, vectors, 0])
            for candidate in real(p, target, positions, *vectors):
                generated[-1][4] += 1
                yield candidate

        monkeypatch.setattr(rc_order, "_coupled_at", counting)
        p1 = pair((1.0, 2.0, 3.0, 4.0), (3.0, 1.0, 2.0, 4.0))
        p2 = pair((0.5, 2.5, 3.0, 4.0), p1.y)
        v = decide_wrc(p1, p2, WEAK)
        assert v.detail == {"route": "search", "expanded": 1, "budget": 4000}
        assert v.witness.moves == (ElementaryMove(MoveKind.MAJORIZE_X, 0, 1),)
        [(start, target, positions, vectors, count)] = generated
        assert positions == [(0, 1)]
        # only x can reach the goal (the start's x is not the target's), so
        # only x moves are generated
        assert vectors == (True, False)
        gated = list(real(start, target, positions, *vectors))
        goal_at = next(k for k, c in enumerate(gated, 1) if c[2] == p2.x)
        assert count == goal_at < len(gated)
        assert hashlib.sha256(chain_to_json(v.witness).encode()).hexdigest() == (
            "af763ae6d1719728e87f3fa5edccf2d0d1b3167913fce891902eda36fa06486b"
        )
        # all three coordinates far, and a componentwise goal: the pass
        # generates no coupled candidate and returns the single raise of x
        generated.clear()
        p1 = pair((1.0, 2.0, 3.0), (2.0, 3.0, 1.0))
        p2 = pair((1.5, 2.5, 3.5), p1.y)
        assert len(rc_order._far(p1, _target(p2))) == 3
        v = decide_wrc(p1, p2, WEAK)
        assert v.detail == {"route": "search", "expanded": 1, "budget": 4000}
        assert v.witness.moves == (ElementaryMove(MoveKind.RAISE_X, None, None),)
        assert generated == []
        assert hashlib.sha256(chain_to_json(v.witness).encode()).hexdigest() == (
            "57e3d9ebaef146dbd649e5aa3b3a3ef52cc2cf34218f9f6304be44cbc9ca86be"
        )

    def test_witness_does_not_depend_on_the_targets_set_order(self):
        """The two targets are one pair up to common permutation (their x
        ties where y differs), and either y transfer onto it is a goal.  On
        CPython 3.11, 1.0 and 9.0 share a slot of a small set, so the set of
        each target's y values iterates them in the target's order; the
        search offers the goal values sorted, so both give the same witness
        bytes (with the values in set order they ended on (1, 9) and (9, 1)).
        Where the two sets iterate alike, the bytes agree all the more."""
        p1 = pair((5.0, 5.0, 1.0), (4.0, 6.0, 2.0))
        texts = []
        for order in ((1.0, 9.0), (9.0, 1.0)):
            target = pair((5.0, 5.0, 1.0), (*order, 2.0))
            assert _target(target).values_y == (1.0, 2.0, 9.0)
            v = decide_wrc(p1, target, WEAK)
            assert v.detail == {"route": "search", "expanded": 1, "budget": 4000}
            texts.append(chain_to_json(v.witness))
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["chain"][-1]["pair"]["y"] == [2.0, 1.0, 9.0]

    def test_smallest_budgets_build_no_tree(self, monkeypatch):
        """A budget of 0 expands nothing; a budget of 1 runs the start's goal
        pass and nothing more.  On the pair one x transfer from its target
        that pass decides, with the parent search's detail and witness
        bytes; on a pair it cannot decide, the verdict is the budget's.
        Neither builds the memo of rounded values behind ``seen``, which a
        budget of 2 does once."""
        built = 0

        class Counted(rc_order._Rounded):
            def __init__(self):
                nonlocal built
                built += 1

        monkeypatch.setattr(rc_order, "_Rounded", Counted)
        p1 = pair((1.0, 2.0, 3.0, 4.0), (3.0, 1.0, 2.0, 4.0))
        p2 = pair((0.5, 2.5, 3.0, 4.0), p1.y)
        v = _search(p1, p2, WEAK, 0)
        assert v.status is Status.UNKNOWN and v.witness is None
        assert v.detail == {
            "route": "search", "expanded": 0, "budget": 0, "reason": "search budget exhausted"
        }
        v = _search(p1, p2, WEAK, 1)
        assert v.holds and v.detail == {"route": "search", "expanded": 1, "budget": 1}
        assert hashlib.sha256(chain_to_json(v.witness).encode()).hexdigest() == (
            "af763ae6d1719728e87f3fa5edccf2d0d1b3167913fce891902eda36fa06486b"
        )
        # the rounding merges the raise of x onto the target's (see ROADMAP):
        # six expansions find no chain
        a = pair((1.0, 2.0, 0.5), (3.0, 4.0, 1.0))
        b = pair((1.0, 2.0, 0.5 + 3e-10), (3.0, 4.0, 1.0 - 2e-10))
        v = _search(a, b, WEAK, 1)
        assert v.status is Status.UNKNOWN
        assert v.detail == {
            "route": "search", "expanded": 1, "budget": 1, "reason": "search budget exhausted"
        }
        assert built == 0
        assert _search(a, b, WEAK, 2).detail["expanded"] == 2
        assert built == 1
        assert _search(a, b, WEAK, 200).detail == {
            "route": "search", "expanded": 6, "budget": 200, "reason": "search space exhausted"
        }

    def test_tree_pass_gets_every_candidate_where_one_vector_is_open(self, monkeypatch):
        """Where only one vector of a node can reach the goal, the goal pass
        generates that vector's moves alone; when it finds no goal, the tree
        pass still receives every candidate, in the order of the whole list,
        both vectors' coupled moves at every position pair and then the
        componentwise ones.  Checked on each such node of the deep searches
        of the off-matrix batch and the reversed ConvAI/AITail pairs, whose
        nodes all have a far coordinate, and of starts with none, where the
        goal pass lists every coupled candidate of its vector."""
        real = rc_order._goal_pass
        met = collections.Counter()

        def spy(cur, pairs, moves, target, mode):
            chain, candidates = real(cur, pairs, moves, target, mode)
            goal, near = target.pair, target.near
            x_open = majorization.within(cur.ys, goal.ys, near)
            y_open = majorization.within(cur.xs, goal.xs, near)
            if chain is not None or x_open == y_open:
                return chain, candidates
            got = list(candidates)
            want = itertools.chain(
                rc_order._coupled_at(cur, target, itertools.combinations(range(cur.n), 2)),
                rc_order._componentwise_successors(cur, target, mode),
            )
            assert repr(got) == repr(list(want))
            met["x open" if x_open else "y open"] += 1
            met["no far coordinate"] += not rc_order._far(cur, target)
            return chain, iter(got)

        monkeypatch.setattr(rc_order, "_goal_pass", spy)
        # every coordinate pair of the start is one of the target's
        queries = [
            (pair((1, 1, 3, 3), (1, 1, 2, 2)), pair((2, 3, 3, 1), (2, 2, 1, 1))),
            (pair((2, 2, 2, 2), (2, 2, 3, 3)), pair((1, 2, 2, 3), (2, 3, 2, 3))),
            (pair((1, 1, 2, 2), (2, 2, 2, 2)), pair((1, 1, 2, 2), (1, 2, 3, 2))),
        ]
        queries += _random_pairs(25)
        for row in MATRIX:
            if (row.name.value, row.family) in (("ConvAI", "negbin"), ("AITail", "gamma")):
                for n, seed in itertools.product(range(2, 7), range(3)):
                    s1, s2 = generate_instance(Scenario(row.name, row.family, n, seed))
                    q1, q2 = _param_pairs(s1, s2, row.order)
                    queries.append((q2, q1))
        for a, b in queries:
            for mode in (WEAK, STRICT):
                if check_necessary(a, b, mode)[0]:
                    _search(a, b, mode, 200)
        assert met["x open"] and met["y open"] and met["no far coordinate"]

    def test_one_move_pairs_match_the_pinned_digest(self):
        """The first goal in yield order, byte for byte: the search's outputs
        on pairs one move apart.  Offering the goal values sorted changed 10
        of the 200 witnesses and no status or expansion count."""
        h = hashlib.sha256()
        expanded = []
        for a, b, mode in _one_move_pairs(40):
            v = _search(a, b, mode, 200)
            h.update(v.status.value.encode())
            h.update(json.dumps(v.detail, sort_keys=True).encode())
            h.update(b"null" if v.witness is None else chain_to_json(v.witness).encode())
            expanded.append(v.detail["expanded"] if v.holds else None)
        assert h.hexdigest() == ONE_MOVE_DIGEST
        assert expanded == [1] * 200


def _random_pairs(per_n):
    """Pairs at n = 2..5: a target with x in [0.3, 2.5] and y in [0.3, 3],
    and a start with x lowered and y raised by up to 0.6 (or moved the other
    way by up to 0.3) under a common permutation, all to two decimals."""
    rng = random.Random(20261018)
    for n in range(2, 6):
        for _ in range(per_n):
            x2 = [round(rng.uniform(0.3, 2.5), 2) for _ in range(n)]
            y2 = [round(rng.uniform(0.3, 3.0), 2) for _ in range(n)]
            x1 = [max(0.01, round(a - rng.uniform(-0.3, 0.6), 2)) for a in x2]
            y1 = [round(b + rng.uniform(-0.3, 0.6), 2) for b in y2]
            perm = rng.sample(range(n), n)
            yield pair([x1[k] for k in perm], [y1[k] for k in perm]), pair(x2, y2)


# sha256 of the search's status, detail and witness JSON at budget 200 over
# the ``_random_pairs(25)`` that pass the necessary conditions
OFF_MATRIX_DIGEST = "7447de35fa547cc4c53c490d982322b7c791c88390de657e6849367738c2f300"


def _one_move_pairs(per_n):
    """Pairs at n = 2..6 whose target is one move from the start: one of the
    search's candidates (``_candidates``) toward a random pair that
    ``verify_rc_move`` accepts, in a random mode, drawn from the sorted pairs
    those moves reach, so the order in which the search meets them does not
    change the batch.  Components come from a pool of four integers in 0..4 and
    two values with two decimals, so ties are common.  Pairs the search never
    sees (equal up to common permutation, or failing the necessary
    conditions) are skipped."""
    rng = random.Random(20261019)
    for n in range(2, 7):
        made = 0
        while made < per_n:
            pool = [float(rng.randint(0, 4)) for _ in range(4)]
            pool += [round(rng.uniform(0.1, 4.0), 2) for _ in range(2)]

            def draw():
                return tuple(rng.choice(pool) for _ in range(n))

            mode = rng.choice((STRICT, WEAK))
            p, toward = pair(draw(), draw()), pair(draw(), draw())
            legal = sorted(
                (b.x, b.y) for b, m in _candidates(p, toward, mode) if verify_rc_move(p, b, m, mode)
            )
            if not legal:
                continue
            b = PairClass(*rng.choice(legal))
            if check_pair_equal_a(p, b) or not check_necessary(p, b, mode)[0]:
                continue
            made += 1
            yield p, b, mode


# sha256 of the search's status, detail and witness JSON at budget 200 over
# ``_one_move_pairs(40)``: 200 pairs, each a ``holds`` found in the first
# expansion
ONE_MOVE_DIGEST = "8428f5ff1210a7d57c49e33adbc3b532782ed2c87c20daa4126340c4d0317fda"


def _unpruned_coupled(p, target):
    """Every swap and aligned transfer the search considers from ``p``, legal
    or not, in the search's order (the reference for ``_coupled_at``)."""
    tol = component_tolerance(p.x, p.y, target.x, target.y)

    def moved(vec, new):
        return PairClass(tuple(new), p.y) if vec == "x" else PairClass(p.x, tuple(new))

    for i in range(p.n):
        for j in range(i + 1, p.n):
            for kind, vec in ((MoveKind.MAJORIZE_X, "x"), (MoveKind.MAJORIZE_Y, "y")):
                src = list(getattr(p, vec))
                if abs(src[i] - src[j]) > tol:
                    src[i], src[j] = src[j], src[i]
                    yield moved(vec, src), ElementaryMove(kind, i, j)
            for kind, vec in ((MoveKind.MAJORIZE_X, "x"), (MoveKind.MAJORIZE_Y, "y")):
                src = getattr(p, vec)
                for ci, cj in rc_order._two_coord_targets(
                    src[i], src[j], tuple(sorted(set(getattr(target, vec)))), tol
                ):
                    new = list(src)
                    new[i], new[j] = ci, cj
                    yield moved(vec, new), ElementaryMove(kind, i, j)


def _candidates(p, target, mode):
    """The search's candidates from ``p`` toward the pair ``target``, those
    of ``_coupled_at`` at every position pair, then those of
    ``_componentwise_successors``, each as the pair and the move it
    proposes; checks what its tuple says of it."""
    t = _target(target)
    for moves_x, swap, new, kind, i, j in itertools.chain(
        rc_order._coupled_at(p, t, itertools.combinations(range(p.n), 2)),
        rc_order._componentwise_successors(p, t, mode),
    ):
        assert moves_x is (kind in rc_order._MOVES_X)
        src = p.x if moves_x else p.y
        assert not swap or (i is not None and sorted(new) == sorted(src))
        yield (PairClass(new, p.y) if moves_x else PairClass(p.x, new)), ElementaryMove(kind, i, j)


# small integers make ties and zero products; floats make generic positions
_component = st.one_of(st.integers(0, 4).map(float), st.floats(0.1, 5.0))


class TestSuccessors:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_pruning_keeps_every_legal_candidate_in_order(self, data):
        n = data.draw(st.integers(2, 6))
        mode = data.draw(st.sampled_from((STRICT, WEAK)))
        vec = st.tuples(*[_component] * n)
        p = pair(data.draw(vec), data.draw(vec))
        target = pair(data.draw(vec), data.draw(vec))

        def legal(cands):
            return [(b, m) for b, m in cands if verify_rc_move(p, b, m, mode)]

        got = list(_candidates(p, target, mode))
        coupled = [c for c in got if c[1].i is not None]
        weak = [c for c in got if c[1].i is None]
        assert legal(got) == legal(_unpruned_coupled(p, target)) + legal(weak)
        assert set(coupled) <= set(_unpruned_coupled(p, target))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_goal_pass_returns_the_first_goal_in_yield_order(self, data):
        """The goal pass's gates and pre-test skip no goal: its chain ends on
        the first candidate that ``check_pair_equal_a``, the necessary check
        and ``verify_rc_move`` accept, scanning every candidate, on targets
        one move from the node with one component nudged across the goal
        tolerance's edge."""
        n = data.draw(st.integers(2, 6))
        mode = data.draw(st.sampled_from((STRICT, WEAK)))
        vec = st.tuples(*[_component] * n)
        p = pair(data.draw(vec), data.draw(vec))
        legal = [
            b for b, m in _candidates(p, pair(data.draw(vec), data.draw(vec)), mode)
            if verify_rc_move(p, b, m, mode)
        ]
        if not legal:
            return
        b = data.draw(st.sampled_from(legal))
        # one component moved by up to three times the goal tolerance
        flat = list(b.x + b.y)
        k = data.draw(st.integers(0, 2 * n - 1))
        nudge = data.draw(st.sampled_from((0.0, 5e-13, -5e-13, 9e-13, -1.5e-12, 3e-12)))
        flat[k] += nudge * max(1.0, *map(abs, flat))
        target = pair(flat[:n], flat[n:])
        if not check_necessary(p, target, mode)[0]:
            return  # the search's precondition, which every node meets
        t = _target(target)
        x_mode, y_mode = rc_order._necessary_modes(mode)
        want = None
        for nxt, move in _candidates(p, target, mode):
            if (
                check_pair_equal_a(nxt, target)
                and check_majorization(nxt.x, target.x, x_mode)[0]
                and check_majorization(nxt.y, target.y, y_mode)[0]
                and verify_rc_move(p, nxt, move, mode)
            ):
                want = (nxt, move)
                break
        chain, _ = rc_order._goal_pass(p, [p], [], t, mode)
        got = chain and (chain.pairs[-1], chain.moves[-1])
        assert got == want

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_gated_goal_pass_matches_the_scan_of_every_candidate(self, data):
        """The far-coordinate gate skips no goal: the goal pass returns the
        chain of the first of the search's candidates, in yield order, that
        ``_reference_is_goal``, the necessary check and ``verify_rc_chain``
        accept, or none if no candidate passes, on targets one or two legal
        moves from the node (with 0, 1, 2 or more far coordinates)."""
        n = data.draw(st.integers(2, 6))
        mode = data.draw(st.sampled_from((STRICT, WEAK)))
        vec = st.tuples(*[_component] * n)
        # coordinate pairs drawn from a few, so that a moved pair often has a
        # copy that stays put, which makes it near the target's
        pool = data.draw(st.lists(st.tuples(_component, _component), min_size=1, max_size=n))
        coords = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        p = pair([u for u, _ in coords], [v for _, v in coords])

        def step(a):  # a legal move from ``a`` toward a random pair, or None
            toward = pair(data.draw(vec), data.draw(vec))
            legal = [b for b, m in _candidates(a, toward, mode) if verify_rc_move(a, b, m, mode)]
            return data.draw(st.sampled_from(legal)) if legal else None

        target = step(p)
        if target is not None and data.draw(st.booleans()):
            target = step(target) or target
        if target is None or check_pair_equal_a(p, target) or not check_necessary(p, target, mode)[0]:
            return  # pairs the search never sees
        t = _target(target)
        event(f"far coordinates: {min(len(rc_order._far(p, t)), 3)}")
        want = None
        for nxt, move in _candidates(p, target, mode):
            c = canonical_form(nxt)
            if not _reference_is_goal(c.x + c.y, target):
                continue
            chain = RcChain((p, nxt), (move,), mode)
            if check_necessary(nxt, target, mode)[0] and verify_rc_chain(chain):
                want = chain
                break
        event(f"goal: {want is not None}")
        got, _ = rc_order._goal_pass(p, [p], [], t, mode)
        assert got == want

    def test_transfer_tolerance_covers_the_new_components(self):
        # the product 13 * 4e-13 lies above the tolerance of p's components
        # (2e-12) and of p's and the target's (5e-12), within that of p's
        # plus the transfer's (8e-12): only the latter keeps this move
        p = pair((1.0, 2.0), (1.0, 1.0 + 4e-13))
        target = pair((-5.0, 3.0), (1.0, 1.0))
        nxt = pair((-5.0, 8.0), p.y)
        move = ElementaryMove(MoveKind.MAJORIZE_X, 0, 1)
        assert verify_rc_move(p, nxt, move, STRICT)
        assert (nxt, move) in list(_candidates(p, target, STRICT))


class TestRaiseToMajorized:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_lift_stays_above_x_and_majorized(self, data):
        """For sorted ``x`` weakly submajorized by ``y``, both with distinct
        components (quarters, so every sum is exact), the lift is a raise of
        ``x`` majorized by ``y``."""
        n = data.draw(st.integers(2, 6))
        distinct = st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True)
        x, y = sorted(data.draw(distinct)), sorted(data.draw(distinct))
        # lift y by the least whole step that puts every top-k sum of x within
        # y's; the binding top-k sum is then often tight
        top_x = itertools.accumulate(reversed(x))
        top_y = itertools.accumulate(reversed(y))
        shift = max(0, *(-((b - a) // k) for k, (a, b) in enumerate(zip(top_x, top_y), 1)))
        x = tuple(v / 4 for v in x)
        y = tuple((v + shift) / 4 for v in y)
        assert check_majorization(x, y, MajorizationMode.BELOW) == (True, None)
        u = rc_order._raise_to_majorized(x, y)
        assert list(u) == sorted(u)
        assert all(a >= b for a, b in zip(u, x))
        assert check_majorization(u, y, MajorizationMode.FULL) == (True, None)

    def test_lift_is_sorted_despite_rounding(self):
        """The two coordinates raised to y's tied 0.7s come out of the fill
        as 0.7000000000000013 then 0.6999999999999995."""
        x = (0.14232052057355538, 0.2121806336607277, 0.22933846660771118,
             0.3770499669291817, 0.6363950790956818)
        y = (0.7, 0.7, 1.1, 2.9, 2.9)
        u = rc_order._raise_to_majorized(x, y)
        assert list(u) == sorted(u)
        assert all(a >= b for a, b in zip(u, x))
        assert check_majorization(u, y, MajorizationMode.FULL) == (True, None)

    def test_lift_respects_every_longer_suffix(self):
        """The top coordinate may rise by 0.3 against y's largest, but the
        top two sums leave room for only 0.1."""
        x, y = (0.5, 1.2, 1.2), (0.6, 1.0, 1.5)
        u = rc_order._raise_to_majorized(x, y)
        assert u == pytest.approx((0.6, 1.2, 1.3), abs=1e-12)
        assert all(a >= b for a, b in zip(u, x))
        assert check_majorization(u, y, MajorizationMode.FULL) == (True, None)


@st.composite
def _opposite_instances(draw):
    """A mode, a start and an opposite-ordered target, each under its own
    permutation.  Components are halves of small integers, with x scaled by
    1, 10 or 1e3 against y and every y component nudged by up to 3e-12, so
    y holds near-ties that the four vectors' tolerance hides and the two y
    vectors' does not.  The start is drawn at random, or made from the
    target by averaging pairs of components (then, in weak mode, lowering x
    and raising y), which the necessary check mostly passes."""
    n = draw(st.integers(2, 6))
    mode = draw(st.sampled_from((STRICT, WEAK)))
    scale = draw(st.sampled_from((1.0, 10.0, 1e3)))
    half = st.integers(1, 8).map(lambda v: v / 2)
    nudge = st.sampled_from((0.0, 1e-12, 3e-12, -3e-12))

    def vector(unit):
        return [draw(half) * unit for _ in range(n)]

    def nudged(y):
        return [v + draw(nudge) for v in y]

    def permuted(x, y):
        perm = draw(st.permutations(range(n)))
        return pair([x[k] for k in perm], [y[k] for k in perm])

    x2, y2 = sorted(vector(scale)), sorted(vector(1.0), reverse=True)
    if draw(st.booleans()):
        x1, y1 = vector(scale), vector(1.0)
    else:
        x1, y1 = list(x2), list(y2)
        for vec in draw(st.lists(st.sampled_from((0, 1)), max_size=4)):
            v = (x1, y1)[vec]
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            lam = draw(st.sampled_from((0.25, 0.5, 0.75)))
            v[i], v[j] = lam * v[i] + (1 - lam) * v[j], (1 - lam) * v[i] + lam * v[j]
        if mode is WEAK:
            x1 = [v - draw(half) * scale / 8 * draw(st.booleans()) for v in x1]
            y1 = [v + draw(half) / 8 * draw(st.booleans()) for v in y1]
    return mode, permuted(x1, nudged(y1)), permuted(x2, nudged(y2))


class TestOppositeOrderedConstruction:
    @given(_opposite_instances())
    # a weak y short of the target's total within tolerance: the transfer
    # chain's full check passes it, the weak check's second prefix does not
    @example((WEAK, pair((5.0, 5.0, 5.0), (2.000000000001, 0.499999999997, 0.5)),
              pair((5.0, 5.0, 5.0), (2.0, 0.5, 0.500000000003))))
    @settings(max_examples=300, deadline=None)
    def test_construction_raises_or_returns_a_verified_chain(self, instance):
        """The construction's only failure is ``ChainConstructionError``, it
        fails on every pair that fails the necessary check it assumes, and
        each chain it returns is legal from the start to the target."""
        mode, p1, p2 = instance
        try:
            chain = construct_chain_opposite(p1, p2, mode)
        except ChainConstructionError:
            return
        assert check_necessary(p1, p2, mode)[0]
        assert verify_rc_chain(chain)
        assert check_pair_equal_a(chain.pairs[0], p1)
        assert check_pair_equal_a(chain.pairs[-1], p2)

    @given(_opposite_instances())
    @settings(max_examples=100, deadline=None)
    def test_decision_never_raises(self, instance):
        mode, p1, p2 = instance
        v = decide_wrc(p1, p2, mode, budget=20)
        if v.holds:
            assert verify_rc_chain(v.witness)
            assert check_pair_equal_a(v.witness.pairs[-1], p2)

    def test_is_opposite_ordered(self):
        assert is_opposite_ordered(pair((1, 2, 3), (9, 5, 2)))
        assert is_opposite_ordered(pair((2, 1, 3), (5, 9, 2)))  # permuted copy
        assert not is_opposite_ordered(pair((1, 2, 3), (5, 9, 2)))
        # the tolerance here is 9e-12: a y out of order within it, and past it
        assert is_opposite_ordered(pair((1, 2, 3), (9, 5, 5 + 2e-12)))
        assert not is_opposite_ordered(pair((1, 2, 3), (9, 5, 5 + 2e-11)))
        # neighbours within the tolerance, but the sorted representative is
        # 8e-12 from the pair, past its tolerance of 5e-12
        assert not is_opposite_ordered(pair((1, 2, 3), (5, 5 + 4e-12, 5 + 8e-12)))

    @given(_opposite_instances())
    @settings(max_examples=300, deadline=None)
    def test_transfer_chains_receive_exactly_sorted_vectors(self, instance):
        """The construction sorts exactly, so every transfer chain it asks
        for starts and ends on increasing-sorted vectors, near-ties included:
        the runner it calls, which checks no order, may take them as sorted."""
        mode, p1, p2 = instance
        runner = rc_order._sorted_transfers

        def spy(x, y):
            assert list(x) == sorted(x) and list(y) == sorted(y)
            return runner(x, y)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rc_order, "_sorted_transfers", spy)
            try:
                construct_chain_opposite(p1, p2, mode)
            except ChainConstructionError:
                pass

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_construction_verifies_on_random_weak_instances(self, data):
        n = data.draw(st.integers(2, 5))
        x2 = tuple(sorted(data.draw(st.floats(0.3, 3.0)) for _ in range(n)))
        y2 = tuple(sorted((data.draw(st.floats(0.5, 4.0)) for _ in range(n)), reverse=True))
        p2 = pair(x2, y2)
        # x1 weakly submajorized by x2 with distinct components: Robin Hood
        # moves between pairs of x2's components, then distinct lowerings
        x1 = list(x2)
        for _ in range(data.draw(st.integers(0, 3))):
            ij = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
            i, j = sorted(data.draw(ij))
            lam = data.draw(st.floats(0, 1))
            x1[i], x1[j] = lam * x1[i] + (1 - lam) * x1[j], (1 - lam) * x1[i] + lam * x1[j]
        slack = data.draw(st.lists(st.floats(0, 0.2), min_size=n, max_size=n, unique=True))
        x1 = [a - s for a, s in zip(x1, slack)]
        assume(len(set(x1)) == n)
        y1 = [max(y2) + data.draw(st.floats(0, 0.3))] * n
        p1 = pair(tuple(x1), tuple(y1))
        ok, _ = check_necessary(p1, p2, WEAK)
        assert ok
        chain = construct_chain_opposite(p1, p2, WEAK)
        assert verify_rc_chain(chain)
        assert check_pair_equal_a(chain.pairs[0], p1)
        assert check_pair_equal_a(chain.pairs[-1], p2)

    def test_matrix_targets_take_the_opposite_route(self):
        """Every forward matrix pair whose parameter target is opposite
        ordered is decided by the construction, not the search."""
        routes = collections.Counter()
        for row in MATRIX:
            for n, seed in itertools.product(range(2, 7), range(3)):
                s1, s2 = generate_instance(Scenario(row.name, row.family, n, seed))
                q1, q2 = _param_pairs(s1, s2, row.order)
                if is_opposite_ordered(q2):
                    routes[decide_wrc(q1, q2, WEAK).detail["route"]] += 1
        assert routes == {"opposite": 155}

    def test_construction_requires_opposite_ordered_target(self):
        p1 = pair((1.0, 1.0), (4.0, 4.0))
        p2 = pair((1.0, 2.0), (3.0, 4.0))  # similarly ordered
        with pytest.raises(ChainConstructionError):
            construct_chain_opposite(p1, p2, WEAK)


def _majorized(u, v, tol):
    """``u`` majorized by ``v`` with every prefix sum of the largest
    components, and the totals, compared within ``tol``."""
    su = itertools.accumulate(sorted(u, reverse=True))
    sv = list(itertools.accumulate(sorted(v, reverse=True)))
    return all(a <= b + tol for a, b in zip(su, sv)) and abs(math.fsum(u) - math.fsum(v)) <= tol


def _move_invariant(a, b, move):
    """Check the invariant behind the final arrangement refutation of
    ``decide_wrc`` on one accepted move, and name the kind of step it was.

    The sum of x does not fall and the sum of y does not rise.  A move that
    keeps its vector's sum is, up to tolerance, the identity (a raise or a
    lower), a permutation of its vector (a swap), or a transfer that moves
    its vector strictly up in majorization.  Slack: ``n`` tolerances of the
    four vectors, what ``verify_rc_move`` grants a move's sum."""
    n = a.n
    slack = n * component_tolerance(a.x, a.y, b.x, b.y)
    assert math.fsum(b.x) >= math.fsum(a.x) - slack
    assert math.fsum(b.y) <= math.fsum(a.y) + slack
    u, v = (a.x, b.x) if move.kind in rc_order._MOVES_X else (a.y, b.y)
    if abs(math.fsum(v) - math.fsum(u)) > slack:
        return "sum moved"
    if move.i is None:
        assert all(abs(p - q) <= 2 * slack for p, q in zip(u, v))
        return "identity"
    if all(abs(p - q) <= 4 * slack for p, q in zip(sorted(u), sorted(v))):
        return "swap"
    assert _majorized(u, v, 2 * slack) and not _majorized(v, u, 2 * slack)
    return "transfer"


class TestMoveInvariant:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_accepted_candidate_keeps_the_invariant(self, data):
        """On the search's candidates, and on the unpruned ones, which hold
        the contracting transfers ``_coupled_at`` drops before the check."""
        n = data.draw(st.integers(2, 6))
        mode = data.draw(st.sampled_from((STRICT, WEAK)))
        vec = st.tuples(*[_component] * n)
        p = pair(data.draw(vec), data.draw(vec))
        target = pair(data.draw(vec), data.draw(vec))
        for b, move in itertools.chain(
            _candidates(p, target, mode), _unpruned_coupled(p, target)
        ):
            if verify_rc_move(p, b, move, mode):
                event(_move_invariant(p, b, move))

    @given(_opposite_instances())
    @settings(max_examples=200, deadline=None)
    def test_every_constructed_move_keeps_the_invariant(self, instance):
        mode, p1, p2 = instance
        try:
            chain = construct_chain_opposite(p1, p2, mode)
        except ChainConstructionError:
            return
        for a, b, move in zip(chain.pairs, chain.pairs[1:], chain.moves):
            event(_move_invariant(a, b, move))


class TestSerialization:
    def test_round_trip(self):
        p1 = pair((0.4, 0.6, 0.5), (2.0, 3.0, 4.0))
        p2 = pair((0.7, 0.3, 0.5), (1.0, 3.0, 5.0))
        chain = decide_wrc(p1, p2, STRICT).witness
        text = chain_to_json(chain)
        back = chain_from_json(text)
        assert back == chain
        assert verify_rc_chain(back)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_text_is_the_indented_encoders(self, data):
        """The witness text equals ``json.dumps(..., indent=2)`` of the chain's
        records byte for byte, on values no search makes too.  Read back by
        ``chain_from_json``, a chain of nonempty finite vectors gives the text
        of its components as floats, and any other chain is refused.

        Each chain draws its numbers from a small pool of its own, so values
        repeat across vectors as they do in a witness, and the pool holds
        numbers that are equal but written apart (``0.0`` and ``-0.0``, ``1``
        and ``1.0``); a pair may keep a vector object of the pair before, as
        a move leaves it."""
        pool = data.draw(st.lists(st.floats() | st.integers(-(10**20), 10**20), max_size=3))
        pool += [0.0, -0.0, 1, 1.0, 2**53 + 1, 5e-324, 1.7976931348623157e308,
                 -1.7976931348623157e308, math.inf, -math.inf, math.nan]
        number = st.sampled_from(pool)

        def vector(n):
            return data.draw(st.lists(number, min_size=n, max_size=n).map(tuple))

        pairs = []
        for n in data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)):
            kept = data.draw(st.sampled_from(("x", "y", None))) if pairs else None
            if kept == "x":
                x = pairs[-1].x
                pairs.append(PairClass(x, vector(len(x))))
            elif kept == "y":
                y = pairs[-1].y
                pairs.append(PairClass(vector(len(y)), y))
            else:
                pairs.append(PairClass(vector(n), vector(n)))
        moves = []
        for _ in pairs[1:]:
            kind = data.draw(st.sampled_from(MoveKind))
            if kind in rc_order._COUPLED:
                i = data.draw(st.integers(0, 5))
                moves.append(ElementaryMove(kind, i, data.draw(st.integers(i + 1, 6))))
            else:
                moves.append(ElementaryMove(kind))
        chain = RcChain(tuple(pairs), tuple(moves), data.draw(st.sampled_from(RcMode)))
        records = [{"pair": {"x": list(p.x), "y": list(p.y)}, "move": None} for p in pairs]
        for rec, m in zip(records[1:], moves):
            rec["move"] = {"kind": m.kind.value, "i": m.i, "j": m.j}
        text = chain_to_json(chain)
        assert text == json.dumps({"mode": chain.mode.value, "chain": records}, indent=2)
        if all(p.n and all(map(math.isfinite, p.x + p.y)) for p in pairs):
            floats = tuple(PairClass(tuple(map(float, p.x)), tuple(map(float, p.y))) for p in pairs)
            as_floats = RcChain(floats, chain.moves, chain.mode)
            assert chain_to_json(chain_from_json(text)) == chain_to_json(as_floats)
        else:
            with pytest.raises(ValueError):
                chain_from_json(text)

    def test_chain_shape_validated(self):
        p = pair((1.0,), (2.0,))
        with pytest.raises(ValueError):
            RcChain((p, p), (), STRICT)
