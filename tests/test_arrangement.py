import collections
import itertools
import random
from collections import deque

import pytest
from hypothesis import event, given, settings, strategies as st

from stochord.arrangement import (
    PairClass,
    SwapMove,
    _value_ids,
    canonical_form,
    check_arrangement_leq,
    check_pair_equal_a,
    pair,
)
from stochord.majorization import component_tolerance
from stochord.verdicts import OrderVerdict, Status


def _reference_check_pair_equal_a(p1, p2):
    """``check_pair_equal_a`` as it was before it compared sorted pairs
    without building canonical forms: the oracle of the rewritten one."""
    if p1.n != p2.n:
        raise ValueError(f"length mismatch: {p1.n} vs {p2.n}")
    tol = component_tolerance(p1.x, p1.y, p2.x, p2.y)
    c1, c2 = canonical_form(p1), canonical_form(p2)
    return all(abs(a - b) <= tol for a, b in zip(c1.x + c1.y, c2.x + c2.y))


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


def index_sorted_canonical_form(p):
    """Oracle: the canonical form by an index sort keyed by the pairs."""
    order = sorted(range(p.n), key=lambda i: (p.x[i], p.y[i]))
    return PairClass(tuple(p.x[i] for i in order), tuple(p.y[i] for i in order))


def block_key_arrangement_leq(p1, p2):
    """Oracle: breadth-first search over y-arrangements with x held sorted
    increasing, keyed by the sorted y ids inside each tie block of x and
    carrying each state's swap list, so its witness is a shortest one."""
    tol = component_tolerance(p1.x, p1.y, p2.x, p2.y)
    c1, c2 = canonical_form(p1), canonical_form(p2)
    x_ids = _value_ids(c1.x, tol)
    y_ids = _value_ids(c1.y + c2.y, tol)

    def key(y):
        blocks = {}
        for xi, yi in zip(c1.x, y):
            blocks.setdefault(x_ids[xi], []).append(y_ids[yi])
        return tuple(tuple(sorted(b)) for b in blocks.values())

    goal = key(c2.y)
    start = c1.y
    if key(start) == goal:
        return OrderVerdict(Status.HOLDS, witness=[])
    seen = {key(start)}
    queue = deque([(start, [])])
    while queue:
        y, moves = queue.popleft()
        for i, j in itertools.combinations(range(len(y)), 2):
            if not y[i] > y[j] + tol:
                continue
            ny = list(y)
            ny[i], ny[j] = ny[j], ny[i]
            ny = tuple(ny)
            k = key(ny)
            if k in seen:
                continue
            nmoves = moves + [SwapMove(i, j)]
            if k == goal:
                return OrderVerdict(Status.HOLDS, witness=nmoves)
            seen.add(k)
            queue.append((ny, nmoves))
    return OrderVerdict(Status.REFUTED)


def one_swap_apart(n):
    """A pair with x = 1..n and y decreasing, and the pair that the one legal
    swap of its middle two y components reaches."""
    x = tuple(float(k) for k in range(1, n + 1))
    y = [float(v) for v in range(n, 0, -1)]
    lo = pair(x, y)
    y[n // 2 - 1], y[n // 2] = y[n // 2], y[n // 2 - 1]
    return lo, pair(x, y)


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

    @pytest.mark.parametrize(
        "x, y",
        [
            ((3.0,), (-0.0,)),  # n = 1
            ((2.0, 1.0, 2.0, 1.0), (5.0, 7.0, 5.0, 6.0)),  # tied pairs
            ((0.0, -0.0, 0.0, -0.0), (1.0, 1.0, -0.0, 0.0)),  # signed zeros in both
            ((1.0, 1.0, 1.0), (0.0, -0.0, 0.0)),
        ],
    )
    def test_canonical_form_is_the_index_sort(self, x, y):
        """Equal pairs keep their order, so every sign of zero stays where an
        index sort keyed by the pairs puts it (``repr`` shows the sign)."""
        p = PairClass(x, y)
        assert repr(canonical_form(p)) == repr(index_sorted_canonical_form(p))

    @given(st.lists(st.tuples(*[st.sampled_from((0.0, -0.0, 1.0, 2.5))] * 2), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_canonical_form_is_the_index_sort_on_random_ties(self, items):
        p = PairClass(tuple(a for a, _ in items), tuple(b for _, b in items))
        assert repr(canonical_form(p)) == repr(index_sorted_canonical_form(p))

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


    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_equality_agrees_with_the_reference(self, data):
        """The rewritten equality test (one sort per pair, no canonical
        forms built) gives the reference's answer: pairs of n = 0..6 from a
        pool with ties and ``-0.0``, the second a common permutation of the
        first with components nudged by 0.5 to 2 times the tolerance, or a
        fresh draw, or of another length."""
        n = data.draw(st.integers(0, 6))
        scale = data.draw(st.sampled_from((1.0, 1e-3, 1e4, 2.0**1000)))
        comp = st.one_of(
            st.sampled_from((0.0, -0.0, 1.0, 2.0, 1e4)), st.floats(-3.0, 3.0, allow_nan=False)
        )
        x, y = ([data.draw(comp) * scale for _ in range(n)] for _ in range(2))
        how = data.draw(st.sampled_from(("permuted", "permuted", "fresh", "longer")))
        if how == "longer":
            u, v = x + [1.0], y + [1.0]
        elif how == "fresh":
            u, v = ([data.draw(comp) * scale for _ in range(n)] for _ in range(2))
        else:
            perm = data.draw(st.permutations(range(n)))
            u, v = [x[k] for k in perm], [y[k] for k in perm]
            tol = component_tolerance(x, y)
            for vec in (u, v):
                for k in range(n):
                    if data.draw(st.integers(0, 3)) == 0:
                        step = data.draw(st.sampled_from((0.5, 1, 1.5, 2, -0.5, -1, -1.5, -2)))
                        vec[k] += step * tol
        p, q = PairClass(tuple(x), tuple(y)), PairClass(tuple(u), tuple(v))
        try:
            want = _reference_check_pair_equal_a(p, q)
        except ValueError:
            with pytest.raises(ValueError):
                check_pair_equal_a(p, q)
            return
        event(f"{how}: {want}")
        assert check_pair_equal_a(p, q) is want


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

    def test_refutation_names_the_failing_prefix_and_value(self):
        """Back from (10, 30, 20) to (30, 10, 20): among positions 0..0 the
        target has a y value >= 30 and the start none."""
        lo, hi = pair((1, 2, 3), (30, 10, 20)), pair((1, 2, 3), (10, 30, 20))
        assert check_arrangement_leq(lo, hi).holds
        v = check_arrangement_leq(hi, lo)
        assert v.status is Status.REFUTED and v.witness is None
        assert v.violation == {"reason": "rank count fails", "k": 0, "t": 30.0}

    def test_refutes_a_target_one_swap_away_at_n9(self):
        """The criterion refutes a target one swap below the start without
        walking the arrangements the start reaches, nearly all 9! = 362,880."""
        lo, hi = one_swap_apart(9)
        up = check_arrangement_leq(lo, hi)
        assert up.holds and up.witness == [SwapMove(3, 4)]
        down = check_arrangement_leq(hi, lo)
        assert down.status is Status.REFUTED
        assert down.violation == {"reason": "rank count fails", "k": 3, "t": 6.0}

    def test_greedy_witness_is_not_always_shortest(self):
        """Of two swaps that place the same value, the greedy witness takes
        the first, which here costs one swap more than the shortest chain."""
        p1 = pair((5, 1, 0, 3, 2, 4), (2, 5, 6, 0, 4, 5))
        p2 = pair((1, 0, 2, 4, 3, 5), (0, 5, 5, 2, 4, 6))
        v = check_arrangement_leq(p1, p2)
        assert v.holds and verify_arrangement_chain(p1, p2, v.witness)
        assert (len(v.witness), len(block_key_arrangement_leq(p1, p2).witness)) == (5, 4)

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

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct-x", "tied-x"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_pair_keys_search_like_block_keys(self, n, ties):
        """The same verdict and witness length as the breadth-first search
        keyed by tie blocks, with a witness that replays, on every direction
        of random arrangements with tied y values."""
        rng = random.Random(1000 * n + ties)
        outcomes = collections.Counter()
        for _ in range(30):
            if ties:
                x = tuple(sorted(float(rng.randint(0, n // 2)) for _ in range(n)))
            else:
                x = tuple(float(k) for k in range(1, n + 1))
            ys = [float(rng.randint(0, n)) for _ in range(n)]
            p1 = pair(x, rng.sample(ys, n))
            p2 = pair(x, rng.sample(ys, n))
            for a, b in ((p1, p2), (p2, p1)):
                got, want = check_arrangement_leq(a, b), block_key_arrangement_leq(a, b)
                assert got.status is want.status
                if got.holds:
                    assert len(got.witness) == len(want.witness)
                    assert verify_arrangement_chain(a, b, got.witness)
                outcomes[got.status, bool(got.witness)] += 1
        assert outcomes[Status.HOLDS, True] or n == 1
        assert outcomes[Status.REFUTED, False] or n == 1
