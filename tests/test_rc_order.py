import hashlib
import heapq
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from stochord import rc_order
from stochord.arrangement import canonical_form, check_arrangement_leq, check_pair_equal_a, pair
from stochord.harness import MATRIX, Scenario, _param_pairs, generate_instance
from stochord.majorization import component_tolerance, sort_components
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
from stochord.verdicts import Status

STRICT, WEAK = RcMode.STRICT, RcMode.WEAK


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

    def test_lower_y_componentwise(self):
        a = pair((1.0, 2.0), (3.0, 4.0))
        b = pair((1.0, 2.0), (2.5, 4.0))
        assert verify_rc_move(a, b, ElementaryMove(MoveKind.LOWER_Y), WEAK)
        assert not verify_rc_move(b, a, ElementaryMove(MoveKind.LOWER_Y), WEAK)

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


class TestDecideWrc:
    def test_equal_pairs_hold_with_empty_chain(self):
        p = pair((1.0, 2.0), (3.0, 4.0))
        q = pair((2.0, 1.0), (4.0, 3.0))  # common permutation
        v = decide_wrc(p, q, STRICT)
        assert v.status is Status.HOLDS and len(v.witness.moves) == 0

    def test_necessary_violation_refutes(self):
        p1 = pair((0.0, 4.0), (3.0, 3.0))
        p2 = pair((1.0, 3.0), (3.0, 3.0))
        v = decide_wrc(p1, p2, STRICT)
        assert v.status is Status.REFUTED and v.violation["vector"] == "x"

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

    def test_budget_exhaustion_reports_unknown(self):
        p1 = pair((1.0, 2.0, 3.0), (1.0, 1.0, 1.0))
        p2 = pair((0.9, 1.9, 4.2), (1.0, 1.0, 1.0))
        v = decide_wrc(p1, p2, WEAK, budget=1)
        assert v.status in (Status.UNKNOWN, Status.HOLDS)

    @pytest.mark.parametrize(
        "p1, p2, mode, budget, status, detail",
        [
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
             STRICT, 4000, Status.UNKNOWN, {"route": "search", "expanded": 2, "budget": 4000,
                                            "reason": "search space exhausted"}),
        ],
        ids=["necessary", "equal", "opposite", "arrangement", "search", "budget", "space"],
    )
    def test_detail_names_the_route(self, p1, p2, mode, budget, status, detail):
        v = decide_wrc(pair(*p1), pair(*p2), mode, budget)
        assert v.status is status and v.detail == detail

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


def _reference_search(p1, p2, mode, budget):
    """The search loop with every check on every candidate, in the plain
    order: verify_rc_move, the dedupe key, check_necessary on both vectors and
    check_pair_equal_a.  ``rc_order._search`` skips the work that a cheaper
    filter makes moot and must match this bit for bit."""

    def round_key(p):
        c = canonical_form(p)
        return tuple(round(v, 9) for v in c.x + c.y)

    start = canonical_form(p1)
    target = rc_order._target(p2, mode)
    seen = {round_key(start)}
    counter = 0
    heap = [(rc_order._distance(start, target), 0, start, [start], [])]
    expanded = 0
    while heap:
        _, _, cur, pairs, moves = heapq.heappop(heap)
        expanded += 1
        if expanded > budget:
            break
        for nxt, move in rc_order._successors(cur, p2, mode):
            if not verify_rc_move(cur, nxt, move, mode):
                continue
            key = round_key(nxt)
            if key in seen:
                continue
            ok, _ = check_necessary(nxt, p2, mode)
            if not ok:
                continue
            seen.add(key)
            npairs, nmoves = pairs + [nxt], moves + [move]
            if check_pair_equal_a(nxt, p2):
                chain = RcChain(tuple(npairs), tuple(nmoves), mode)
                if verify_rc_chain(chain):
                    return Status.HOLDS, chain
            counter += 1
            heapq.heappush(
                heap, (rc_order._distance(nxt, target), counter, nxt, npairs, nmoves)
            )
    return Status.UNKNOWN, None


class TestSearch:
    def test_matches_the_reference_bit_for_bit(self):
        """Every matrix parameter pair at n = 2..6, seeds 0..2, both
        directions, whenever the pair passes the necessary conditions the
        search assumes; budget 200 lets the reversed ConvAI/AITail pairs run
        out of it quickly."""
        searched = {Status.HOLDS: 0, Status.UNKNOWN: 0}
        for row, n, seed in itertools.product(MATRIX, range(2, 7), range(3)):
            s1, s2 = generate_instance(Scenario(row.name, row.family, n, seed))
            q1, q2 = _param_pairs(s1, s2, row.order)
            for a, b in ((q1, q2), (q2, q1)):
                if not check_necessary(a, b, WEAK)[0]:
                    continue
                status, chain = _reference_search(a, b, WEAK, 200)
                v = rc_order._search(a, b, WEAK, 200)
                assert v.status is status, (row, n, seed)
                if chain is not None:
                    assert chain_to_json(v.witness) == chain_to_json(chain), (row, n, seed)
                searched[status] += 1
        assert searched[Status.HOLDS] and searched[Status.UNKNOWN]


def _unpruned_coupled(p, target):
    """Every swap and aligned transfer the search considers from ``p``, legal
    or not, in the search's order (the reference for ``_successors``)."""
    tol = component_tolerance(p.x, p.y, target.x, target.y)
    for i in range(p.n):
        for j in range(i + 1, p.n):
            for kind, vec in ((MoveKind.MAJORIZE_X, "x"), (MoveKind.MAJORIZE_Y, "y")):
                src = list(getattr(p, vec))
                if abs(src[i] - src[j]) > tol:
                    src[i], src[j] = src[j], src[i]
                    yield rc_order._apply(p, vec, src), ElementaryMove(kind, i, j)
            for kind, vec in ((MoveKind.MAJORIZE_X, "x"), (MoveKind.MAJORIZE_Y, "y")):
                src = getattr(p, vec)
                for ci, cj in rc_order._two_coord_targets(
                    src[i], src[j], getattr(target, vec), tol
                ):
                    new = list(src)
                    new[i], new[j] = ci, cj
                    yield rc_order._apply(p, vec, new), ElementaryMove(kind, i, j)


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

        got = list(rc_order._successors(p, target, mode))
        coupled = [c for c in got if c[1].i is not None]
        weak = [c for c in got if c[1].i is None]
        assert legal(got) == legal(_unpruned_coupled(p, target)) + legal(weak)
        assert set(coupled) <= set(_unpruned_coupled(p, target))

    def test_transfer_tolerance_covers_the_new_components(self):
        # the product 13 * 4e-13 lies above the tolerance of p's components
        # (2e-12) and of p's and the target's (5e-12), within that of p's
        # plus the transfer's (8e-12): only the latter keeps this move
        p = pair((1.0, 2.0), (1.0, 1.0 + 4e-13))
        target = pair((-5.0, 3.0), (1.0, 1.0))
        nxt = pair((-5.0, 8.0), p.y)
        move = ElementaryMove(MoveKind.MAJORIZE_X, 0, 1)
        assert verify_rc_move(p, nxt, move, STRICT)
        assert (nxt, move) in list(rc_order._successors(p, target, STRICT))


class TestOppositeOrderedConstruction:
    def test_is_opposite_ordered(self):
        assert is_opposite_ordered(pair((1, 2, 3), (9, 5, 2)))
        assert is_opposite_ordered(pair((2, 1, 3), (5, 9, 2)))  # permuted copy
        assert not is_opposite_ordered(pair((1, 2, 3), (5, 9, 2)))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_construction_verifies_on_random_weak_instances(self, data):
        n = data.draw(st.integers(2, 5))
        x2 = sort_components(
            tuple(data.draw(st.floats(0.3, 3.0)) for _ in range(n)), "inc"
        )
        y2 = sort_components(
            tuple(data.draw(st.floats(0.5, 4.0)) for _ in range(n)), "dec"
        )
        p2 = pair(x2, y2)
        # build p1 by Robin Hood moves plus slack, guaranteeing the weak order
        x1 = [sum(x2) / n - data.draw(st.floats(0, 0.2))] * n
        y1 = [max(y2) + data.draw(st.floats(0, 0.3))] * n
        p1 = pair(tuple(x1), tuple(y1))
        ok, _ = check_necessary(p1, p2, WEAK)
        assert ok
        chain = construct_chain_opposite(p1, p2, WEAK)
        assert verify_rc_chain(chain)
        assert check_pair_equal_a(chain.pairs[0], p1)
        assert check_pair_equal_a(chain.pairs[-1], p2)

    def test_construction_requires_opposite_ordered_target(self):
        p1 = pair((1.0, 1.0), (4.0, 4.0))
        p2 = pair((1.0, 2.0), (3.0, 4.0))  # similarly ordered
        with pytest.raises(ChainConstructionError):
            construct_chain_opposite(p1, p2, WEAK)


class TestSerialization:
    def test_round_trip(self):
        p1 = pair((0.4, 0.6, 0.5), (2.0, 3.0, 4.0))
        p2 = pair((0.7, 0.3, 0.5), (1.0, 3.0, 5.0))
        chain = decide_wrc(p1, p2, STRICT).witness
        text = chain_to_json(chain)
        back = chain_from_json(text)
        assert back == chain
        assert verify_rc_chain(back)

    def test_chain_shape_validated(self):
        p = pair((1.0,), (2.0,))
        with pytest.raises(ValueError):
            RcChain((p, p), (), STRICT)
