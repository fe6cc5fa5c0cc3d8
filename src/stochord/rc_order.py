"""The reverse-coupled majorization order on vector pairs.

The order is generated by two-coordinate majorization moves on one vector of
the pair, allowed only at coordinate positions where the other vector is
oppositely ordered (the product of the coordinate differences on the target
pair is nonpositive).  The weak variant adds componentwise raises of ``x``
and lowers of ``y``, plus weak two-coordinate majorization moves.

Pairs in a chain are concrete representatives; chain endpoints are compared
to the queried pairs up to common permutation.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional

from stochord.arrangement import (
    PairClass,
    canonical_form,
    check_arrangement_leq,
    check_pair_equal_a,
    _multisets_within,
    _pairs_within,
    _tolerance,
)
from stochord.majorization import (
    BASE_TOL,
    MajorizationMode,
    Vector,
    check_sorted_majorization,
    json_text,
    json_vector,
    within,
    _integers,
    _sorted_transfers,
)
from stochord.verdicts import OrderVerdict, Status


class RcMode(Enum):
    STRICT = "strict"
    WEAK = "weak"


class MoveKind(Enum):
    MAJORIZE_X = "majorize_x"
    MAJORIZE_Y = "majorize_y"
    WEAK_MAJORIZE_X = "weak_majorize_x"
    WEAK_MAJORIZE_Y = "weak_majorize_y"
    RAISE_X = "raise_x"
    LOWER_Y = "lower_y"


# Tuples, not sets: membership in a tuple tests identity first, where a set
# calls Enum's Python-level __hash__, and verify_rc_move tests it on every
# candidate the search admits.
_COUPLED = (
    MoveKind.MAJORIZE_X,
    MoveKind.MAJORIZE_Y,
    MoveKind.WEAK_MAJORIZE_X,
    MoveKind.WEAK_MAJORIZE_Y,
)
# the moves that change x; every other move changes y only
_MOVES_X = (MoveKind.MAJORIZE_X, MoveKind.WEAK_MAJORIZE_X, MoveKind.RAISE_X)
_WEAK_ONLY = (
    MoveKind.WEAK_MAJORIZE_X,
    MoveKind.WEAK_MAJORIZE_Y,
    MoveKind.RAISE_X,
    MoveKind.LOWER_Y,
)
# Reading a member off its Enum class is a metaclass lookup, several times a
# global's: verify_rc_move, run on every candidate, reads these instead.
_STRICT = RcMode.STRICT
_RAISE_X, _LOWER_Y = MoveKind.RAISE_X, MoveKind.LOWER_Y
_WEAK_MAJORIZE_X, _WEAK_MAJORIZE_Y = MoveKind.WEAK_MAJORIZE_X, MoveKind.WEAK_MAJORIZE_Y


@dataclass(frozen=True)
class ElementaryMove:
    kind: MoveKind
    i: Optional[int] = None
    j: Optional[int] = None

    def __post_init__(self):
        if self.kind in _COUPLED:
            if self.i is None or self.j is None or not 0 <= self.i < self.j:
                raise ValueError(f"coupled move needs positions 0 <= i < j, got {self}")


# One move per (kind, i, j): the moves are frozen, so the chains and the
# search share them instead of building a dataclass for each step.  Only
# positions below a pair's length enter, so the cache stays small.
_move = functools.cache(ElementaryMove)


@dataclass(frozen=True)
class RcChain:
    pairs: tuple[PairClass, ...]
    moves: tuple[ElementaryMove, ...]
    mode: RcMode

    def __post_init__(self):
        if len(self.pairs) != len(self.moves) + 1:
            raise ValueError("chain needs exactly one more pair than moves")


class ChainConstructionError(ValueError):
    """A chain precondition that :func:`construct_chain_opposite` found violated."""


def _reverse_pair_ok(dx: float, dy: float, tol: float) -> bool:
    """The coupling condition on the target pair's coordinate differences
    ``dx = x[j] - x[i]`` and ``dy = y[j] - y[i]``, as the generating relation
    is stated.  A zero difference passes: where the other difference
    overflows, the product is ``inf * 0 = nan``, which fails every
    comparison, so the test is written as a negated ``>``."""
    return not dy * dx > tol


def verify_rc_move(a: PairClass, b: PairClass, m: ElementaryMove, mode: RcMode) -> bool:
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    n = len(ax)
    if len(bx) != n:
        return False
    kind = m.kind
    if mode is _STRICT and kind in _WEAK_ONLY:
        return False
    if not n:  # empty pairs: the componentwise moves hold, coupled ones have no room
        return kind in (_RAISE_X, _LOWER_Y)
    # the pairs' tolerance, component_tolerance(ax, ay, bx, by) read off
    # their kept scales: the one tolerance of every check below but the last
    tol = _tolerance(a, b)
    if tol == math.inf:  # pairs hold finite components: no move reaches an infinity
        return False

    if kind is _RAISE_X:
        for u, v, s, t in zip(ax, ay, bx, by):
            if not (abs(v - t) <= tol and u <= s + tol):
                return False
        return True
    if kind is _LOWER_Y:
        for u, v, s, t in zip(ax, ay, bx, by):
            if not (abs(u - s) <= tol and v >= t - tol):
                return False
        return True

    i, j = m.i, m.j
    if j >= n or not _reverse_pair_ok(bx[j] - bx[i], by[j] - by[i], tol):
        return False
    if kind in _MOVES_X:
        moved_a, moved_b, fixed_a, fixed_b = ax, bx, ay, by
    else:
        moved_a, moved_b, fixed_a, fixed_b = ay, by, ax, bx
    # the other vector stays put, and so does every coordinate but i and j
    for k in range(n):
        if not abs(fixed_a[k] - fixed_b[k]) <= tol:
            return False
        if k != i and k != j and not abs(moved_a[k] - moved_b[k]) <= tol:
            return False
    # check_majorization((u, v), (s, t), mode) written out for two coordinates,
    # with its tolerance: the four values' largest magnitude, times 2
    u, v, s, t = moved_a[i], moved_a[j], moved_b[i], moved_b[j]
    pair_tol = BASE_TOL * max(1.0, abs(u), abs(v), abs(s), abs(t)) * 2
    uv, st = u + v, s + t
    if not (math.isfinite(uv) and math.isfinite(st)):
        # a sum past the largest float would pass both sum tests below as
        # an infinity: compare exactly
        u, v, s, t, pair_tol = _integers((u, v, s, t, pair_tol))
        uv, st = u + v, s + t
    if kind is _WEAK_MAJORIZE_Y:  # ABOVE: the smaller component first
        return not (min(u, v) < min(s, t) - pair_tol or uv < st - pair_tol)
    if max(u, v) > max(s, t) + pair_tol or uv > st + pair_tol:
        return False
    # BELOW for a weak x move; FULL also compares the totals
    return kind is _WEAK_MAJORIZE_X or not abs(uv - st) > pair_tol


def verify_rc_chain(chain: RcChain) -> bool:
    pairs, mode = chain.pairs, chain.mode
    for s, move in enumerate(chain.moves):
        if not verify_rc_move(pairs[s], pairs[s + 1], move, mode):
            return False
    return True


# the modes of the necessary check on x and on y, bound once
_STRICT_MODES = (MajorizationMode.FULL, MajorizationMode.FULL)
_WEAK_MODES = (MajorizationMode.BELOW, MajorizationMode.ABOVE)


def _necessary_modes(mode: RcMode) -> tuple[MajorizationMode, MajorizationMode]:
    return _STRICT_MODES if mode is _STRICT else _WEAK_MODES


class _Target(NamedTuple):
    """A search's target pair with its target-only work done once: the pair
    itself, whose kept sorts the search reads for :func:`_gap`, the
    necessary check on a moved vector, the goal pass and the componentwise
    moves, and whose scale enters the moves' tolerance; its distinct
    component values, sorted increasing, for the transfers (so their order,
    and the witness, does not depend on how a ``set`` lays the values out);
    and ``near``, twice the pair's own tolerance, which bounds the goal
    test's tolerance from above (see :func:`_goal_pass`)."""

    pair: PairClass
    values_x: Vector
    values_y: Vector
    near: float


def _target(p2: PairClass) -> _Target:
    """The target record of ``p2``, from the sorts it keeps.  A dict keeps
    the first of equal keys, as a set does, and a stable sort keeps equal
    values in their order, so ``dict.fromkeys`` of a sorted vector holds the
    values of ``sorted(set(...))``, ``0.0`` or ``-0.0`` alike."""
    values_x, values_y = tuple(dict.fromkeys(p2.xs)), tuple(dict.fromkeys(p2.ys))
    return _Target(p2, values_x, values_y, 2 * _tolerance(p2, p2))


def check_necessary(
    p1: PairClass, p2: PairClass, mode: RcMode
) -> tuple[bool, Optional[dict]]:
    """Necessary conditions: the order implies (weak) majorization coordinatewise.

    Strict mode requires x1 and y1 majorized by x2 and y2; weak mode requires
    weak majorization from below on x and from above on y.
    """
    if p1.n != p2.n:
        raise ValueError(f"length mismatch: {p1.n} vs {p2.n}")
    x_mode, y_mode = _necessary_modes(mode)
    ok, k = check_sorted_majorization(p1.xs, p2.xs, x_mode)
    if not ok:
        return False, {"vector": "x", "prefix": k, "mode": x_mode.value}
    ok, k = check_sorted_majorization(p1.ys, p2.ys, y_mode)
    if not ok:
        return False, {"vector": "y", "prefix": k, "mode": y_mode.value}
    return True, None


def _opposite_representative(p: PairClass) -> Optional[tuple[Vector, Vector]]:
    """The pair's exactly sorted representative, x increasing beside y
    decreasing, if the pair is opposite ordered (else None): within
    :func:`check_pair_equal_a`'s tolerance of it, which for the four
    vectors is the pair's own."""
    representative = p.xs, tuple(sorted(p.y, reverse=True))
    if _pairs_within(sorted(zip(*representative)), p.pairs, _tolerance(p, p)):
        return representative
    return None


def is_opposite_ordered(p: PairClass) -> bool:
    """True iff ``p`` equals its exactly sorted representative, x increasing
    beside y decreasing, within :func:`check_pair_equal_a`'s tolerance."""
    return _opposite_representative(p) is not None


def construct_chain_opposite(p1: PairClass, p2: PairClass, mode: RcMode) -> RcChain:
    """Constructive chain for an opposite-ordered target.

    Builds toward ``p2``'s exactly sorted representative and refuses a target
    that :func:`is_opposite_ordered` rejects, the construction's only
    tolerance.  Refuses a ``p1`` that fails :func:`check_necessary` against
    ``p2``: strict mode needs full majorization on both vectors, weak mode
    the weak variants.  The transfer chains' own majorization checks refuse
    such a pair in exact arithmetic, but not at the edge of their
    tolerances: a weak y whose total falls short of the target's within
    tolerance passes their full check and can fail a prefix of the weak one
    by the two slacks added.  The chain raises x /
    lowers y to equalize totals (weak mode), sorts y decreasing exactly by
    swaps, then walks transfer chains on y and on x, each on exactly sorted
    vectors; opposite sortedness keeps every coupled move legal.  In floats a
    transfer chain may be refused or not converge, or the chain may fail
    :func:`verify_rc_chain` or end off the target, all under rounding; each
    raises :class:`ChainConstructionError` too, so a returned chain is always
    a verified witness from ``p1``.  It ends on the representative, within
    :func:`check_pair_equal_a`'s tolerance of ``p2`` (with no transfer, on a
    pair that is).
    """
    if p1.n != p2.n:
        raise ChainConstructionError("length mismatch")
    if not check_necessary(p1, p2, mode)[0]:
        raise ChainConstructionError("start fails the necessary check")
    return _construct_opposite(p1, p2, mode)


def _construct_opposite(p1: PairClass, p2: PairClass, mode: RcMode) -> RcChain:
    """:func:`construct_chain_opposite` for a start that has passed
    :func:`check_necessary` against the target, as in :func:`decide_wrc`.
    Every vector it hands :func:`_sorted_transfers` is sorted exactly: the
    target's representative, the canonical x, the raise (sorted on return),
    and y after the swaps.  Each transfer step goes straight into the chain
    as its move and pair; no intermediate chain of vectors is built."""
    representative = _opposite_representative(p2)
    if representative is None:
        raise ChainConstructionError("target pair is not opposite ordered")
    x2s, y2s = representative

    rep1 = canonical_form(p1)
    x1, y1 = rep1.x, rep1.y
    n = len(x1)

    pairs: list[PairClass] = [rep1]
    moves: list[ElementaryMove] = []

    def push(move: ElementaryMove, target: PairClass) -> None:
        pairs.append(target)
        moves.append(move)

    # Weak mode: raise x onto the target's total with one componentwise move
    # that keeps it majorized by the target's x, and plan a final
    # componentwise lowering of y from an inflated copy of the target.
    weak = mode is RcMode.WEAK
    x_cur = x1
    dx = sum(x2s) - sum(x1)
    if weak and dx > 0:
        x_cur = _raise_to_majorized(x1, x2s)
        push(_move(MoveKind.RAISE_X), PairClass(x_cur, y1))
    y_top = y2s
    dy = sum(y1) - sum(y2s)
    if weak and dy > 0:
        # inflating the largest component maximizes every top-k prefix sum,
        # so majorization over y1 holds whenever it can
        y_top = (y2s[0] + dy,) + y2s[1:]

    # Sort y decreasing exactly with inversion-creating swaps; x increasing
    # makes the reverse-pair product nonpositive at every step.
    y_cur = list(pairs[-1].y)
    for pos in range(n):
        top = pos  # the first largest component from pos on
        for k in range(pos + 1, n):
            if y_cur[k] > y_cur[top]:
                top = k
        if top != pos:
            y_cur[pos], y_cur[top] = y_cur[top], y_cur[pos]
            push(_move(MoveKind.MAJORIZE_Y, pos, top), PairClass(x_cur, tuple(y_cur)))

    # Transfer chains on y (run on the reversed, increasing copies) and on x;
    # their checks are the only majorization checks after the lift.
    try:
        y_steps = _sorted_transfers(tuple(y_cur[::-1]), y_top[::-1])
        x_steps = _sorted_transfers(x_cur, x2s)
    except (ValueError, RuntimeError) as exc:
        raise ChainConstructionError(f"transfer chain refused: {exc}") from exc
    for i, j, _eps, nxt in y_steps:
        push(_move(MoveKind.MAJORIZE_Y, n - 1 - j, n - 1 - i), PairClass(x_cur, nxt[::-1]))

    # the x moves run against the decreasing y, one tuple for all of them
    y_end = pairs[-1].y
    for i, j, _eps, nxt in x_steps:
        push(_move(MoveKind.MAJORIZE_X, i, j), PairClass(nxt, y_end))

    if weak and dy > 0:
        push(_move(MoveKind.LOWER_Y), PairClass(x2s, y2s))

    chain = RcChain(tuple(pairs), tuple(moves), mode)
    if not verify_rc_chain(chain):
        raise ChainConstructionError("chain rejected under rounding")
    # a transfer chain snaps its end onto its target, so the chain mostly ends
    # on (x2s, y2s) exactly, p2's sorted representative; one with no transfer
    # ends where the lift and the swaps left it
    end = pairs[-1]
    if (end.x, end.y) != (x2s, y2s) and not check_pair_equal_a(end, p2):
        raise ChainConstructionError("chain ends off the target under rounding")
    return chain


def _raise_to_majorized(x: Vector, y: Vector) -> Vector:
    """Componentwise raise ``u >= x`` of sorted-increasing ``x`` with ``y``'s
    total and ``u`` majorized by sorted-increasing ``y``; it exists whenever
    ``x`` is weakly majorized from below by ``y`` (Marshall, Olkin & Arnold,
    5.A.9).

    Fills from the top coordinate down.  Raising ``u[k]`` adds to the sum of
    every suffix ``u[m:]`` with ``m <= k``, so the raise is capped by the
    slack ``sum(y[m:]) - sum(u[m:])`` of each of them; the whole vector's
    slack (``m = 0``) is the deficit still ``remaining``.  In exact
    arithmetic:

    - every suffix sum stays within ``y``'s: it starts there (weak
      majorization of sorted vectors compares suffix sums), and no raise
      exceeds the slack of a suffix it adds to;
    - the ``k = 0`` step is capped by ``remaining`` alone and spends it, so
      the totals match;
    - ``u`` stays sorted.  A raise capped by ``remaining`` or by the slack of
      a suffix ``u[m:]`` leaves that slack zero, so every later step inside
      that suffix raises nothing.  Hence if ``u[k]`` rises, the step at
      ``k + 1`` was capped by the slack of ``u[k + 1:]`` itself, and the
      caps give ``u[k] <= y[k] <= y[k + 1] <= u[k + 1]`` (the suffix
      ``u[k + 1:]`` is tight and ``u[k + 2:]`` within ``y[k + 2:]``); if it
      does not, ``u[k] = x[k] <= x[k + 1] <= u[k + 1]``.

    So the suffix sums are the top-k sums, and ``u`` is majorized by ``y``.
    The result is sorted once more only against rounding.
    """
    n = len(x)
    u = list(x)
    remaining = sum(y) - sum(x)
    for k in range(n - 1, -1, -1):
        inc = remaining
        for m in range(1, k + 1):
            inc = min(inc, sum(y[m:]) - sum(u[m:]))
        if inc > 0:
            u[k] = x[k] + inc
            remaining -= inc
    return tuple(sorted(u))


# ---------------------------------------------------------------------------
# Bounded decision procedure


def _swap_chain_from_arrangement(p2: PairClass, witness: list, mode: RcMode) -> RcChain:
    """The chain of ``p1 >=_a p2``, which embeds into the order: the
    arrangement ``witness`` from ``p2`` to ``p1``, replayed backwards as
    y-swap moves on a common x-sorted representative."""
    c2 = canonical_form(p2)
    y = list(c2.y)
    pairs = [c2]
    for mv in witness:
        y[mv.i], y[mv.j] = y[mv.j], y[mv.i]
        pairs.append(PairClass(c2.x, tuple(y)))
    moves = [_move(MoveKind.MAJORIZE_Y, mv.i, mv.j) for mv in reversed(witness)]
    return RcChain(tuple(reversed(pairs)), tuple(moves), mode)


def _two_coord_targets(a: float, b: float, values: Vector, tol: float):
    """Candidate values of (a, b) preserving the sum, aligned so that one
    coordinate lands on one of the distinct goal component ``values``, in
    both orientations; some pull the pair together, which
    :func:`_coupled_at` skips."""
    out = []
    s = a + b
    for g in values:
        for cand in ((g, s - g), (s - g, g)):
            if abs(cand[0] - a) > tol or abs(cand[1] - b) > tol:
                out.append(cand)
    return out


class _Rounded(dict):
    """``round(v, 9)`` of every component value a search has met, the
    pieces of its dedupe key: a child keeps all but two of its parent's
    components, so it rounds only its new ones.  The components are finite;
    ``-0.0`` finds ``0.0``'s entry, and ``seen`` holds the two equal anyway.
    An exact key would keep nodes that differ only by the rounding of their
    moves apart, and the search would expand each of them."""

    def __missing__(self, v: float) -> float:
        r = self[v] = round(v, 9)
        return r


def _gap(v: Vector, target: Vector) -> float:
    """One vector's half of the search distance: the L1 distance between
    ``v`` and the target's vector, both sorted increasing."""
    return sum(abs(u - t) for u, t in zip(v, target))


def _coupled_at(p: PairClass, target: _Target, positions, x_moves=True, y_moves=True):
    """The coupled candidates from ``p`` toward the target at the position
    pairs ``positions``, ``(i, j)`` with ``i < j``, in the order given, for
    :func:`verify_rc_move` to accept or reject; the moves of x only if
    ``x_moves``, those of y only if ``y_moves``.  Each is a plain tuple
    ``(moves_x, swap, new, kind, i, j)``: ``new`` replaces x if ``moves_x``,
    else y, at positions ``i`` and ``j``; ``swap`` marks a permutation of p's
    vector, any other candidate a transfer that keeps the sum of p's two
    components.  A candidate whose own pair fails the reverse-pair condition,
    or a transfer that contracts its two coordinates, is not yielded:
    :func:`verify_rc_move` would reject it, with the same comparison and
    tolerance as computed here.  The search meets the candidates at every
    position pair, then those of :func:`_componentwise_successors`."""
    px, py = p.x, p.y
    # every tolerance is BASE_TOL times the largest magnitude involved, or 1
    p_scale = max(1.0, p.scale)
    tol = _tolerance(p, target.pair)
    # a swap permutes p's components, so its check has p's tolerance
    swap_tol = _tolerance(p, p)
    moved = []
    if x_moves:
        moved.append((True, MoveKind.MAJORIZE_X, px, target.values_x))
    if y_moves:
        moved.append((False, MoveKind.MAJORIZE_Y, py, target.values_y))
    for i, j in positions:
        dx, dy = px[j] - px[i], py[j] - py[i]
        # swaps (majorization between permuted coordinate pairs); swapping
        # either vector negates the product of the differences
        if _reverse_pair_ok(-dx, dy, swap_tol):
            for moves_x, kind, src, _values in moved:
                if abs(src[i] - src[j]) <= tol:
                    continue
                new = list(src)
                new[i], new[j] = new[j], new[i]
                yield moves_x, True, tuple(new), kind, i, j
        # sum-preserving transfers aligned with target component values;
        # the product takes the other vector's difference unchanged
        for moves_x, kind, src, values in moved:
            other = dy if moves_x else dx
            a, b = src[i], src[j]
            top, ab_scale = max(a, b), max(1.0, abs(a), abs(b))
            for ci, cj in _two_coord_targets(a, b, values, tol):
                c_scale = max(abs(ci), abs(cj))
                # a transfer that pulls a and b together fails the first
                # prefix comparison of check_majorization((a, b), (ci, cj),
                # FULL), with its tolerance: no majorization move makes it
                if top > max(ci, cj) + BASE_TOL * max(ab_scale, c_scale) * 2:
                    continue
                if not _reverse_pair_ok(cj - ci, other, BASE_TOL * max(p_scale, c_scale)):
                    continue
                new = list(src)
                new[i], new[j] = ci, cj
                yield moves_x, False, tuple(new), kind, i, j


def _componentwise_successors(
    p: PairClass, target: _Target, mode: RcMode, x_moves=True, y_moves=True
):
    """The componentwise candidates from ``p`` in weak mode (none in strict
    mode), as the tuples of :func:`_coupled_at` with ``swap`` false
    and ``i`` and ``j`` None: raises of x (if ``x_moves``) and lowers of y
    (if ``y_moves``) onto the target's components, and a raise of x to the
    target's total."""
    if mode is not RcMode.WEAK:
        return
    n = p.n
    px, py = p.x, p.y
    goal = target.pair
    tol = _tolerance(p, goal)
    if x_moves:
        raised = _componentwise_move(px, goal.xs, 1, tol)
        if raised is not None:
            yield True, False, raised, MoveKind.RAISE_X, None, None
        aligned = _aligned_move(p, goal, "x", tol)
        if aligned is not None:
            yield True, False, aligned, MoveKind.RAISE_X, None, None
    if y_moves:
        lowered_aligned = _aligned_move(p, goal, "y", tol)
        if lowered_aligned is not None:
            yield False, False, lowered_aligned, MoveKind.LOWER_Y, None, None
    if x_moves and sum(goal.x) - sum(px) > tol * n:
        # raise toward a vector with the target total that stays majorized
        # by the target's components, distributing ranks back in place
        order = sorted(range(n), key=lambda k: px[k])
        u = _raise_to_majorized(p.xs, goal.xs)
        new = list(px)
        for rank, idx in enumerate(order):
            new[idx] = u[rank]
        if all(a <= b + tol for a, b in zip(px, new)):
            yield True, False, tuple(new), MoveKind.RAISE_X, None, None
    if y_moves:
        lowered = _componentwise_move(py, goal.ys, -1, tol)
        if lowered is not None:
            yield False, False, lowered, MoveKind.LOWER_Y, None, None


def _aligned_move(p: PairClass, target: PairClass, vec: str, tol: float) -> Optional[Vector]:
    """Raise x (``vec = "x"``) or lower y (``vec = "y"``) onto the target's
    through the pairing with equal values of the other vector.

    Matches positions by sorting both pairs by (other, moved); within each
    block of equal other values this pairs moved components ascending, the
    assignment most likely to keep the move componentwise.  The other
    vectors' sorts, which the pairs keep, must agree first.
    """
    other = "y" if vec == "x" else "x"
    po, to = getattr(p, other), getattr(target, other)
    pv, tv = getattr(p, vec), getattr(target, vec)
    if not within(getattr(p, other + "s"), getattr(target, other + "s"), tol):
        return None
    order_p = sorted(range(p.n), key=lambda k: (po[k], pv[k]))
    order_t = sorted(range(p.n), key=lambda k: (to[k], tv[k]))
    if any(abs(po[ip] - to[it]) > tol for ip, it in zip(order_p, order_t)):
        return None
    sign = 1 if vec == "x" else -1
    return _move_onto(pv, zip(order_p, (tv[it] for it in order_t)), sign, tol)


def _componentwise_move(v: Vector, target: Vector, sign: int, tol: float) -> Optional[Vector]:
    """Match sorted orders; if the target multiset, sorted increasing, sits
    componentwise above (``sign = 1``) or below (``sign = -1``) ``v`` under
    that matching, return the rearranged raised or lowered vector."""
    order = sorted(range(len(v)), key=lambda k: v[k])
    return _move_onto(v, zip(order, target), sign, tol)


def _move_onto(v: Vector, matches, sign: int, tol: float) -> Optional[Vector]:
    """Set ``v[idx] = t`` for each matched ``(idx, t)``; None unless no
    component moves against ``sign`` and at least one moves with it."""
    out = list(v)
    changed = False
    for idx, t in matches:
        if sign * t < sign * v[idx] - tol:
            return None
        if sign * t > sign * v[idx] + tol:
            changed = True
        out[idx] = t
    return tuple(out) if changed else None


DEFAULT_SEARCH_BUDGET = 4000


def decide_wrc(
    p1: PairClass,
    p2: PairClass,
    mode: RcMode = RcMode.WEAK,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> OrderVerdict:
    """Three-valued decision for the (weak) reverse-coupled order.

    Pipeline: necessary conditions, the constructive opposite-ordered
    criterion, the arrangement-only route, then a bounded best-first search
    over discretized elementary moves.  A Holds verdict always carries a chain
    accepted by :func:`verify_rc_chain`; the order has no known complete
    decision procedure, so exhausted budgets yield Unknown.  ``detail["route"]``
    names the step that decided (``necessary``, ``equal``, ``opposite``,
    ``arrangement`` or ``search``); the search adds the nodes it ``expanded``
    and its ``budget``.  An ``opposite`` chain ends on ``p2``'s exactly sorted
    representative, within :func:`check_pair_equal_a`'s tolerance of ``p2``.

    When only the pairing differs (the multisets match within tolerance),
    the ``arrangement`` route decides ``p2 <=_a p1`` by
    :func:`check_arrangement_leq`, whose swaps give the chain.  A refutation
    there is final on exactly equal multisets.  In exact arithmetic no move
    :func:`verify_rc_move` accepts lowers the sum of x or raises that of y,
    so on such a chain both sums stay fixed: raises and lowers are the
    identity and weak transfers full ones.  A transfer that does not permute
    its two coordinates spreads them, moving its vector strictly up in
    majorization where nothing moves it back, so the chain holds only swaps,
    each a legal arrangement swap run backwards.  Multisets equal only
    within tolerance fall through to the search.  Raises ``TypeError`` on a
    ``mode`` that is not an :class:`RcMode`.
    """
    if not isinstance(mode, RcMode):
        raise TypeError(f"mode must be an RcMode, got {mode!r}")
    if p1.n != p2.n:
        raise ValueError(f"length mismatch: {p1.n} vs {p2.n}")
    # each pair sorted its vectors when it was made (see PairClass); every route reads them
    ok, viol = check_necessary(p1, p2, mode)
    if not ok:
        return OrderVerdict(Status.REFUTED, violation=viol, detail={"route": "necessary"})
    if check_pair_equal_a(p1, p2):
        return OrderVerdict(
            Status.HOLDS,
            witness=RcChain((canonical_form(p1),), (), mode),
            detail={"route": "equal"},
        )

    try:
        chain = _construct_opposite(p1, p2, mode)  # p1 passed the necessary check
    except ChainConstructionError:
        pass  # a target not opposite ordered, and every refusal, falls through
    else:
        return OrderVerdict(Status.HOLDS, witness=chain, detail={"route": "opposite"})

    if _multisets_within(p1, p2, _tolerance(p1, p2)):
        arranged = check_arrangement_leq(p2, p1)
        if arranged.holds:
            chain = _swap_chain_from_arrangement(p2, arranged.witness, mode)
            if verify_rc_chain(chain):
                return OrderVerdict(Status.HOLDS, witness=chain, detail={"route": "arrangement"})
        elif p1.xs == p2.xs and p1.ys == p2.ys:
            detail = {"route": "arrangement"}
            return OrderVerdict(Status.REFUTED, violation=arranged.violation, detail=detail)

    return _search(p1, p2, mode, budget)


def _search(p1: PairClass, p2: PairClass, mode: RcMode, budget: int) -> OrderVerdict:
    """Best-first search from ``p1``, which has passed
    :func:`check_necessary` against ``p2``.

    Each expansion makes two passes over the node's candidates.  The goal
    pass (:func:`_goal_pass`) returns the first candidate in yield order that
    is the goal and whose move :func:`verify_rc_move` accepts.  It runs
    before the dedupe, so a goal is found even if its key equals that of a
    node already seen.  The start's goal pass runs before any of the tree
    is built (the memo of rounded values, ``seen`` and the heap): most
    searches end there.  The tree pass admits the other candidates, and
    runs only while the budget leaves a node to expand, since a node it
    admits past that is never read.
    Candidates stay plain tuples until they pass its cheap filters, which
    only skip a candidate and so run cheapest first: the necessary check
    (:func:`check_sorted_majorization`) on the vector the move changed,
    sorted, against the target's, the other being its parent's, which
    already passed (a swap skips it: it permutes a vector that passed, and
    the check reads only the multiset); ``seen``, on a key of its canonical
    form rounded through a per-search memo of component values; and, on the
    pair and move then built, :func:`verify_rc_move`, so every pair that
    enters the tree is checked.  A node's priority is its distance to the
    target, :func:`_gap` of its sorted x plus that of its sorted y.
    """
    start = canonical_form(p1)
    target = _target(p2)
    goal = target.pair
    cur, pairs, moves = start, [start], []
    seen = None  # the tree, built once the start's goal pass finds no goal
    heap = []
    counter = expanded = 0
    while expanded < budget:
        expanded += 1
        chain, candidates = _goal_pass(cur, pairs, moves, target, mode)
        if chain is not None:
            detail = {"route": "search", "expanded": expanded, "budget": budget}
            return OrderVerdict(Status.HOLDS, witness=chain, detail=detail)
        if expanded >= budget:
            break
        if seen is None:
            rounded = _Rounded().__getitem__
            seen = {tuple(map(rounded, start.x + start.y))}
        for moves_x, swap, new, kind, i, j in candidates:
            if not swap and not _moved_passes(sorted(new), moves_x, goal, mode):
                continue
            x, y = (new, cur.y) if moves_x else (cur.x, new)
            xs, ys = zip(*sorted(zip(x, y)))
            key = tuple(map(rounded, xs + ys))
            if key in seen:
                continue
            nxt, move = PairClass(x, y), _move(kind, i, j)
            if not verify_rc_move(cur, nxt, move, mode):
                continue
            seen.add(key)
            counter += 1
            gap = _gap(nxt.xs, goal.xs) + _gap(nxt.ys, goal.ys)
            heapq.heappush(heap, (gap, counter, nxt, pairs + [nxt], moves + [move]))
        if not heap:
            break
        _, _, cur, pairs, moves = heapq.heappop(heap)
    detail = {"route": "search", "expanded": expanded, "budget": budget}
    # the discretized moves reach no chain either way, so both are unknown
    detail["reason"] = "search " + ("budget" if expanded >= budget else "space") + " exhausted"
    return OrderVerdict(Status.UNKNOWN, detail=detail)


def _moved_passes(moved: Vector, moves_x: bool, goal: PairClass, mode: RcMode) -> bool:
    """Whether the vector a move changed, sorted increasing, passes
    :func:`check_necessary`'s check against the goal's (the other vector
    is its parent's, which passed)."""
    x_mode, y_mode = _necessary_modes(mode)
    if moves_x:
        return check_sorted_majorization(moved, goal.xs, x_mode)[0]
    return check_sorted_majorization(moved, goal.ys, y_mode)[0]


def _far(p: PairClass, target: _Target) -> list[int]:
    """The positions of ``p``'s coordinate pairs that lie more than
    ``target.near`` from every pair of the target's, up to the third: with
    three, no coupled move reaches the goal.  It runs on every node whose
    goal pass is open (see :func:`_goal_pass`), so it scans in plain loops
    rather than a generator per coordinate."""
    near = target.near
    goal = list(zip(target.pair.x, target.pair.y))
    far = []
    for k, (u, v) in enumerate(zip(p.x, p.y)):
        for a, b in goal:
            if abs(u - a) <= near and abs(v - b) <= near:
                break
        else:
            far.append(k)
            if len(far) > 2:
                break
    return far


def _positions_with(far: list[int], n: int):
    """The position pairs ``(i, j)``, ``i < j``, that hold every position of
    ``far`` (at most two; every pair if ``far`` is empty), in the order of
    ``itertools.combinations``."""
    if not far:
        return itertools.combinations(range(n), 2)
    if len(far) == 2:
        return (tuple(far),)
    [k] = far
    return [(i, k) for i in range(k)] + [(k, j) for j in range(k + 1, n)]


def _goal_pass(cur: PairClass, pairs: list, moves: list, target: _Target, mode: RcMode):
    """The chain to the first of ``cur``'s candidates, in yield order, that
    is the goal and whose move passes :func:`verify_rc_move` (or None), and,
    if there is none, the candidates for the tree pass, every one in yield
    order, those this pass generated included.  Every earlier move of the
    chain was accepted by :func:`verify_rc_move` when its node entered the
    tree, so the chain passes :func:`verify_rc_chain`.

    A move changes x only or y only, so a child can be the goal only if
    ``cur``'s other vector already matches the target's: the pass generates
    only the moves of a vector that can reach the goal.  The goal test is
    :func:`check_pair_equal_a` against the target.  It compares canonical
    forms, which hold the coordinate pairs in some order, and sorting is
    1-Lipschitz in the sup norm, so a goal's sorted vectors lie within the
    goal test's tolerance of the target's.  That tolerance is at most
    ``target.near``: a goal's components lie within it of the target's, so
    its scale exceeds the target's by a negligible amount.  A
    coupled move keeps every coordinate pair but the two it moves, and each
    pair of a goal lies within the goal test's tolerance of a pair of the
    target's.  So a coordinate whose pair lies more than ``near`` from every
    pair of the target's (a *far* one, see :func:`_far`) must be one of the
    two moved: the pass generates coupled candidates only at the position
    pairs that hold every far coordinate (one pair for two far coordinates,
    ``n - 1`` for one, all for none, and none for three or more).  A
    candidate past these gates meets a pre-test of the same kind (its moved
    vector, sorted, against the target's within ``near``).  Only then is
    its pair built, for the goal test, then the necessary check on the moved
    vector, and :func:`verify_rc_move` on the candidate's move.  The gates
    and the pre-test skip no goal, and the position pairs and the vectors
    keep the order of the whole list, so the pass returns the first goal in
    yield order.  It generates candidates lazily, stopping at the first
    goal.  When it finds none, the tree pass reuses the candidates it
    generated if they are all of them (both vectors open, and for the
    coupled ones no far coordinate), and otherwise generates the whole list
    itself, in the same order.  The gates and the laziness are for speed:
    most goals are componentwise moves met in the first expansion, which the
    pass then reaches without generating any coupled candidate.
    """
    px, py = cur.x, cur.y
    near, goal = target.near, target.pair
    x_open = within(cur.ys, goal.ys, near)  # an x move may reach the goal
    y_open = within(cur.xs, goal.xs, near)

    def first_goal(candidates, listed):
        for candidate in candidates:
            listed.append(candidate)
            moves_x, swap, new, kind, i, j = candidate
            if not within(sorted(new), goal.xs if moves_x else goal.ys, near):
                continue
            nxt = PairClass(new, py) if moves_x else PairClass(px, new)
            if not check_pair_equal_a(nxt, goal):
                continue
            if not swap and not _moved_passes(nxt.xs if moves_x else nxt.ys, moves_x, goal, mode):
                continue
            move = _move(kind, i, j)
            if verify_rc_move(cur, nxt, move, mode):
                return RcChain((*pairs, nxt), (*moves, move), mode)
        return None

    if x_open or y_open:
        far = _far(cur, target)
        listed = []
        if len(far) <= 2:
            positions = _positions_with(far, cur.n)
            chain = first_goal(_coupled_at(cur, target, positions, x_open, y_open), listed)
            if chain is not None:
                return chain, ()
        componentwise = []
        successors = _componentwise_successors(cur, target, mode, x_open, y_open)
        chain = first_goal(successors, componentwise)
        if chain is not None:
            return chain, ()
        if x_open and y_open:
            # with no far coordinate the pass listed every coupled candidate
            coupled = listed if not far else _coupled_at(cur, target, _positions_with((), cur.n))
            return None, itertools.chain(coupled, componentwise)
    coupled = _coupled_at(cur, target, _positions_with((), cur.n))
    return None, itertools.chain(coupled, _componentwise_successors(cur, target, mode))


# ---------------------------------------------------------------------------
# Witness serialization


def chain_to_json(chain: RcChain) -> str:
    """The chain as ``json.dumps(..., indent=2)`` writes it, byte for byte.

    ``indent`` selects the pure-Python encoder, several times slower than
    the C one, so the text is laid out here instead (see
    :func:`_chain_json`)."""
    return _chain_json(chain, {})


def _chain_json(chain: RcChain, texts: dict) -> str:
    """:func:`chain_to_json`, each number written by
    :func:`~stochord.majorization.json_text` through the memo ``texts``,
    which the other texts of one verdict may share.  Each vector *object* of
    the chain is laid out once: a move leaves the pair's other vector the
    very tuple of the pair before."""
    arrays = {}  # id of each vector object, which the chain keeps alive

    def array(v: Vector) -> str:  # a vector, its items at depth 5
        text = arrays.get(id(v))
        if text is None:
            items = ",\n          ".join([json_text(c, texts) for c in v])
            text = arrays[id(v)] = f"[\n          {items}\n        ]" if v else "[]"
        return text

    records = []
    for idx, p in enumerate(chain.pairs):
        move = "null"
        if idx:
            m = chain.moves[idx - 1]
            kind = encode_basestring_ascii(m.kind.value)
            i, j = json_text(m.i, texts), json_text(m.j, texts)
            move = f'{{\n        "kind": {kind},\n        "i": {i},\n        "j": {j}\n      }}'
        records.append(
            f'{{\n      "pair": {{\n        "x": {array(p.x)},\n        "y": {array(p.y)}\n      }},'
            f'\n      "move": {move}\n    }}'
        )
    body = ",\n    ".join(records)  # a chain has at least one pair
    mode = encode_basestring_ascii(chain.mode.value)
    return f'{{\n  "mode": {mode},\n  "chain": [\n    {body}\n  ]\n}}'


def chain_from_json(text: str) -> RcChain:
    """The chain :func:`chain_to_json` wrote; a vector :func:`json_vector`
    refuses, or a position neither an integer nor null, raises ``ValueError``."""
    data = json.loads(text)
    mode = RcMode(data["mode"])
    pairs = []
    moves = []
    for idx, rec in enumerate(data["chain"]):
        pairs.append(PairClass(json_vector(rec["pair"]["x"]), json_vector(rec["pair"]["y"])))
        if idx > 0:
            m = rec["move"]
            for v in (m["i"], m["j"]):
                if v is not None and (type(v) is bool or not isinstance(v, int)):
                    raise ValueError(f"a move position must be an integer or null, got {v!r}")
            moves.append(ElementaryMove(MoveKind(m["kind"]), m["i"], m["j"]))
    return RcChain(tuple(pairs), tuple(moves), mode)
