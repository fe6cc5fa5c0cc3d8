"""Vector pairs modulo a common permutation, and the arrangement order.

A pair ``(x, y)`` is considered up to simultaneous permutation of both
vectors.  The arrangement order compares pairs with identical component
multisets: a pair rises when a larger ``y`` component placed before a
smaller one is swapped into order while ``x`` stays put.
"""
from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field

from stochord.majorization import BASE_TOL, Vector, as_vector, within
from stochord.verdicts import OrderVerdict, Status


@dataclass(frozen=True, slots=True)
class PairClass:
    """A pair of vectors of one length, with the sorts that the checks on
    it read, made when the pair is made and set past the frozen
    ``__setattr__``: ``xs`` and ``ys``, its vectors sorted increasing, as
    tuples; ``scale``, its largest magnitude (0 for an empty pair), read
    off the ends of the sorted vectors; and ``n``, its length.  Nearly
    every pair the program builds has them read, by
    :func:`~stochord.rc_order.verify_rc_move` or the search, so they are
    made eagerly.  ``==``, ``hash`` and ``repr`` read ``x`` and ``y`` only.
    Slots, not an instance dict, hold them, so a pair stays small.

    ``pairs``, its coordinate pairs sorted by (x, y), the order of its
    canonical form, is sorted afresh on each read: kept, it would take
    several times the pair's own memory for as long as the pair lives.
    Both sorts are stable, so pairs that compare equal (such as
    ``(0.0, 1.0)`` and ``(-0.0, 1.0)``) keep their order either way."""

    x: Vector
    y: Vector
    xs: Vector = field(init=False, repr=False, compare=False)
    ys: Vector = field(init=False, repr=False, compare=False)
    scale: float = field(init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError(
                f"pair vectors must have equal length, got {len(self.x)} and {len(self.y)}"
            )
        xs, ys = tuple(sorted(self.x)), tuple(sorted(self.y))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        scale = max(abs(xs[0]), abs(xs[-1]), abs(ys[0]), abs(ys[-1])) if xs else 0.0
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "n", len(xs))

    @property
    def pairs(self) -> tuple[tuple[float, float], ...]:
        return tuple(sorted(zip(self.x, self.y)))


@dataclass(frozen=True)
class SwapMove:
    i: int
    j: int

    def __post_init__(self):
        if not 0 <= self.i < self.j:
            raise ValueError(f"swap positions must satisfy 0 <= i < j, got {self}")


def pair(x, y) -> PairClass:
    return PairClass(as_vector(x), as_vector(y))


def canonical_form(p: PairClass) -> PairClass:
    """Representative with coordinate pairs sorted lexicographically by (x, y)
    (see :class:`PairClass`)."""
    return PairClass(*_unzip(p.pairs))


def _unzip(pairs) -> tuple[Vector, Vector]:
    """The x and y vectors of a list of coordinate pairs."""
    return tuple(zip(*pairs)) or ((), ())


def _pairs_within(c1, c2, tol: float) -> bool:
    """Whether each coordinate pair of ``c1`` lies within ``tol`` of the one
    of ``c2`` at its position, in both components."""
    for (a, b), (u, v) in zip(c1, c2):
        if not (abs(a - u) <= tol and abs(b - v) <= tol):
            return False
    return True


def check_pair_equal_a(p1: PairClass, p2: PairClass) -> bool:
    """Whether the canonical forms of ``p1`` and ``p2`` agree component by
    component within :func:`component_tolerance` of all four vectors.

    Sorting is 1-Lipschitz in the sup norm, and rounding a difference is
    monotone, so pairs that agree have sorted vectors that agree too: the
    sorted vectors, which the pairs keep, are compared first."""
    if p1.n != p2.n:
        raise ValueError(f"length mismatch: {p1.n} vs {p2.n}")
    tol = _tolerance(p1, p2)
    return _multisets_within(p1, p2, tol) and _pairs_within(p1.pairs, p2.pairs, tol)


def _value_ids(values: Vector, tol: float) -> dict[float, int]:
    """Cluster values within tolerance and assign each a stable integer id."""
    ids: dict[float, int] = {}
    current = None
    next_id = -1
    for v in sorted(values):
        if current is None or v - current > tol:
            next_id += 1
        current = v
        ids[v] = next_id
    return ids


def _tolerance(p1: PairClass, p2: PairClass) -> float:
    """:func:`component_tolerance` of the four vectors of two pairs, read
    off their scales: the tolerance of every check that takes whole pairs."""
    return BASE_TOL * max(1.0, p1.scale, p2.scale)


def _multisets_within(p1: PairClass, p2: PairClass, tol: float) -> bool:
    """Whether the sorted x and the sorted y of two pairs agree within
    ``tol``, component by component."""
    return within(p1.xs, p2.xs, tol) and within(p1.ys, p2.ys, tol)


def _rank_count_violation(y: list, target: list, blocks: tuple, m: int):
    """The first ``(k, t)``, or None, at which ``target`` has more ids
    ``>= t`` than ``y`` at positions ``0..k``: ``k`` ends a tie block of the
    x ids ``blocks``, and ``t`` is the largest failing id (below ``m``)."""
    diff = [0] * m  # over the prefix: y's count of each id less target's
    for k, (b, u, v) in enumerate(zip(blocks, y, target)):
        diff[u] += 1
        diff[v] -= 1
        if k + 1 < len(y) and blocks[k + 1] == b:
            continue
        above = 0
        for t in range(m - 1, -1, -1):
            above += diff[t]
            if above < 0:
                return k, t
    return None


def check_arrangement_leq(p1: PairClass, p2: PairClass) -> OrderVerdict:
    """Decide ``p1 <=_a p2`` exactly: with x sorted increasing and y values
    within tolerance given one id (:func:`_value_ids`), it holds iff
    ``#{i <= k : y2_i >= t} <= #{i <= k : y1_i >= t}`` at every ``k`` ending
    a tie block of x and every y id ``t``; a legal swap moves a larger y
    later, never raising such a count (the tableau criterion for Bruhat order;
    Björner & Brenti, *Combinatorics of Coxeter Groups*, 2005, ch. 2).  A
    refutation names the first failing ``k`` and, as ``t``, the failing id's
    smallest y value.  The witness swaps ``p1``'s canonical form onto ``p2``,
    each step taking the legal swap across tie blocks that keeps the
    criterion and leaves the most (x id, y id) pairs in common with ``p2``,
    the first ``(i, j)`` on ties; it is legal, not always a shortest one.
    """
    if p1.n != p2.n:
        raise ValueError(f"length mismatch: {p1.n} vs {p2.n}")
    tol = _tolerance(p1, p2)
    if not _multisets_within(p1, p2, tol):
        raise ValueError("pairs are comparable only with matching component multisets")

    c1x, c1y = _unzip(p1.pairs)
    c2y = _unzip(p2.pairs)[1]
    blocks = tuple(map(_value_ids(c1x, tol).__getitem__, c1x))
    y_ids = _value_ids(c1y + c2y, tol)
    m = max(y_ids.values()) + 1
    y = list(map(y_ids.__getitem__, c1y))
    target = list(map(y_ids.__getitem__, c2y))
    found = _rank_count_violation(y, target, blocks, m)
    if found is not None:
        k, t = found
        t = min(v for v, i in y_ids.items() if i == t)
        violation = {"reason": "rank count fails", "k": k, "t": t}
        return OrderVerdict(Status.REFUTED, violation=violation)

    # surplus[b, t]: how many more (x id b, y id t) pairs y holds than target
    surplus = collections.defaultdict(int)
    for b, u, v in zip(blocks, y, target):
        surplus[b, u] += 1
        surplus[b, v] -= 1

    # the surplus a swap adds: it trades (bi, yi) and (bj, yj) for (bi, yj)
    # and (bj, yi), four distinct pairs, as bi != bj and yi != yj
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
