"""Vector pairs modulo a common permutation, and the arrangement order.

A pair ``(x, y)`` is considered up to simultaneous permutation of both
vectors.  The arrangement order compares pairs with identical component
multisets: a pair decreases when a larger ``y`` component placed before a
smaller one is swapped into order while ``x`` stays put.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from stochord.majorization import Vector, as_vector, component_tolerance
from stochord.verdicts import OrderVerdict, Status

DEFAULT_NODE_BUDGET = 100_000


@dataclass(frozen=True)
class PairClass:
    x: Vector
    y: Vector

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError(
                f"pair vectors must have equal length, got {len(self.x)} and {len(self.y)}"
            )

    @property
    def n(self) -> int:
        return len(self.x)


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
    """Representative with coordinate pairs sorted lexicographically by (x, y).

    Sorts the pairs themselves, which makes the comparisons of an index sort
    keyed by them; both sorts are stable, so pairs that compare equal (such
    as ``(0.0, 1.0)`` and ``(-0.0, 1.0)``) keep their order either way."""
    x, y = tuple(zip(*sorted(zip(p.x, p.y)))) or ((), ())
    return PairClass(x, y)


def check_pair_equal_a(p1: PairClass, p2: PairClass) -> bool:
    if p1.n != p2.n:
        raise ValueError(f"length mismatch: {p1.n} vs {p2.n}")
    tol = component_tolerance(p1.x, p1.y, p2.x, p2.y)
    c1, c2 = canonical_form(p1), canonical_form(p2)
    return all(
        abs(a - b) <= tol for a, b in zip(c1.x + c1.y, c2.x + c2.y)
    )


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


def _multisets_match(a: Vector, b: Vector, tol: float) -> bool:
    return all(abs(u - v) <= tol for u, v in zip(sorted(a), sorted(b)))


class _ArrangementSpace:
    """BFS helper over y-arrangements with x held sorted increasing.

    Arrangements of y inside a tie block of x are identified, matching the
    diagonal permutation action.
    """

    def __init__(self, p1: PairClass, p2: PairClass):
        self.tol = component_tolerance(p1.x, p1.y, p2.x, p2.y)
        c1, c2 = canonical_form(p1), canonical_form(p2)
        self.x = c1.x
        self.start = c1.y
        self.target = c2.y
        self.x_id_at = tuple(map(_value_ids(self.x, self.tol).__getitem__, self.x))
        self.y_ids = _value_ids(self.start + self.target, self.tol)

    def key(self, y: Vector) -> tuple:
        """The sorted (x id, y id) pairs of ``y`` against the sorted x.

        Two keys are equal exactly when the arrangements agree up to
        reordering inside tie blocks of x."""
        return tuple(sorted(zip(self.x_id_at, map(self.y_ids.__getitem__, y))))

    def legal_swaps(self, y: Vector):
        """The positions ``(i, j)`` of every legal swap, ``i < j``."""
        n = len(y)
        for i in range(n):
            for j in range(i + 1, n):
                if y[i] > y[j] + self.tol:
                    yield i, j


def check_arrangement_leq(
    p1: PairClass, p2: PairClass, budget: int = DEFAULT_NODE_BUDGET
) -> OrderVerdict:
    """Decide ``p1 <=_a p2`` by breadth-first search over y-arrangements.

    On success the witness is the list of swaps carrying the canonical
    representative of ``p1`` to an arrangement equal (up to common
    permutation) to ``p2``.
    """
    if p1.n != p2.n:
        raise ValueError(f"length mismatch: {p1.n} vs {p2.n}")
    tol = component_tolerance(p1.x, p1.y, p2.x, p2.y)
    if not _multisets_match(p1.x, p2.x, tol) or not _multisets_match(p1.y, p2.y, tol):
        raise ValueError("pairs are comparable only with matching component multisets")

    space = _ArrangementSpace(p1, p2)
    key = space.key
    goal = key(space.target)
    start = space.start
    if key(start) == goal:
        return OrderVerdict(Status.HOLDS, witness=[])

    # a state's link is (i, j, parent's link), None at the start: the swaps
    # become SwapMoves only for the witness
    seen = {key(start)}
    queue = deque([(start, None)])
    expanded = 0
    while queue:
        y, link = queue.popleft()
        expanded += 1
        if expanded > budget:
            return OrderVerdict(Status.UNKNOWN, detail={"reason": "node budget exhausted"})
        for i, j in space.legal_swaps(y):
            ny = list(y)
            ny[i], ny[j] = ny[j], ny[i]
            ny = tuple(ny)
            k = key(ny)
            if k in seen:
                continue
            if k == goal:
                return OrderVerdict(Status.HOLDS, witness=_swaps((i, j, link)))
            seen.add(k)
            queue.append((ny, (i, j, link)))
    return OrderVerdict(
        Status.REFUTED,
        violation={"reason": "target arrangement unreachable by legal swaps"},
    )


def _swaps(link) -> list[SwapMove]:
    """The swaps from the start to the state whose link is ``link``."""
    moves = []
    while link is not None:
        i, j, link = link
        moves.append(SwapMove(i, j))
    moves.reverse()
    return moves
