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
    """Representative with coordinate pairs sorted lexicographically by (x, y)."""
    order = sorted(range(p.n), key=lambda i: (p.x[i], p.y[i]))
    return PairClass(tuple(p.x[i] for i in order), tuple(p.y[i] for i in order))


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
        self.x_ids = _value_ids(self.x, self.tol)
        self.y_ids = _value_ids(self.start + self.target, self.tol)

    def key(self, y: Vector) -> tuple:
        blocks: list[list[int]] = []
        prev = None
        for xi, yi in zip(self.x, y):
            xid = self.x_ids[xi]
            if xid != prev:
                blocks.append([])
                prev = xid
            blocks[-1].append(self.y_ids[yi])
        return tuple(tuple(sorted(b)) for b in blocks)

    def legal_swaps(self, y: Vector):
        n = len(y)
        for i in range(n):
            for j in range(i + 1, n):
                if y[i] > y[j] + self.tol:
                    yield SwapMove(i, j)


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
    goal = space.key(space.target)
    start = space.start
    if space.key(start) == goal:
        return OrderVerdict(Status.HOLDS, witness=[])

    seen = {space.key(start)}
    queue = deque([(start, [])])
    expanded = 0
    while queue:
        y, moves = queue.popleft()
        expanded += 1
        if expanded > budget:
            return OrderVerdict(Status.UNKNOWN, detail={"reason": "node budget exhausted"})
        for mv in space.legal_swaps(y):
            ny = list(y)
            ny[mv.i], ny[mv.j] = ny[mv.j], ny[mv.i]
            ny = tuple(ny)
            k = space.key(ny)
            if k in seen:
                continue
            nmoves = moves + [mv]
            if k == goal:
                return OrderVerdict(Status.HOLDS, witness=nmoves)
            seen.add(k)
            queue.append((ny, nmoves))
    return OrderVerdict(
        Status.REFUTED,
        violation={"reason": "target arrangement unreachable by legal swaps"},
    )

