"""Vector majorization predicates and constructive epsilon-transfer chains.

Vectors are plain tuples of finite floats.  All comparisons use an absolute
tolerance of 1e-12 scaled by the largest absolute component involved, so
user-scale parameters compare stably without accumulating sums.  A check of
prefix sums multiplies that tolerance by the vectors' length, and the
two-coordinate check of :func:`~stochord.rc_order.verify_rc_move` by 2.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii

Vector = tuple[float, ...]

BASE_TOL = 1e-12


class MajorizationMode(Enum):
    BELOW = "below"  # prefix sums of the k largest: sum_k x <= sum_k y
    ABOVE = "above"  # prefix sums of the k smallest: sum_k x >= sum_k y
    FULL = "full"    # BELOW and ABOVE, equivalently BELOW plus equal totals


# Reading a member off its Enum class is a metaclass lookup, several times a
# global's: the checks below, run on every decision, read these instead.
_ABOVE, _FULL = MajorizationMode.ABOVE, MajorizationMode.FULL


@dataclass(frozen=True)
class TChain:
    """Chain of increasing-sorted vectors linked by single epsilon transfers.

    ``steps[s] = (i, j, eps)`` moves ``eps`` from coordinate ``i`` to
    coordinate ``j`` (``i < j``) of ``vectors[s]`` to produce
    ``vectors[s + 1]``.
    """

    vectors: tuple[Vector, ...]
    steps: tuple[tuple[int, int, float], ...]


def component_tolerance(*vectors: Vector) -> float:
    scale = max(map(abs, itertools.chain(*vectors)), default=0.0)
    return BASE_TOL * max(1.0, scale)


def as_vector(components) -> Vector:
    v = tuple(float(c) for c in components)
    if not v:
        raise ValueError("vector must have at least one component")
    if any(not math.isfinite(c) for c in v):
        raise ValueError(f"vector components must be finite, got {v}")
    return v


def json_vector(components) -> Vector:
    """:func:`as_vector` of a vector read from a JSON file, which must be an
    array of numbers: a string or a boolean in place of a number, or in place
    of the array, is a malformed file, and so is an integer past the largest
    float."""
    if type(components) is not list or any(type(c) not in (int, float) for c in components):
        raise ValueError(f"vector must be a JSON array of numbers, got {components!r}")
    try:
        return as_vector(components)
    except OverflowError as exc:  # an integer past the largest float
        raise ValueError(f"vector components must be finite: {exc}") from exc


# the encoder json.dumps(..., sort_keys=True) makes, made once
_ENCODE = json.JSONEncoder(sort_keys=True).encode


def json_text(v, texts: dict) -> str:
    """The text ``json.dumps(v, sort_keys=True)`` writes for ``v``.

    An exact float that is finite and nonzero is written once per memo
    ``texts``, which keeps its text keyed by its value.  Nothing else enters
    the memo: ``0.0`` and ``-0.0`` are equal keys with two texts, and an int
    equals the float of its value (``1 == 1.0``).  None, an exact str and an
    exact int are written as the encoder writes them, without calling it;
    anything else (a bool, an infinity, a nan, a float subclass, a
    container) by the encoder."""
    cls = type(v)
    if cls is float and v and v - v == 0.0:  # v - v is nan on inf and nan
        text = texts.get(v)
        if text is None:
            text = texts[v] = repr(v)
        return text
    if v is None:
        return "null"
    if cls is str:
        return encode_basestring_ascii(v)
    if cls is int:
        return repr(v)
    return _ENCODE(v)


def within(v: Vector, w: Vector, tol: float) -> bool:
    """Whether each component of ``v`` lies within ``tol`` of the one of
    ``w`` at its position."""
    for a, b in zip(v, w):
        if not abs(a - b) <= tol:
            return False
    return True


def _require_same_length(x: Vector, y: Vector) -> None:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")


def check_majorization(
    x: Vector, y: Vector, mode: MajorizationMode
) -> tuple[bool, int | None]:
    """Decide whether ``x`` is (weakly) majorized by ``y``.

    Returns ``(True, None)`` on success, otherwise ``(False, k)`` where ``k``
    is the first violated prefix length (1-based); ``k = 0`` flags a total-sum
    mismatch in FULL mode.  Sums are compared within ``BASE_TOL`` times the
    largest magnitude in ``x`` and ``y`` (at least 1) times the length.  A
    prefix sum past the largest float would compare as an infinity, so when
    one is not finite but every component is, every prefix sum is compared
    exactly instead.
    """
    _require_same_length(x, y)
    return check_sorted_majorization(sorted(x), sorted(y), mode)


def check_sorted_majorization(
    xs: Vector, ys: Vector, mode: MajorizationMode
) -> tuple[bool, int | None]:
    """:func:`check_majorization` of vectors of one length already sorted
    increasing.  Unless ``mode`` is ABOVE, both are read backwards, the
    largest first, with no sort: reversing a stable sort may order equal
    components otherwise than sorting decreasing, but only ``0.0`` and
    ``-0.0`` are equal and distinct, and no comparison of the check tells
    them apart."""
    n = len(xs)
    if not n:
        return True, None
    if mode is not _ABOVE:
        xs, ys = xs[::-1], ys[::-1]
    # sorted, so each vector's largest magnitude sits at one end
    tol = BASE_TOL * max(1.0, abs(xs[0]), abs(xs[-1]), abs(ys[0]), abs(ys[-1])) * n
    sums_x = list(itertools.accumulate(xs))
    sums_y = list(itertools.accumulate(ys))
    # a prefix sum of finite floats, once infinite, stays so: the totals tell
    # (an infinite component keeps the float comparisons, which it decides)
    if not (math.isfinite(sums_x[-1]) and math.isfinite(sums_y[-1])) and all(
        map(math.isfinite, itertools.chain(xs, ys))
    ):
        *ints, tol = _integers([*xs, *ys, tol])
        sums_x = list(itertools.accumulate(ints[:n]))
        sums_y = list(itertools.accumulate(ints[n:]))
    if mode is _ABOVE:
        for k in range(n):
            if sums_x[k] < sums_y[k] - tol:
                return False, k + 1
        return True, None
    for k in range(n):
        if sums_x[k] > sums_y[k] + tol:
            return False, k + 1
    if mode is _FULL and abs(sums_x[-1] - sums_y[-1]) > tol:
        return False, 0
    return True, None


def _integers(values) -> list[int]:
    """The floats ``values`` times one power of two, each then an integer, so
    that sums and products of them keep their exact signs.  Raises
    ``OverflowError`` on an infinity and ``ValueError`` on a nan."""
    ratios = [v.as_integer_ratio() for v in values]
    d = max(den for _, den in ratios)
    return [num * (d // den) for num, den in ratios]


def t_transform_chain(x: Vector, y: Vector) -> TChain:
    """Constructive chain ``x = phi_1 < ... < phi_k = y`` of at most ``n``
    increasing-sorted vectors, consecutive ones linked by one transfer from a
    lower to a higher coordinate.

    Requires ``x`` and ``y`` sorted increasing and ``x`` majorized by ``y``.
    ``vectors[0]`` is always ``x``; when a step is taken the last vector is
    ``y`` exactly, and with no step the chain is ``(x,)``, however close to
    ``y`` within tolerance.
    """
    _require_same_length(x, y)
    n = len(x)
    tol = component_tolerance(x, y)
    for k in range(1, n):  # each vector sorted increasing within tol
        if not (x[k] >= x[k - 1] - tol and y[k] >= y[k - 1] - tol):
            raise ValueError("t_transform_chain requires increasing-sorted inputs")
    ok, k = check_majorization(x, y, MajorizationMode.FULL)
    if not ok:
        raise ValueError(f"x is not majorized by y (violated prefix {k})")
    steps = _transfers(x, y, tol)
    return TChain(
        vectors=(tuple(x), *[v for *_, v in steps]),
        steps=tuple((i, j, eps) for i, j, eps, _ in steps),
    )


def _sorted_transfers(x: Vector, y: Vector) -> list[tuple[int, int, float, Vector]]:
    """The steps of :func:`t_transform_chain` of ``x`` and ``y`` of one
    length, each sorted increasing exactly, as a caller that sorted them
    itself holds them, for the caller to build its own chain from.  It
    checks neither length nor order, and takes the tolerance and the FULL
    majorization check from the vectors' ends, which hold their largest
    magnitudes, without sorting them again; the steps and the errors are
    :func:`t_transform_chain`'s (see :func:`_transfers`)."""
    tol = BASE_TOL * max(1.0, abs(x[0]), abs(x[-1]), abs(y[0]), abs(y[-1])) if x else BASE_TOL
    ok, k = check_sorted_majorization(x, y, _FULL)
    if not ok:
        raise ValueError(f"x is not majorized by y (violated prefix {k})")
    return _transfers(x, y, tol)


def _transfers(x: Vector, y: Vector, tol: float) -> list[tuple[int, int, float, Vector]]:
    """The transfer steps from sorted ``x`` to sorted ``y``, which majorizes
    it, under the tolerance ``tol`` of both: ``(i, j, eps, v)`` moves ``eps``
    from coordinate ``i`` to coordinate ``j > i`` and leaves the vector
    ``v``.  The last ``v`` is snapped onto ``y``; a chain that does not
    converge raises ``RuntimeError``."""
    n = len(x)
    current = list(x)
    steps: list[tuple[int, int, float, Vector]] = []
    for _ in range(n):
        # The first surplus donates to the end of the first deficit run after
        # it (Marshall, Olkin & Arnold, Lemma 2.B.1): every partial sum stays
        # at least the target's and both neighbours stay ordered, so each
        # vector is sorted and majorized by y; each transfer pins a coordinate.
        i = 0
        while i < n and not current[i] > y[i] + tol:
            i += 1
        j = i + 1
        while j < n and not current[j] < y[j] - tol:
            j += 1
        if j >= n:
            break
        while j + 1 < n and current[j + 1] < y[j + 1] - tol:
            j += 1
        eps = min(current[i] - y[i], y[j] - current[j])
        current[i] -= eps
        current[j] += eps
        steps.append((i, j, eps, tuple(current)))
    residual = max(map(abs, map(operator.sub, current, y)))
    if residual > tol * len(x):
        raise RuntimeError(f"transfer chain did not converge, residual {residual}")
    if steps:  # snap the endpoint so tolerance slack does not leak into callers
        i, j, eps, _ = steps[-1]
        steps[-1] = i, j, eps, y
    return steps
