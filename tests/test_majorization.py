import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from stochord.majorization import (
    BASE_TOL,
    TChain,
    MajorizationMode,
    check_majorization,
    check_sorted_majorization,
    component_tolerance,
    as_vector,
    t_transform_chain,
    _sorted_transfers,
)

FULL = MajorizationMode.FULL
BELOW = MajorizationMode.BELOW
ABOVE = MajorizationMode.ABOVE


def is_sorted(v, direction="inc", tol=None) -> bool:
    """Oracle: True iff ``v`` is sorted increasing (``"inc"``) or
    decreasing, each neighbour within ``tol`` (by default
    ``component_tolerance(v)``) of the order."""
    if tol is None:
        tol = component_tolerance(v)
    pairs = zip(v, v[1:])
    if direction == "inc":
        return all(b >= a - tol for a, b in pairs)
    return all(b <= a + tol for a, b in pairs)


def _steps_chain(x, steps):
    """The chain of ``_sorted_transfers``' ``steps`` from ``x``, as
    ``t_transform_chain`` lays it out."""
    return TChain(
        vectors=(tuple(x), *[v for *_, v in steps]),
        steps=tuple((i, j, eps) for i, j, eps, _ in steps),
    )


def verify_t_step(a, b) -> bool:
    """Oracle: True iff ``b`` arises from ``a`` by one transfer of
    ``eps >= 0`` from a coordinate ``i`` to a coordinate ``j > i``."""
    assert len(a) == len(b)
    tol = component_tolerance(a, b)
    diffs = [k for k, (u, v) in enumerate(zip(a, b)) if abs(u - v) > tol]
    if not diffs:
        return True  # degenerate eps = 0 transfer
    if len(diffs) != 2:
        return False
    i, j = diffs
    eps_i = a[i] - b[i]
    eps_j = b[j] - a[j]
    return eps_i > 0 and abs(eps_i - eps_j) <= tol


def _reference_check_majorization(x, y, mode):
    """``check_majorization`` as it was before its sums were listed once
    and compared exactly past the largest float: the oracle of the rewritten
    one wherever no prefix sum of finite components passes it."""
    ys = sorted(y, reverse=mode is not ABOVE)
    bound_scale = max(abs(ys[0]), abs(ys[-1])) if ys else 0.0
    sums = tuple(itertools.accumulate(ys))
    if len(x) != len(sums):
        raise ValueError(f"length mismatch: {len(x)} vs {len(sums)}")
    scale = max(max(x), -min(x), bound_scale) if x else bound_scale
    tol = BASE_TOL * max(1.0, scale) * len(x)
    if mode is ABOVE:
        for k, (cx, cy) in enumerate(zip(itertools.accumulate(sorted(x)), sums), start=1):
            if cx < cy - tol:
                return False, k
        return True, None
    cx = cy = 0.0
    for k, (cx, cy) in enumerate(zip(itertools.accumulate(sorted(x, reverse=True)), sums), start=1):
        if cx > cy + tol:
            return False, k
    if mode is FULL and abs(cx - cy) > tol:
        return False, 0
    return True, None


def _fraction_check_sorted_majorization(xs, ys, mode):
    """``check_sorted_majorization`` as it was when a sum of finite
    components past the largest float sent every prefix sum, and the
    tolerance, to ``Fraction``s of the floats: the oracle of the integers
    over one power of two that replaced them."""
    if mode is not ABOVE:
        xs, ys = xs[::-1], ys[::-1]
    n = len(xs)
    if not n:
        return True, None
    tol = BASE_TOL * max(1.0, abs(xs[0]), abs(xs[-1]), abs(ys[0]), abs(ys[-1])) * n
    sums_x, sums_y = list(itertools.accumulate(xs)), list(itertools.accumulate(ys))
    if not (math.isfinite(sums_x[-1]) and math.isfinite(sums_y[-1])) and all(
        map(math.isfinite, itertools.chain(xs, ys))
    ):
        sums_x = list(itertools.accumulate(map(Fraction, xs)))
        sums_y = list(itertools.accumulate(map(Fraction, ys)))
        tol = Fraction(tol)
    if mode is ABOVE:
        for k in range(n):
            if sums_x[k] < sums_y[k] - tol:
                return False, k + 1
        return True, None
    for k in range(n):
        if sums_x[k] > sums_y[k] + tol:
            return False, k + 1
    if mode is FULL and abs(sums_x[-1] - sums_y[-1]) > tol:
        return False, 0
    return True, None


def _reference_t_transform_chain(x, y):
    """``t_transform_chain`` as it was before its scans became plain loops:
    the oracle of the rewritten one."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    tol = component_tolerance(x, y)
    if not is_sorted(x, "inc", tol) or not is_sorted(y, "inc", tol):
        raise ValueError("t_transform_chain requires increasing-sorted inputs")
    ok, k = _reference_check_majorization(x, y, FULL)
    if not ok:
        raise ValueError(f"x is not majorized by y (violated prefix {k})")
    current = list(x)
    vectors = [tuple(current)]
    steps = []
    n = len(x)
    for _ in range(n):
        i = next((m for m in range(n) if current[m] > y[m] + tol), n)
        j = next((m for m in range(i + 1, n) if current[m] < y[m] - tol), n)
        if j == n:
            break
        while j + 1 < n and current[j + 1] < y[j + 1] - tol:
            j += 1
        eps = min(current[i] - y[i], y[j] - current[j])
        current[i] -= eps
        current[j] += eps
        vectors.append(tuple(current))
        steps.append((i, j, eps))
    residual = max(abs(c - t) for c, t in zip(current, y))
    if residual > tol * len(x):
        raise RuntimeError(f"transfer chain did not converge, residual {residual}")
    if steps:
        vectors[-1] = y
    return TChain(vectors=tuple(vectors), steps=tuple(steps))


# multiples of BASE_TOL times the largest magnitude, on both sides of 1, 2 and 3
_EDGE_STEPS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, -0.5, -1.0, -1.5, -2.0, -2.5, -3.0)


@st.composite
def _majorization_pairs(draw, chains=False):
    """``(x, y)`` of one length in 0..6, or of two lengths: y from a pool
    with ties, ``-0.0`` and a far value, sorted increasing or not; x equal
    to y, or a permutation of y with Robin Hood transfers (the sorted ones
    kept sorted), or a fresh draw.  Then up to two edge moves: a component of
    either vector moved by 0.5 to 3 times ``BASE_TOL`` times the largest
    magnitude, alone or as a transfer to another, around the tolerance
    edges.  With ``chains``, mostly sorted pairs with transfers, the inputs
    of a transfer chain.  Every prefix sum of finite components stays
    finite; now and then one component is infinite."""
    n = draw(st.integers(0, 6))
    scale = draw(st.sampled_from((1.0, 1e-3, 1e4, 2.0**1000)))
    comp = st.one_of(
        st.sampled_from((0.0, -0.0, 1.0, 2.0, 0.5, 1e4)), st.floats(-3.0, 3.0, allow_nan=False)
    )
    y = [draw(comp) * scale for _ in range(n)]
    if draw(st.integers(0, 7)) < (7 if chains else 4):
        y.sort()
    hows = ("transfers",) * (6 if chains else 2) + ("equal",) * (3 if chains else 1)
    how = draw(st.sampled_from(hows + ("fresh", "longer")))
    if how == "equal":
        x = list(y)
    elif how == "fresh":
        x = [draw(comp) * scale for _ in range(n)]
    elif how == "longer":
        x = y + [1.0]
    else:
        x = list(y)
        for _ in range(draw(st.integers(0, n))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            lo, hi = (i, j) if x[i] <= x[j] else (j, i)
            eps = draw(st.floats(0.0, 0.5, allow_nan=False)) * (x[hi] - x[lo])
            x[lo], x[hi] = x[lo] + eps, x[hi] - eps
        if y == sorted(y):
            x.sort()
    if n:
        big = max(1.0, *map(abs, x + y))
        for _ in range(draw(st.sampled_from((0, 1, 1, 2)))):
            vec = draw(st.sampled_from((x, y)))
            step = draw(st.sampled_from(_EDGE_STEPS)) * BASE_TOL * big
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            vec[i] += step
            if draw(st.booleans()):
                vec[j] -= step
    for vec in (x, y):
        for order in (sorted(vec), sorted(vec, reverse=True)):
            assume(all(map(math.isfinite, itertools.accumulate(order))))
    if n and draw(st.integers(0, 9)) == 0:  # an infinite component, as a search candidate may hold
        vec = draw(st.sampled_from((x, y)))
        vec[draw(st.integers(0, n - 1))] = draw(st.sampled_from((math.inf, -math.inf)))
    return tuple(x), tuple(y)


@st.composite
def _overflowing_pairs(draw):
    """Increasing-sorted ``(xs, ys)`` of one length in 2..6 whose components
    lie near 2^1021 to 2^1023, one in eight of the sign opposite the
    others', so that a total passes +1.8e308 or -1.8e308: y drawn, x equal
    to it, a permutation of it with transfers, or fresh, then up to two
    edge moves of 0.5 to 3 times the check's tolerance, alone or as a
    transfer, as in :func:`_majorization_pairs`."""
    n = draw(st.integers(2, 6))
    sign = draw(st.sampled_from((1.0, -1.0)))
    mantissa, exponent = st.floats(1.0, 2.0, exclude_max=True), st.sampled_from((1021, 1022, 1023))

    def comp():
        c = draw(mantissa) * 2.0 ** draw(exponent)
        return -sign * c if draw(st.integers(0, 7)) == 0 else sign * c

    y = [comp() for _ in range(n)]
    how = draw(st.sampled_from(("equal", "transfers", "transfers", "fresh")))
    x = [comp() for _ in range(n)] if how == "fresh" else list(draw(st.permutations(y)))
    if how == "transfers":
        for _ in range(draw(st.integers(0, n))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            lo, hi = (i, j) if x[i] <= x[j] else (j, i)
            # halves first: two components of opposite signs may lie
            # further apart than the largest float
            eps = draw(st.floats(0.0, 1.0)) * (x[hi] / 2 - x[lo] / 2)
            x[lo], x[hi] = x[lo] + eps, x[hi] - eps
    tol = BASE_TOL * max(map(abs, x + y)) * n
    for _ in range(draw(st.sampled_from((0, 1, 1, 2)))):
        vec = draw(st.sampled_from((x, y)))
        step = draw(st.sampled_from(_EDGE_STEPS)) * tol
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        vec[i] += step
        if draw(st.booleans()):
            vec[j] -= step
    assume(all(map(math.isfinite, x + y)))
    assume(not (math.isfinite(sum(x)) and math.isfinite(sum(y))))
    return sorted(x), sorted(y)


class TestCheckMajorization:
    def test_identical_vectors_majorize_in_all_modes(self):
        v = (1.5, 0.25, 3.0)
        for mode in MajorizationMode:
            assert check_majorization(v, v, mode) == (True, None)

    def test_prefix_sums_past_the_floats_compare_exactly(self):
        """A prefix sum past the largest float compares exactly, not as an
        infinity: two totals both past it differ by r/2 here, and an
        infinity compared with another, or subtracted from it, hid that."""
        r = 2.0**1021
        for mode in (FULL, BELOW):
            assert check_majorization((5 * r, 4.5 * r), (6 * r, 3 * r), mode) == (False, 2)
            assert check_majorization((5 * r, 4 * r), (6 * r, 3 * r), mode) == (True, None)
        assert check_majorization((-5 * r, -4.5 * r), (-6 * r, -3 * r), ABOVE) == (False, 2)
        assert check_majorization((r, 5 * r, 4 * r), (r, 6 * r, 3.5 * r), ABOVE) == (False, 3)
        assert check_majorization((5 * r, 4.5 * r), (5.5 * r, 4 * r), FULL) == (True, None)

    def test_infinite_components_keep_the_float_comparisons(self):
        """An infinite component makes its sums infinite without overflow;
        the check compares floats, as before, instead of raising."""
        inf, r = math.inf, 2.0**1021
        for x, y in (
            ((inf, 5 * r), (6 * r, 3 * r)),
            ((5 * r, 4.5 * r), (inf, -inf)),
            ((-inf, 1.0), (0.0, 1.0)),
        ):
            for mode in MajorizationMode:
                assert check_majorization(x, y, mode) == _reference_check_majorization(x, y, mode)

    def test_classic_full_example(self):
        assert check_majorization((1, 2, 3), (0, 2, 4), FULL) == (True, None)
        assert check_majorization((0, 2, 4), (1, 2, 3), FULL) == (False, 1)

    def test_mean_vector_is_minimum(self):
        assert check_majorization((2, 2, 2), (0, 3, 3), FULL) == (True, None)
        assert check_majorization((2, 2, 2), (0, 0, 6), FULL) == (True, None)

    def test_full_requires_equal_totals(self):
        ok, k = check_majorization((1, 1), (1, 2), FULL)
        assert not ok and k == 0

    def test_below_allows_smaller_total(self):
        assert check_majorization((1, 1), (1, 2), BELOW) == (True, None)
        assert check_majorization((1, 2), (1, 1), BELOW) == (False, 1)

    def test_above_allows_larger_total(self):
        assert check_majorization((1, 2), (1, 1), ABOVE) == (True, None)
        assert check_majorization((1, 1), (1, 2), ABOVE) == (False, 2)

    def test_violated_prefix_is_first_failing_one(self):
        # sorted dec: x = (5,1,0), y = (4,2,0); prefix 1: 5 > 4
        assert check_majorization((0, 1, 5), (0, 2, 4), FULL) == (False, 1)

    def test_permutation_invariance(self):
        assert check_majorization((3, 1, 2), (4, 0, 2), FULL) == (True, None)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            check_majorization((1, 2), (1, 2, 3), FULL)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_permuted_vector_gets_the_same_result(self, data):
        """The check reads only the multiset of the checked vector, its
        tolerance included: a chain search skips it for a swap of a vector
        that passed.  The checked vector is often a nudged copy of the bound's,
        so both results occur, at tolerance edges too, and one far component
        can set the tolerance."""
        n = data.draw(st.integers(1, 6))
        mode = data.draw(st.sampled_from(MajorizationMode))
        scale = data.draw(st.sampled_from((1.0, 1e-3, 1e4)))
        comp = st.one_of(st.floats(-3.0, 3.0), st.sampled_from((0.0, -0.0, 1.0)))
        y = tuple(data.draw(comp) * scale for _ in range(n))
        nudge = st.sampled_from((0.0, 0.0, 1e-13, -1e-13, 2e-12, -2e-12, 1e-9, 0.5))
        if data.draw(st.booleans()):
            x = [c + data.draw(nudge) * scale for c in data.draw(st.permutations(y))]
        else:
            x = [data.draw(comp) * scale for _ in range(n)]
        if data.draw(st.booleans()):
            x[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from((-1e4, 1e4))) * scale
        x = tuple(x)
        permuted = tuple(data.draw(st.permutations(x)))
        assert check_majorization(permuted, y, mode) == check_majorization(x, y, mode)

    @given(
        st.lists(st.integers(0, 9), min_size=2, max_size=5),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_robin_hood_transfer_is_majorized(self, comps, data):
        """A transfer from a richer to a poorer coordinate lowers the vector."""
        y = tuple(float(c) for c in comps)
        hi = max(range(len(y)), key=lambda k: y[k])
        lo = min(range(len(y)), key=lambda k: y[k])
        if hi == lo:
            return
        eps = data.draw(st.floats(0, (y[hi] - y[lo]) / 2, allow_nan=False))
        x = list(y)
        x[hi] -= eps
        x[lo] += eps
        assert check_majorization(tuple(x), y, FULL)[0]

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_sorted_self_comparisons(self, comps):
        v = as_vector(comps)
        assert check_majorization(v, tuple(sorted(v, reverse=True)), FULL)[0]
        assert is_sorted(tuple(sorted(v)), "inc")
        assert is_sorted(tuple(sorted(v, reverse=True)), "dec")


    @given(_majorization_pairs(), st.sampled_from(MajorizationMode))
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_the_reference(self, xy, mode):
        """Where no prefix sum of finite components passes the largest
        float, the rewritten check gives the reference's answer, violated
        prefix included, infinite components too."""
        x, y = xy
        try:
            want = _reference_check_majorization(x, y, mode)
        except ValueError:
            with pytest.raises(ValueError):
                check_majorization(x, y, mode)
            return
        event(f"{mode.value}: {want[0]}")
        assert check_majorization(x, y, mode) == want

    @given(_overflowing_pairs())
    @settings(max_examples=600, deadline=None)
    def test_sums_past_the_floats_agree_with_the_fraction_reference(self, xy):
        """Where a total passes the largest float, of either sign, the check
        compares its sums exactly and gives the answer of the reference that
        compares them as ``Fraction``s, violated prefix included, in every
        mode and on each side of the tolerance."""
        xs, ys = xy
        for mode in MajorizationMode:
            want = _fraction_check_sorted_majorization(xs, ys, mode)
            event(f"{mode.value}: {want[0]}")
            assert check_sorted_majorization(xs, ys, mode) == want


class TestVerifyTStep:
    def test_zero_transfer(self):
        assert verify_t_step((1, 2), (1, 2))

    def test_single_transfer(self):
        assert verify_t_step((1, 2, 3), (0, 2, 4))

    def test_wrong_direction_rejected(self):
        # eps negative: coordinate i gained instead of donating
        assert not verify_t_step((0, 2, 4), (1, 2, 3))

    def test_unbalanced_change_rejected(self):
        assert not verify_t_step((1, 2, 3), (0, 2, 5))

    def test_three_coordinate_change_rejected(self):
        assert not verify_t_step((1.0, 2.0, 3.0), (0.0, 2.5, 3.5))


class TestTTransformChain:
    def test_single_step_example(self):
        chain = t_transform_chain((1.0, 2.0, 3.0), (0.0, 2.0, 4.0))
        assert chain.vectors[0] == (1.0, 2.0, 3.0)
        assert chain.vectors[-1] == (0.0, 2.0, 4.0)
        assert chain.steps == ((0, 2, 1.0),)

    def test_mean_to_extreme(self):
        chain = t_transform_chain((2.0, 2.0, 2.0), (0.0, 3.0, 3.0))
        assert chain.vectors[-1] == (0.0, 3.0, 3.0)
        for a, b in zip(chain.vectors, chain.vectors[1:]):
            assert verify_t_step(a, b)
            assert is_sorted(b, "inc")

    def test_chain_length_bound(self):
        chain = t_transform_chain((1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 0.0, 4.0))
        assert len(chain.steps) <= 3

    def test_first_surplus_feeds_its_nearest_deficit_run(self):
        # pairing the first surplus with the last deficit gave the steps
        # (0, 3, 1) and (2, 1, 1), the second one running backwards
        chain = t_transform_chain((1.0, 1.0, 4.0, 4.0), (0.0, 2.0, 3.0, 5.0))
        assert chain.steps == ((0, 1, 1.0), (2, 3, 1.0))
        assert chain.vectors == ((1.0, 1.0, 4.0, 4.0), (0.0, 2.0, 4.0, 4.0), (0.0, 2.0, 3.0, 5.0))

    def test_zero_step_chain_starts_at_x(self):
        # x and y differ within tolerance: no step, and the one vector is x,
        # not the target
        x, y = (0.5, 0.5, 0.500000000003), (0.5, 0.5, 0.500000000001)
        chain = t_transform_chain(x, y)
        assert chain.vectors == (x,)
        assert chain.steps == ()

    def test_a_taken_step_ends_on_y_exactly(self):
        x, y = (1.0, 2.0, 3.0 + 1e-13), (0.0, 2.0, 4.0)
        chain = t_transform_chain(x, y)
        assert chain.vectors[0] == x and chain.vectors[-1] == y
        assert len(chain.steps) == 1

    def test_rejects_unsorted_input(self):
        with pytest.raises(ValueError):
            t_transform_chain((3.0, 2.0, 1.0), (0.0, 2.0, 4.0))

    def test_rejects_non_majorized(self):
        with pytest.raises(ValueError):
            t_transform_chain((0.0, 2.0, 4.0), (1.0, 2.0, 3.0))

    @given(
        st.lists(st.integers(0, 8), min_size=2, max_size=5),
        st.lists(st.integers(0, 8), min_size=2, max_size=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_soundness_on_random_majorized_pairs(self, a, b):
        n = min(len(a), len(b))
        x = tuple(sorted(float(c) for c in a[:n]))
        y = tuple(sorted(float(c) for c in b[:n]))
        # rescale x onto y's total so FULL majorization is possible
        if sum(y) == 0:
            return
        ok, _ = check_majorization(x, y, FULL)
        if not ok:
            with pytest.raises(ValueError):
                t_transform_chain(x, y)
            return
        chain = t_transform_chain(x, y)
        assert chain.vectors[0] == x and chain.vectors[-1] == y
        for u, v in zip(chain.vectors, chain.vectors[1:]):
            assert verify_t_step(u, v)
            assert is_sorted(v, "inc")
            assert check_majorization(u, v, FULL)[0]


    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_step_stays_below_the_target(self, data):
        # integer Robin Hood transfers toward equality reach every integer
        # vector majorized by the target
        y = sorted(data.draw(st.lists(st.integers(0, 8), min_size=2, max_size=6)))
        x = list(y)
        n = len(x)
        for _ in range(data.draw(st.integers(0, 2 * n))):
            i, j = data.draw(st.permutations(range(n)))[:2]
            lo, hi = sorted((i, j), key=lambda k: x[k])
            eps = data.draw(st.integers(0, (x[hi] - x[lo]) // 2))
            x[lo] += eps
            x[hi] -= eps
        x = tuple(float(c) for c in sorted(x))
        target = tuple(float(c) for c in y)
        chain = t_transform_chain(x, target)
        assert len(chain.steps) < n
        for u, v in zip(chain.vectors, chain.vectors[1:]):
            assert verify_t_step(u, v)
            assert is_sorted(v, "inc")
            assert check_majorization(v, target, FULL)[0]


    @given(_majorization_pairs(chains=True))
    @settings(max_examples=800, deadline=None)
    def test_agrees_with_the_reference(self, xy):
        """The rewritten chain has the reference's vectors and steps, float
        for float, or raises the same exception type."""
        x, y = xy
        try:
            want = _reference_t_transform_chain(x, y)
        except (ValueError, RuntimeError) as exc:
            event(f"raises {type(exc).__name__}")
            with pytest.raises(type(exc)):
                t_transform_chain(x, y)
            return
        event(f"{len(want.steps)} steps")
        assert repr(t_transform_chain(x, y)) == repr(want)


class TestTransformChainContract:
    """``t_transform_chain`` keeps its checks, and past them runs what the
    construction's runner runs, which takes its inputs as sorted and hands
    back the steps, each with the vector it leaves."""

    @pytest.mark.parametrize(
        "x, y, exc",
        [
            ((3.0, 2.0, 1.0), (0.0, 2.0, 4.0), ValueError),  # unsorted
            ((1.0, 2.0), (1.0, 2.0, 3.0), ValueError),  # lengths differ
            ((0.0, 2.0, 4.0), (1.0, 2.0, 3.0), ValueError),  # not majorized
            # majorized within the check's tolerance, 4e-12, but the first
            # coordinate stays 4e-12 short, past the loop's 2e-12
            ((0.999999999996, 2.0), (1.0, 2.0), RuntimeError),
        ],
    )
    def test_errors(self, x, y, exc):
        with pytest.raises(exc):
            t_transform_chain(x, y)

    def test_the_runner_raises_as_the_chain_does(self):
        with pytest.raises(ValueError, match="not majorized"):
            _sorted_transfers((0.0, 2.0, 4.0), (1.0, 2.0, 3.0))
        with pytest.raises(RuntimeError, match="did not converge"):
            _sorted_transfers((0.999999999996, 2.0), (1.0, 2.0))

    @given(_majorization_pairs(chains=True))
    @settings(max_examples=800, deadline=None)
    def test_sorted_inputs_give_the_runners_chain(self, xy):
        """On inputs of one length, each sorted increasing exactly, the
        chain's vectors and steps are the runner's, float for float, or both
        raise the same exception type."""
        x, y = xy
        assume(len(x) == len(y) and list(x) == sorted(x) and list(y) == sorted(y))
        try:
            want = t_transform_chain(x, y)
        except (ValueError, RuntimeError) as exc:
            event(f"raises {type(exc).__name__}")
            with pytest.raises(type(exc)):
                _sorted_transfers(x, y)
            return
        event(f"{len(want.steps)} steps")
        assert repr(_steps_chain(x, _sorted_transfers(x, y))) == repr(want)

    @given(_majorization_pairs(chains=True))
    @settings(max_examples=800, deadline=None)
    def test_runner_steps_agree_with_the_reference(self, xy):
        """On exactly sorted inputs of one length, the runner's steps and
        the vectors they leave are the reference chain's, float for float,
        or both raise the same exception type."""
        x, y = xy
        assume(len(x) == len(y) and list(x) == sorted(x) and list(y) == sorted(y))
        try:
            want = _reference_t_transform_chain(x, y)
        except (ValueError, RuntimeError) as exc:
            event(f"raises {type(exc).__name__}")
            with pytest.raises(type(exc)):
                _sorted_transfers(x, y)
            return
        event(f"{len(want.steps)} steps")
        steps = _sorted_transfers(x, y)
        assert repr([(i, j, eps) for i, j, eps, _ in steps]) == repr(list(want.steps))
        assert repr([v for *_, v in steps]) == repr(list(want.vectors[1:]))


class TestTolerance:
    def test_scales_with_magnitude(self):
        assert component_tolerance((1e6,)) == pytest.approx(1e-6)
        assert component_tolerance((0.5,)) == pytest.approx(1e-12)

    def test_near_equal_vectors_compare_equal(self):
        v = (1.0, 2.0, 3.0)
        w = (1.0 + 1e-15, 2.0, 3.0 - 1e-15)
        assert check_majorization(v, w, FULL)[0]
        assert check_majorization(w, v, FULL)[0]

    def test_as_vector_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_vector((1.0, math.inf))
        with pytest.raises(ValueError):
            as_vector(())
