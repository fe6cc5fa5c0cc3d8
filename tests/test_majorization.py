import math

import pytest
from hypothesis import given, settings, strategies as st

from stochord.majorization import (
    MajorizationMode,
    check_majorization,
    check_majorized_by,
    component_tolerance,
    as_vector,
    is_sorted,
    majorization_bound,
    sort_components,
    t_transform_chain,
)

FULL = MajorizationMode.FULL
BELOW = MajorizationMode.BELOW
ABOVE = MajorizationMode.ABOVE


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


class TestCheckMajorization:
    def test_identical_vectors_majorize_in_all_modes(self):
        v = (1.5, 0.25, 3.0)
        for mode in MajorizationMode:
            assert check_majorization(v, v, mode) == (True, None)

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
        bound = majorization_bound(y, mode)
        permuted = tuple(data.draw(st.permutations(x)))
        assert check_majorized_by(permuted, bound) == check_majorized_by(x, bound)

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
        assert check_majorization(v, sort_components(v, "dec"), FULL)[0]
        assert is_sorted(sort_components(v, "inc"), "inc")
        assert is_sorted(sort_components(v, "dec"), "dec")


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
        x = sort_components(tuple(float(c) for c in a[:n]), "inc")
        y = sort_components(tuple(float(c) for c in b[:n]), "inc")
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
