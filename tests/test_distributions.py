import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from stochord import distributions
from stochord.distributions import (
    DEFAULT_TAIL_CAP,
    MAX_LATTICE,
    CdfGrid,
    ConvolutionSpec,
    LatticeLimitError,
    TruncatedPMF,
    _gamma_mixture_cdf,
    convolve,
    coupled_gamma_pair_cdf,
    coupled_pair_mixture_pmf,
    deconvolve,
    default_gamma_grid,
    export_curve_csv,
    gamma_convolution_cdf,
    gamma_latent,
    nb_convolution,
    shape_mixture_pmf,
    spec,
    survival_dominance_check,
)
from stochord.harness import MATRIX, Scenario, ScenarioName, generate_instance
from stochord.verdicts import Status


def mc_sampler(s: ConvolutionSpec, n: int, seed: int) -> np.ndarray:
    """Oracle: sorted Monte Carlo samples of the convolution; gamma components
    by shape-scale sampling, negbin components by the gamma-Poisson mixture."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    total = np.zeros(n)
    for a, sc in zip(s.shapes, s.scales):
        if s.family == "gamma":
            total += rng.gamma(a, 1.0 / sc, size=n)
        else:
            lam = rng.gamma(a, (1.0 - sc) / sc, size=n)
            total += rng.poisson(lam)
    return np.sort(total)


def empirical_cdf(samples: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Oracle: the samples' empirical CDF at ``points``."""
    return np.searchsorted(samples, points, side="right") / samples.size


def nb(alpha: float, p: float, cap: float = DEFAULT_TAIL_CAP, shifted: bool = False):
    """One negative binomial's lattice, through a one-component spec."""
    return nb_convolution(spec("negbin", (alpha,), (p,)), cap, shifted=shifted)


probs_st = st.floats(0.15, 0.9)
shapes_st = st.floats(0.2, 3.0)


class TestNegBinPmf:
    def test_geometric_closed_form(self):
        pmf = nb(1.0, 0.5)
        for k in range(10):
            assert pmf.probs[k] == pytest.approx(0.5 ** (k + 1), rel=1e-14)

    def test_frozen_reference_values(self):
        # reference pmf values for (shape, success) fixed cases
        cases = {
            (2.5, 0.4): [
                0.10119288512538818,
                0.15178932768808226,
                0.15937879407248634,
                0.1434409146652377,
                0.11833875459882109,
                0.092304228587080484,
            ],
            (0.7, 0.85): [
                0.8924692223825027,
                0.093709268350162772,
                0.011947931714645747,
                0.0016129707814771766,
                0.0002237996959299582,
                3.155575712612413e-05,
            ],
            (1.3, 0.25): [
                0.16493848884661172,
                0.16081502662544647,
                0.13870296046444761,
                0.11442994238316932,
                0.092259141046430279,
                0.073346017131912064,
            ],
        }
        for (a, p), expected in cases.items():
            pmf = nb(a, p)
            assert pmf.probs[:6] == pytest.approx(expected, rel=1e-13)

    @given(shapes_st, probs_st, st.sampled_from([1e-8, 1e-10, 1e-12]))
    @settings(max_examples=60, deadline=None)
    def test_mass_plus_tail_is_one(self, alpha, p, cap):
        # the tail bound promises at least the missing mass, at most the cap
        pmf = nb(alpha, p, cap)
        mass = pmf.probs.sum()
        assert pmf.tail_bound <= cap
        assert mass <= 1 + 1e-9
        assert mass + pmf.tail_bound >= 1 - 1e-9

    @given(shapes_st, probs_st, st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]))
    @settings(max_examples=60, deadline=None)
    def test_tail_bound_covers_true_tail(self, alpha, p, cap):
        pmf = nb(alpha, p, cap)
        true_tail = stats.nbinom.sf(pmf.probs.size - 1, alpha, p)
        # relative slack for the rounding of the recurrence and of scipy's
        # betainc: the bound is exact for the geometric case alpha = 1
        assert true_tail <= pmf.tail_bound * (1 + 1e-9)

    def test_tail_cap_above_check_tolerance(self):
        # mass plus bound exceeds 1 + 1e-9 here: the bound is only an upper
        # bound on the missing mass
        pmf = nb_convolution(spec("negbin", [0.203125], [0.8195833027922088]), 1e-8)
        assert pmf.probs.sum() + pmf.tail_bound > 1 + 1e-9
        assert pmf.tail_bound <= 1e-8

    def test_head_below_normal_floats_is_a_lattice_limit(self):
        # 0.3**5e5 underflows to 0, 0.5**1023 is subnormal, 0.5**1022 the
        # smallest normal float
        for shapes, p in [([5e5], 0.3), ([1.0, 1023.0], 0.5), ([1023.0], 0.5)]:
            with pytest.raises(LatticeLimitError, match="normal floats"):
                distributions._nb_rows(shapes, p, 1e-12)
        ((probs, _),) = distributions._nb_rows([1022.0], 0.5, 1e-12)
        assert probs[0] == 0.5**1022 and np.all(np.isfinite(probs))

    def test_size_past_max_lattice_is_a_lattice_limit(self):
        with pytest.raises(LatticeLimitError, match="needs over 1048577 points"):
            distributions._nb_rows([0.5, 1.0], 1e-6, 1e-12)

    def test_kept_points_past_mixture_points_is_a_lattice_limit(self, monkeypatch):
        # blocks of three rows at the first size and of one row after it;
        # each row keeps about 255 points, within the size limit, but 200
        # rows together pass the kept-points limit
        monkeypatch.setattr(distributions, "MAX_LATTICE", 1000)
        monkeypatch.setattr(distributions, "MIXTURE_POINTS", 25 * 1000)
        shapes = [50.0 + h for h in range(5)]
        rows = distributions._nb_rows(shapes * 4, 0.35, 1e-12)
        assert sum(probs.size for probs, _ in rows) < 25 * 1000 / 4
        with pytest.raises(LatticeLimitError, match="keep over 25000 points"):
            distributions._nb_rows(shapes * 40, 0.35, 1e-12)

    def test_convolution_past_max_lattice_is_a_lattice_limit(self, monkeypatch):
        monkeypatch.setattr(distributions, "MAX_LATTICE", 1000)
        a = TruncatedPMF(0.0, np.full(600, 1 / 600), 0.0)
        assert convolve(a, TruncatedPMF(0.0, np.ones(1), 0.0)).probs.size == 600
        with pytest.raises(LatticeLimitError, match="1199 points passes 1000"):
            convolve(a, a)

    def test_coupled_pair_rows_share_half_of_mixture_points(self, monkeypatch):
        # the 124 latent shapes keep 12,361 points at success 0.65 and 8,729
        # at 0.75: each within the limit alone, past half of it together
        monkeypatch.setattr(distributions, "MIXTURE_POINTS", 25 * 1000)
        latent = nb(1.0, 0.2, 1e-12, shifted=True)
        for s in (0.65, 0.75):
            shape_mixture_pmf(latent, s, 1e-12)
        with pytest.raises(LatticeLimitError, match="0.75 keep over 25000 points"):
            coupled_pair_mixture_pmf(1.0, 0.7, 0.05, 0.2, 1e-12)

    def test_coupled_pair_checks_every_convolution_before_any(self, monkeypatch):
        # latent shapes 1..5: the pair at shape 1 convolves to 1077 points,
        # the one at shape 2 to 1212
        monkeypatch.setattr(distributions, "MAX_LATTICE", 1100)
        calls = []
        monkeypatch.setattr(np, "convolve", lambda *a: calls.append(a))
        with pytest.raises(LatticeLimitError, match="1212 points passes 1100"):
            coupled_pair_mixture_pmf(1.0, 0.05, 0.001, 0.999, 1e-12)
        assert calls == []

    def test_work_past_max_work_is_a_lattice_limit(self, monkeypatch):
        monkeypatch.setattr(distributions, "MAX_WORK", 1_000_000)
        a = TruncatedPMF(0.0, np.full(1000, 1 / 1000), 0.0)
        b = TruncatedPMF(0.0, np.full(1100, 1 / 1100), 0.0)
        assert convolve(a, a).probs.size == 1999  # 1e6 multiply-adds: at the bound
        assert deconvolve(a, a)[1].holds
        calls = []
        monkeypatch.setattr(np, "convolve", lambda *args: calls.append(args))
        monkeypatch.setattr(distributions, "_solve", lambda *args: calls.append(args))
        with pytest.raises(LatticeLimitError, match=r"convolution takes 1.1e\+06"):
            convolve(a, b)
        with pytest.raises(LatticeLimitError, match=r"deconvolution takes 1.21e\+06"):
            deconvolve(b, b)
        # each of the pair's five convolutions takes at most 583,440
        # multiply-adds, the five 2,193,306 together
        with pytest.raises(LatticeLimitError, match=r"convolution takes 2.19e\+06"):
            coupled_pair_mixture_pmf(1.0, 0.05, 0.001, 0.999, 1e-12)
        assert calls == []

    def test_coupled_pair_builds_the_smaller_success_first(self, monkeypatch):
        # 0.01**2000 underflows; the rows at 0.99 are never asked for
        successes = []
        nb_rows = distributions._nb_rows

        def spy(shapes, p, *args):
            successes.append(p)
            return nb_rows(shapes, p, *args)

        monkeypatch.setattr(distributions, "_nb_rows", spy)
        with pytest.raises(LatticeLimitError, match="normal floats"):
            coupled_pair_mixture_pmf(2000.0, 0.5, 0.49, 1.0, 1e-12)
        assert successes == [0.5 - 0.49]

    def test_shifted_variant_only_moves_offset(self):
        base = nb(1.7, 0.6)
        shifted = nb(1.7, 0.6, shifted=True)
        assert shifted.offset == 1.7
        assert np.array_equal(base.probs, shifted.probs)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="shape must be positive, got 0.0"):
            spec("negbin", (0.0,), (0.5,))
        with pytest.raises(ValueError, match=r"success probability must be in \(0,1\), got 1.0"):
            spec("negbin", (1.0,), (1.0,))
        with pytest.raises(ValueError):
            nb(1.0, 0.5, 0.0)

    def test_pgf_matches_series(self):
        alpha, p = 0.8, 0.4

        def pgf(t):  # closed form for the shifted variable
            return (p / (1.0 / t - (1.0 - p))) ** alpha

        assert pgf(0.5) == pytest.approx(0.3670671877495541, rel=1e-14)
        pmf = nb(alpha, p, 1e-14, shifted=True)
        for t in (0.5, 0.7):
            series = t**alpha * float(np.dot(pmf.probs, t ** np.arange(pmf.probs.size)))
            assert series == pytest.approx(pgf(t), abs=1e-12)


class TestConvolution:
    def test_infinite_divisibility(self):
        a1, a2, p = 1.1, 0.6, 0.45
        left = convolve(
            nb(a1, p, 1e-13), nb(a2, p, 1e-13)
        )
        right = nb(a1 + a2, p, 1e-13)
        n = min(left.probs.size, right.probs.size)
        assert np.max(np.abs(left.probs[:n] - right.probs[:n])) < 1e-12

    def test_point_mass_is_identity(self):
        pmf = nb(1.3, 0.5)
        out = convolve(pmf, TruncatedPMF(2.5, np.ones(1), 0.0))
        assert out.offset == 2.5
        assert np.allclose(out.probs, pmf.probs)

    @given(shapes_st, shapes_st, probs_st)
    @settings(max_examples=30, deadline=None)
    def test_offsets_and_tails_add(self, a1, a2, p):
        f1 = nb(a1, p, shifted=True)
        f2 = nb(a2, p, shifted=True)
        out = convolve(f1, f2)
        assert out.offset == pytest.approx(a1 + a2)
        assert out.tail_bound == pytest.approx(f1.tail_bound + f2.tail_bound)
        assert out.probs.sum() + out.tail_bound == pytest.approx(1.0, abs=1e-9)


def _deconvolution_digest(*outputs) -> str:
    """sha256 of deconvolution outputs byte for byte: each ``(result,
    verdict)``'s coefficients, error bounds, status and records."""
    h = hashlib.sha256()
    for result, verdict in outputs:
        h.update(result.coeffs.tobytes() + result.error_bounds.tobytes())
        h.update(verdict.status.value.encode())
        h.update(json.dumps([verdict.detail, verdict.violation], sort_keys=True).encode())
    return h.hexdigest()


# sha256 of each test's deconvolution outputs below, pinned while a plain
# loop that solved ``z`` and its error bound together, one reversed dot
# product per coefficient, still agreed with them bit for bit
DECONVOLVE_DIGESTS = {
    "random": "c51d263339de7bbdb2f015585974badb9ff179f6887d7486ab382921314fe30d",
    "gamma_reduction": "5ca554e29dd343e8ea18e512d5f9321fbb9bb31496be176e727bc47b44af830f",
    "bound_when_read": "f1d18dbcc7c96edf1282bc8816d20a8ac8289956f9268fe6095afbb1086596c8",
    "refuted": "835388edee5402d073f7ff385ddea47281afa8f6ae94247fc45417c190bc0727",
    "sum_outside": "304fcce58d007fd631613591e60723063b50d8186d31d9636c8e7fb5bebd0392",
    "sum_within": "9d5d16a0a1510872b0cdbcd98cd1464579dc183b154a5a5642208a1008700615",
}


class TestDeconvolve:
    def test_bitwise_equal_to_one_pass_solve(self):
        rng = np.random.default_rng(20261018)
        statuses, capped, f0_min, outputs = set(), 0, 1.0, []
        for n in range(1, 7):
            for case in range(10):
                a1 = rng.uniform(0.3, 2.5, n)
                p1 = rng.uniform(0.05, 0.9, n)
                p1[0] = 0.05 if case % 3 == 0 else p1[0]
                if rng.random() < 0.5:  # raised shapes: the order holds
                    a2, p2 = a1 + rng.uniform(0.0, 1.0, n), p1
                else:
                    a2, p2 = rng.uniform(0.3, 2.5, n), rng.uniform(0.05, 0.9, n)
                f1 = nb_convolution(spec("negbin", a1, p1))
                f2 = nb_convolution(spec("negbin", a2, p2))
                for num, den in ((f2, f1), (f1, f2)):
                    result, verdict = deconvolve(num, den)
                    outputs.append((result, verdict))
                    statuses.add(verdict.status)
                    capped += bool(result.error_bounds.max() == 1e30)
                    f0_min = min(f0_min, den.probs[0])
        assert _deconvolution_digest(*outputs) == DECONVOLVE_DIGESTS["random"]
        assert statuses == set(Status) and capped and f0_min <= 1e-6

    def test_pinned_gamma_reduction_matches_one_pass_solve(self):
        # the latent negative binomial lattices of a gamma pair at twice its
        # largest rate: f0 = 4.5e-8 and a bound capped at 1e30; the smallest
        # coefficient, -9.66e-10, lies within tol, so a less accurate solve
        # turns it unknown
        s1, s2 = generate_instance(Scenario(ScenarioName.GAMMA_CONV, "gamma", 6, 9000096))
        beta = 2.0 * max(max(s1.scales), max(s2.scales))
        f1, f2 = (
            nb_convolution(spec("negbin", s.shapes, [b / beta for b in s.scales]))
            for s in (s1, s2)
        )
        result, verdict = deconvolve(f2, f1)
        assert _deconvolution_digest((result, verdict)) == DECONVOLVE_DIGESTS["gamma_reduction"]
        assert result.error_bounds.max() == 1e30
        assert verdict.status is Status.HOLDS
        assert verdict.detail["min_coeff"] == pytest.approx(-9.66e-10, rel=1e-3)

    def test_bound_computed_only_when_read(self):
        f1 = nb(1.2, 0.45)
        f2 = convolve(f1, nb(0.8, 0.45))
        result, verdict = deconvolve(f2, f1)
        assert verdict.status is Status.HOLDS
        assert "error_bounds" not in vars(result)
        assert _deconvolution_digest((result, verdict)) == DECONVOLVE_DIGESTS["bound_when_read"]

    def test_refuted_reads_bound(self):
        small = nb(1.0, 0.7, 1e-13)
        large = nb(1.0, 0.4, 1e-13)
        result, verdict = deconvolve(small, large)
        assert _deconvolution_digest((result, verdict)) == DECONVOLVE_DIGESTS["refuted"]
        assert verdict.status is Status.REFUTED
        assert verdict.violation["error_bound"] > 0

    def test_sum_outside_certified_range_reads_bound(self):
        # a point-mass divisor returns f2 itself, whose mass exceeds 1 by far
        # more than the rounding bound
        f1 = TruncatedPMF(0.0, np.ones(1), 0.0)
        f2 = TruncatedPMF(0.0, np.array([0.5, 0.5 + 5e-10]), 0.0)
        result, verdict = deconvolve(f2, f1, tol=0.0)
        assert _deconvolution_digest((result, verdict)) == DECONVOLVE_DIGESTS["sum_outside"]
        assert verdict.status is Status.UNKNOWN
        assert verdict.detail["reason"] == "coefficient sum outside certified range"

    def test_sum_within_widened_range_holds(self):
        # dividing by 0.999 puts the sum 1.001e-3 above 1; f1's tail 1e-3
        # times the largest coefficient, summed, widens the range past it
        f1 = TruncatedPMF(0.0, np.array([0.999]), 1e-3)
        f2 = TruncatedPMF(0.0, np.array([0.5, 0.5]), 0.0)
        result, verdict = deconvolve(f2, f1, tol=0.0)
        assert _deconvolution_digest((result, verdict)) == DECONVOLVE_DIGESTS["sum_within"]
        assert verdict.status is Status.HOLDS
        assert verdict.detail["sum"] > 1.001

    def test_recovers_known_factor(self):
        p = 0.45
        f1 = nb(1.2, p, 1e-13)
        f2 = nb(2.0, p, 1e-13)
        combined = convolve(f1, f2)
        result, verdict = deconvolve(combined, f1)
        assert verdict.status is Status.HOLDS
        n = min(result.coeffs.size, f2.probs.size)
        assert np.max(np.abs(result.coeffs[:n] - f2.probs[:n])) < 1e-10

    def test_self_deconvolution_is_point_mass(self):
        f = nb(1.5, 0.5, 1e-13)
        result, verdict = deconvolve(f, f)
        assert verdict.status is Status.HOLDS
        assert result.coeffs[0] == pytest.approx(1.0, abs=1e-9)

    def test_reversed_order_refuted(self):
        # the larger-success variable is the smaller one; dividing the other
        # way produces certifiably negative coefficients
        small = nb(1.0, 0.7, 1e-13)
        large = nb(1.0, 0.4, 1e-13)
        _, verdict = deconvolve(small, large)
        assert verdict.status is Status.REFUTED
        assert verdict.violation["coeff"] < 0

    def test_unknown_names_the_most_negative_coefficient(self):
        # RaiseAlpha seed 0 at tail cap 1e-6: no coefficient is below its
        # error bound, and the record names the most negative one
        s1, s2 = generate_instance(Scenario(ScenarioName.RAISE_ALPHA, "negbin", 3, 0))
        f1, f2 = nb_convolution(s1, 1e-6), nb_convolution(s2, 1e-6)
        result, verdict = deconvolve(f2, f1, 1e-9)
        assert verdict.status is Status.UNKNOWN
        record = verdict.detail
        assert record["index"] == int(np.argmin(result.coeffs))
        assert record["coeff"] < -1e-9
        assert record["coeff"] + record["error_bound"] >= 0

    def test_offset_ordering_enforced(self):
        f1 = nb(2.0, 0.5, shifted=True)
        f2 = nb(1.0, 0.5, shifted=True)
        with pytest.raises(ValueError):
            deconvolve(f2, f1)


def _mixture_cases():
    """Parameters ``(alpha, p1, p2, c0, lam1, lam2, cap)`` from the box the
    identities are stated in, then edge cases: success near 1, large shapes,
    a one-atom latent and a point-mass latent (``lam1 == lam2``)."""
    rng = np.random.default_rng(2024)
    for _ in range(40):
        alpha = float(rng.uniform(0.3, 2.5))
        p1, p2 = (float(v) for v in rng.uniform(0.3, 0.9, size=2))
        c0 = float(rng.uniform(0.45, 0.6))
        lam1 = float(rng.uniform(0.1, 0.4)) * c0
        lam2 = float(rng.uniform(0.1, 0.9)) * lam1
        yield alpha, p1, p2, c0, lam1, lam2, 1e-12
    yield 1.3, 0.999999, 0.9999, 0.5, 0.3, 0.1, 1e-12  # success near 1
    yield 0.7, 0.4, 0.999999999, 0.5, 0.49, 0.01, 1e-10
    yield 180.0, 0.8, 0.6, 0.5, 0.2, 0.1, 1e-12  # large shape
    yield 2.0, 1 - 1e-15, 0.5, 0.5, 0.2, 0.1, 1e-8  # one-atom latent
    yield 1.1, 0.6, 0.3, 0.55, 0.2, 0.2, 1e-12  # point-mass latent


def _feed(h, *laws):
    """Feed lattice PMFs, CDF grids and floats into ``h`` byte for byte."""
    for law in laws:
        if isinstance(law, TruncatedPMF):
            h.update(np.array([law.offset, law.tail_bound]).tobytes())
            h.update(law.probs.tobytes())
        elif isinstance(law, CdfGrid):
            for a in (law.points, law.values, law.errors):
                h.update(a.tobytes())
        else:
            h.update(np.float64(law).tobytes())


def _mixture_digest(cases) -> str:
    h = hashlib.sha256()
    grid = np.linspace(1e-9, 30.0, 32)
    for alpha, p1, p2, c0, lam1, lam2, cap in cases:
        latent = nb(alpha, p1, cap, shifted=True)
        p = (c0**2 - lam1**2) / (c0**2 - lam2**2)
        _feed(
            h,
            shape_mixture_pmf(latent, p2, cap),
            coupled_pair_mixture_pmf(alpha, c0, lam2, p, cap),
            coupled_gamma_pair_cdf(alpha, c0, lam2, p, grid, cap),
        )
    return h.hexdigest()


def _one_row_cases():
    """``(shape, success, tail cap)`` over the box of ``test_one_row_bitwise``
    and its corners."""
    rng = np.random.default_rng(20261018)
    caps = (1e-8, 1e-12, 1e-14)
    for i in range(150):
        yield float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.01, 0.999999)), caps[i % 3]
    for alpha in (0.2, 3.0):
        for p in (0.01, 0.999999):
            for cap in caps:
                yield alpha, p, cap


# sha256 of the kernel outputs, computed when each was still checked against
# a plain per-atom loop (one shape per recurrence, one mixture term per atom):
# the mixtures of ``_mixture_cases`` (the first 40 when chunked), one-row
# lattices over ``_one_row_cases``, and the rows of ``ROW_SHAPES`` at 0.35
MIXTURE_DIGESTS = {
    "one-block": "c1f6d4aa1e79511fc86257899ad6e14163fad23277b60f4e965dd697b2aefcf8",
    "chunked": "e160fe66af18184815e0fe56144fdd160cb1e137fad01762819c7e88ea5b821d",
}
ONE_ROW_DIGEST = "5571a1a6cbabe887c1a8584d8c51d7f59575354095fa38b2987a04f610f24e60"
ROW_SHAPES = [0.4, 7.5, 120.0, 1.0, 33.3, 2.2, 0.9, 60.0]
ROWS_DIGEST = "4478183495280520942fc7feac82dcd0e27d1b95570488260f2a15fa7a51f022"
# one success probability per row of ``ROW_SHAPES``, and the digest of the
# one-row lattices at those successes, pinned before rows could mix them
ROW_SUCCESSES = [0.35, 0.6, 0.5, 0.15, 0.35, 0.9, 0.25, 0.8]
MIXED_ROWS_DIGEST = "6eb58645a781b7b2b2d3d89f131c2d88ec914c0ecfabce01bfb849c875f05f0c"


class TestBatchedKernelMatchesPerAtomLoop:
    @pytest.mark.parametrize("chunked", [False, True], ids=["one-block", "chunked"])
    def test_mixtures_bitwise(self, chunked, monkeypatch):
        cases = list(_mixture_cases())
        if chunked:
            # blocks of three rows at the first size; the box cases' lattices
            # still fit the patched size limit
            monkeypatch.setattr(distributions, "MAX_LATTICE", 1000)
            cases = cases[:40]
        assert _mixture_digest(cases) == MIXTURE_DIGESTS["chunked" if chunked else "one-block"]

    def test_one_row_bitwise(self):
        h = hashlib.sha256()
        for alpha, p, cap in _one_row_cases():
            _feed(h, nb(alpha, p, cap))
        assert h.hexdigest() == ONE_ROW_DIGEST

    @pytest.mark.parametrize("max_lattice", [MAX_LATTICE, 1000])
    def test_rows_do_not_depend_on_their_neighbours(self, max_lattice, monkeypatch):
        # at 1000, blocks of three rows at the first size and of one row
        # after the first doubling
        monkeypatch.setattr(distributions, "MAX_LATTICE", max_lattice)
        for p, digest in ((0.35, ROWS_DIGEST), (ROW_SUCCESSES, MIXED_ROWS_DIGEST)):
            rows = distributions._nb_rows(ROW_SHAPES, p, 1e-12)
            successes = [p] * len(ROW_SHAPES) if p == 0.35 else p
            h = hashlib.sha256()
            for a, b, (probs, bound) in zip(ROW_SHAPES, successes, rows):
                ((one, one_bound),) = distributions._nb_rows([a], b, 1e-12)
                assert np.array_equal(probs, one) and bound == one_bound
                h.update(probs.tobytes() + np.float64(bound).tobytes())
            assert h.hexdigest() == digest

    def test_lattice_limits_name_the_row_at_fault(self, monkeypatch):
        # rows of mixed success probabilities: each error names the row that
        # starts too low, has no cut, or passes the kept-points limit
        with pytest.raises(LatticeLimitError, match=r"shape 1023, success 0.5\)"):
            distributions._nb_rows([2000.0, 1023.0], [0.9999, 0.5], 1e-12)
        with pytest.raises(LatticeLimitError, match=r"shape 1, success 1e-06\) needs over"):
            distributions._nb_rows([0.5, 1.0], [0.5, 1e-6], 1e-12)
        # 12 points at success 0.9, 124 at 0.2 and 2,750 at 0.01
        monkeypatch.setattr(distributions, "MIXTURE_POINTS", 100)
        with pytest.raises(LatticeLimitError, match="success 0.2 keep over 100 points"):
            distributions._nb_rows([1.0, 1.0, 1.0], [0.9, 0.2, 0.01], 1e-12)


def _random_specs():
    """Random specs with a tail cap each: negbin specs, and gamma specs whose
    largest rate some components share (point masses in the latent), every
    fourth with a common rate above the largest."""
    rng = np.random.default_rng(20261018)
    for i in range(180):
        n = int(rng.integers(1, 7))
        shapes = rng.uniform(0.2, 3.0, n)
        cap = (1e-12, 1e-8, 1e-5)[i % 3]
        if i % 2 == 0:
            yield spec("negbin", shapes, rng.uniform(0.05, 0.95, n)), cap, None
        else:
            rates = rng.uniform(0.3, 4.0, n)
            rates[rng.random(n) < 0.4] = rates.max()
            beta = 1.25 * rates.max() if i % 4 == 1 else None
            yield spec("gamma", shapes, rates), cap, beta


def _kernel_outputs(s, grid, cap=DEFAULT_TAIL_CAP, beta=None):
    if s.family == "negbin":
        return nb_convolution(s, cap), nb_convolution(s, cap, shifted=True)
    latent, common = gamma_latent(s, cap, beta)
    return latent, common, gamma_convolution_cdf(s, grid, cap, beta)


# sha256 of the kernel outputs on both specs of every scenario-matrix
# instance at n = 2..6, seeds 0..2, per row: negbin lattices unshifted and
# shifted; gamma latents, their common rate and the CDF on the pair's grid
MATRIX_KERNEL_DIGESTS = {
    ("RaiseAlpha", "negbin"): "692a36cc57b3b2fe3251bbfd5fd4b950cac0ffd814fd7cf365f47e1802385a55",
    ("LowerBeta", "negbin"): "85f5a7d942773c92b1126b0b4e1906161c4452b47a87367d883a9bb9ca0cccf4",
    ("MajorizeBeta", "negbin"): "f132646aa535d75291891527c24a83ae430e43e475ac6cf45b74e586852486fe",
    ("DiffAlphaMajorizeBeta", "negbin"): "726a25431376d6d70b8259413f7d625018c0f14981ef471937eb130a202c8a05",
    ("MajorizeAlpha", "negbin"): "26c6652bd3b9f2a71900965168f3d343f3a341544219c7b7e1520e1dfe46bbde",
    ("ConvAI", "negbin"): "f4a08d45c18ad15c4239143e8a8d3e4776014b8ab99b59504e85af244e222391",
    ("RcGeneral", "negbin"): "9ac9aedc1131272f9d4d27c7e12a5a309b4f02b1d323f5fd028cf8f3611d9415",
    ("GammaConv", "gamma"): "a292cdef37ed9f26d557a30f9b594af740c97d0fbca6ecb5e85459ab9caa877b",
    ("OppositeOrderedWeak", "negbin"): "acb6fcf0aaaca9229cae1ecb875bb867d4aa96c84a1efecd666794539cd41103",
    ("LogMajorizeBetaSt", "negbin"): "ce2a8fb80d8e9236b35bbe21135b7238bbb396b4bdd88b57a54a508dbb742ebe",
    ("StGeneral", "negbin"): "1822f212d972b08c42513f7f01276f62aa6dc90802bc67bf2d129cdc9dc7d1d9",
    ("StGeneral", "gamma"): "3117551c256a195ac580665ab404122e54c6abca159c4d04b0a72fedb4a0e600",
    ("AITail", "gamma"): "ab3f4f42d011604386845f99776ca09c537ec4e97cca1e4960f6658c5f51542f",
    ("CoupledGammaPair", "gamma"): "384331c037dfdf04b4df67933491a8b2aa3932ff6e859aa1482ac1aa954ae017",
    ("MixtureLemmaSt", "negbin"): "5bda3e3434a646da1818daa7ba449dda109b610158f35cd768c761da704f5a2f",
}
# the same outputs over ``_random_specs``, gamma CDFs on a 64-point grid
RANDOM_KERNEL_DIGEST = "ab835988293f18ceee0b71da35a2bea4a2856458504baf02924ae068aea34e81"


class TestPinnedKernelOutputs:
    def test_matrix_rows(self):
        digests = {}
        for row in MATRIX:
            h = hashlib.sha256()
            for n, seed in itertools.product(range(2, 7), range(3)):
                s1, s2 = generate_instance(Scenario(row.name, row.family, n, seed))
                grid = default_gamma_grid([s1, s2])
                _feed(h, *_kernel_outputs(s1, grid), *_kernel_outputs(s2, grid))
            digests[row.name.value, row.family] = h.hexdigest()
        assert digests == MATRIX_KERNEL_DIGESTS

    def test_random_specs_at_three_tail_caps(self):
        h = hashlib.sha256()
        for s, cap, beta in _random_specs():
            _feed(h, *_kernel_outputs(s, default_gamma_grid([s], 64), cap, beta))
        assert h.hexdigest() == RANDOM_KERNEL_DIGEST


class TestMixtures:
    def test_shape_mixture_collapses_to_product_success(self):
        alpha, p1, p2 = 1.0, 0.5, 0.4
        latent = nb(alpha, p1, 1e-13, shifted=True)
        mix = shape_mixture_pmf(latent, p2, 1e-13)
        direct = nb(alpha, p1 * p2, 1e-13, shifted=True)
        n = min(mix.probs.size, direct.probs.size)
        assert np.max(np.abs(mix.probs[:n] - direct.probs[:n])) < 1e-10

    def test_coupled_pair_mixture_matches_plain_pair(self):
        alpha, c0, l_small, l_big = 0.9, 0.5, 0.1, 0.3
        p = (c0**2 - l_big**2) / (c0**2 - l_small**2)
        mix = coupled_pair_mixture_pmf(alpha, c0, l_small, p, 1e-13)
        plain = nb_convolution(
            spec("negbin", (alpha, alpha), (c0 + l_big, c0 - l_big)),
            1e-13,
            shifted=True,
        )
        n = min(mix.probs.size, plain.probs.size)
        assert mix.offset == pytest.approx(plain.offset)
        assert np.max(np.abs(mix.probs[:n] - plain.probs[:n])) < 1e-10

    def test_degenerate_latent_is_plain_pair(self):
        alpha, c0, lam = 1.2, 0.55, 0.2
        mix = coupled_pair_mixture_pmf(alpha, c0, lam, 1.0, 1e-13)
        plain = nb_convolution(
            spec("negbin", (alpha, alpha), (c0 + lam, c0 - lam)), 1e-13, shifted=True
        )
        n = min(mix.probs.size, plain.probs.size)
        assert np.max(np.abs(mix.probs[:n] - plain.probs[:n])) < 1e-12


class TestGammaCdf:
    def test_single_component_matches_reference(self):
        g = spec("gamma", (0.9,), (2.0,))
        grid = np.array([0.7])
        out = gamma_convolution_cdf(g, grid)
        assert out.values[0] == pytest.approx(0.78701739914780278, abs=1e-10)

    def test_equal_rate_pair_collapses(self):
        g = spec("gamma", (1.1, 0.6), (1.5, 1.5))
        grid = np.array([2.0])
        out = gamma_convolution_cdf(g, grid)
        assert out.values[0] == pytest.approx(0.8562221524570095, abs=1e-10)

    def test_incomplete_gamma_reference(self):
        # P(2.4, 1.5): the CDF at 0.5 of one gamma of shape 2.4 and rate 3
        out = gamma_convolution_cdf(spec("gamma", (2.4,), (3.0,)), np.array([0.5]))
        assert out.values[0] == pytest.approx(0.32590948513369244, rel=1e-13)
        with pytest.raises(ValueError, match="shape must be positive"):
            spec("gamma", (-1.0,), (3.0,))

    def test_coupled_gamma_pair_matches_plain_pair(self):
        alpha, c0, l_small, l_big = 0.8, 0.5, 0.1, 0.3
        p = (c0**2 - l_big**2) / (c0**2 - l_small**2)
        g = spec("gamma", (alpha, alpha), (c0 + l_big, c0 - l_big))
        grid = default_gamma_grid([g], 64)
        mix = coupled_gamma_pair_cdf(alpha, c0, l_small, p, grid)
        plain = gamma_convolution_cdf(g, grid)
        assert np.max(np.abs(mix.values - plain.values)) < 1e-9

    def test_grid_covers_means(self):
        g = spec("gamma", (2.0, 1.0), (1.0, 2.0))
        grid = default_gamma_grid([g])
        mean = 2.0 / 1.0 + 1.0 / 2.0
        assert np.min(np.abs(grid - mean)) < 1e-9


def _mp_mixture_cdf(latent, beta, t, mp):
    """``sum_h w_h P(a_0 + h, beta t)`` at the caller's mpmath precision:
    mpmath's P at the lowest shape, then upward by
    ``P(a + 1, x) = P(a, x) - x^a e^-x / Gamma(a + 1)``; at 40 digits the
    absolute error stays below 1e-36 over a few thousand shapes."""
    x = mp.mpf(float(beta)) * mp.mpf(float(t))
    if x == 0:
        return mp.mpf(0)
    a = mp.mpf(float(latent.offset))
    p = mp.gammainc(a, 0, x, regularized=True)
    d = mp.exp(a * mp.log(x) - x - mp.loggamma(a + 1))
    total = mp.mpf(0)
    for w in latent.probs:
        total += mp.mpf(float(w)) * p
        p -= d
        a += 1
        d *= x / a
    return total


class TestGammaMixtureKernel:
    GAMMA_CELLS = (
        ScenarioName.ST_GENERAL,
        ScenarioName.AI_TAIL,
        ScenarioName.COUPLED_GAMMA_PAIR,
    )

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_mpmath_within_bound(self, n):
        mp = pytest.importorskip("mpmath")
        for name in self.GAMMA_CELLS:
            for s in generate_instance(Scenario(name, "gamma", n, 0)):
                grid = default_gamma_grid([s], 256)
                # t = 0, near 0, the bulk, the last grid point and far past it
                pts = np.unique(np.r_[0.0, 1e-12, 1e-6, grid[::32], grid[-1], 3 * grid[-1]])
                latent, beta = gamma_latent(s)
                values, rounding = _gamma_mixture_cdf(latent, beta, pts)
                out = gamma_convolution_cdf(s, pts)
                assert np.array_equal(out.errors, latent.tail_bound + rounding)
                assert np.all(rounding < 1e-11)
                with mp.workdps(40):
                    for t, v, bound in zip(pts, values, rounding):
                        ref = _mp_mixture_cdf(latent, beta, t, mp)
                        assert abs(float(mp.mpf(float(v)) - ref)) <= bound, (name, n, t)
        assert values[0] == 0.0 and rounding[0] == 0.0

    def test_components_tied_at_max_rate_are_point_masses(self):
        s = spec("gamma", (1.1, 0.6, 0.8), (1.5, 1.5, 0.7))
        latent, beta = gamma_latent(s)
        assert beta == 1.5
        assert latent.offset == pytest.approx(2.5)
        assert latent.probs.size < gamma_latent(s, common_beta=3.0)[0].probs.size
        grid = default_gamma_grid([s], 64)
        tied = gamma_convolution_cdf(s, grid)
        wide = gamma_convolution_cdf(s, grid, common_beta=3.0)
        assert np.all(np.abs(tied.values - wide.values) <= tied.errors + wide.errors)

    def test_common_beta_at_least_max_rate(self):
        s = spec("gamma", (0.9, 1.4), (2.0, 0.5))
        latent, beta = gamma_latent(s, common_beta=2.0)
        assert beta == 2.0 and latent.offset == pytest.approx(2.3)
        grid = np.array([0.5, 2.0, 8.0])
        default = gamma_convolution_cdf(s, grid)
        explicit = gamma_convolution_cdf(s, grid, common_beta=2.0)
        assert np.array_equal(default.values, explicit.values)
        with pytest.raises(ValueError):
            gamma_latent(s, common_beta=1.999)
        with pytest.raises(ValueError):
            gamma_convolution_cdf(s, grid, common_beta=1.0)


class TestOrderOracles:
    def test_survival_dominance_identical_holds(self):
        f = nb(1.5, 0.5)
        assert survival_dominance_check(f, f).status is Status.HOLDS

    def test_survival_dominance_refutes_reversal(self):
        small = nb(1.0, 0.7)
        large = nb(1.0, 0.4)
        assert survival_dominance_check(small, large).status is Status.HOLDS
        v = survival_dominance_check(large, small)
        assert v.status is Status.REFUTED
        assert v.violation["excess"] > 0

    def test_cdf_grid_branch(self):
        g1 = spec("gamma", (1.0,), (2.0,))
        g2 = spec("gamma", (1.0,), (1.0,))
        grid = default_gamma_grid([g1, g2], 64)
        c1 = gamma_convolution_cdf(g1, grid)
        c2 = gamma_convolution_cdf(g2, grid)
        assert survival_dominance_check(c1, c2).status is Status.HOLDS
        assert survival_dominance_check(c2, c1).status is Status.REFUTED

    def test_mismatched_grids_rejected(self):
        a = CdfGrid(np.array([1.0, 2.0]), np.array([0.3, 0.6]), np.zeros(2))
        b = CdfGrid(np.array([1.0, 3.0]), np.array([0.3, 0.6]), np.zeros(2))
        with pytest.raises(ValueError):
            survival_dominance_check(a, b)

    def test_mismatched_offsets_rejected(self):
        a = TruncatedPMF(0.0, np.array([0.5, 0.5]), 0.0)
        with pytest.raises(ValueError, match="lattices must share their offset"):
            survival_dominance_check(a, TruncatedPMF(1.0, a.probs, 0.0))

    @pytest.mark.parametrize("offset", [0.0, 1.1])
    def test_last_point_compared_at_any_offset(self, offset):
        # 1e-6 of mass moved from the next-to-last point to the last: the
        # survival at the last point, offset + 65,535, exceeds the original's
        base = np.full(65536, 1 / 65536)
        moved = base.copy()
        moved[-2] -= 1e-6
        moved[-1] += 1e-6
        v = survival_dominance_check(
            TruncatedPMF(offset, moved, 0.0), TruncatedPMF(offset, base, 0.0)
        )
        assert v.status is Status.REFUTED
        assert v.violation["t"] == offset + 65535
        assert v.violation["excess"] == pytest.approx(1e-6, rel=1e-9)


class TestMonteCarlo:
    def test_sampler_reproducible(self):
        g = spec("gamma", (1.0, 2.0), (1.0, 0.5))
        assert np.array_equal(mc_sampler(g, 100, 7), mc_sampler(g, 100, 7))
        assert not np.array_equal(mc_sampler(g, 100, 7), mc_sampler(g, 100, 8))

    def test_gamma_samples_match_cdf(self):
        g = spec("gamma", (1.2, 0.7), (2.0, 1.0))
        n = 100_000
        samples = mc_sampler(g, n, 0)
        grid = default_gamma_grid([g], 32)
        exact = gamma_convolution_cdf(g, grid)
        emp = empirical_cdf(samples, grid)
        # DKW 0.1% bound: sqrt(log(2/a)/(2n))
        assert np.max(np.abs(emp - exact.values)) < math.sqrt(
            math.log(2 / 0.001) / (2 * n)
        )

    def test_negbin_samples_match_pmf(self):
        s = spec("negbin", (1.5, 0.8), (0.5, 0.6))
        n = 100_000
        samples = mc_sampler(s, n, 1)
        pmf = nb_convolution(s)
        pts = np.arange(15, dtype=float)
        exact = np.cumsum(pmf.probs)[:15]
        emp = empirical_cdf(samples, pts)
        assert np.max(np.abs(emp - exact)) < math.sqrt(math.log(2 / 0.001) / (2 * n))


class TestSerializationAndExport:
    def test_spec_json_round_trip(self):
        s = spec("negbin", (1.5, 0.8), (0.5, 0.6))
        data = json.loads(json.dumps(s.to_dict()))
        assert set(data) == {"family", "shapes", "scales"}
        assert ConvolutionSpec.from_dict(data) == s

    def test_spec_from_lists_hashes_and_equals_spec(self):
        built = ConvolutionSpec("negbin", [1.0, 2.0], np.array([0.5, 0.6]))
        assert built == spec("negbin", [1.0, 2.0], [0.5, 0.6])
        assert hash(built) == hash(spec("negbin", (1, 2), (0.5, 0.6)))
        assert built.shapes == (1.0, 2.0) and type(built.scales[0]) is float

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            spec("negbin", (1.0,), (1.5,))
        with pytest.raises(ValueError):
            spec("gamma", (1.0, 2.0), (1.0,))
        with pytest.raises(ValueError):
            spec("poisson", (1.0,), (1.0,))
        for shapes, scales, message in (
            ((0.0,), (1.0,), "shape must be positive, got 0.0"),
            ((1.0,), (-2.0,), "rate must be positive, got -2.0"),
        ):
            with pytest.raises(ValueError, match=message):
                spec("gamma", shapes, scales)
        with pytest.raises(ValueError, match="at least one component"):
            ConvolutionSpec("negbin", [], [])

    def test_csv_round_trips_17_digits(self, tmp_path):
        path = tmp_path / "curve.csv"
        pts = np.array([0.1, 0.2])
        vals = np.array([1 / 3, 2 / 3])
        errs = np.array([1e-12, 1e-12])
        export_curve_csv(path, pts, vals, errs)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k_or_t,value,error_bound"
        for line, v in zip(lines[1:], vals):
            assert float(line.split(",")[1]) == v

    def test_truncated_pmf_validation(self):
        with pytest.raises(ValueError):
            TruncatedPMF(0.0, np.array([0.5, 0.1]), 0.0)  # mass far from 1
        with pytest.raises(ValueError):
            TruncatedPMF(0.0, np.array([0.7, 0.4]), 0.0)  # mass above 1
        TruncatedPMF(0.0, np.array([0.7, 0.3]), 1e-6)  # the bound may exceed the tail
        with pytest.raises(ValueError):
            TruncatedPMF(0.0, np.array([1.0, -0.1]), 0.1)
