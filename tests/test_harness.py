import dataclasses
import hashlib
import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stochord import distributions, exact, harness
from stochord.arrangement import pair
from stochord.distributions import (
    DEFAULT_TAIL_CAP,
    default_gamma_grid,
    nb_convolution,
    shape_mixture_pmf,
    spec,
    survival_dominance_check,
)
from stochord.exact import levy_terms
from stochord.harness import (
    MATRIX,
    Scenario,
    ScenarioName,
    generate_instance,
    numeric_conv_check,
    numeric_st_check,
    run_scenario,
    verify_theorem_instance,
    worked_example_specs,
    write_reports,
)
from stochord.rc_order import (
    ElementaryMove,
    MoveKind,
    RcChain,
    RcMode,
    decide_wrc,
    verify_rc_chain,
)
from stochord.verdicts import OrderVerdict, Status


def worked_example_chain() -> RcChain:
    """Oracle: the published three-move chain through ((0.4,0.6,0.5),(2,2,5))
    and ((0.7,0.3,0.5),(2,2,5))."""
    p0 = pair((0.4, 0.6, 0.5), (2.0, 3.0, 4.0))
    p1 = pair((0.4, 0.6, 0.5), (2.0, 2.0, 5.0))
    p2 = pair((0.7, 0.3, 0.5), (2.0, 2.0, 5.0))
    p3 = pair((0.7, 0.3, 0.5), (1.0, 3.0, 5.0))
    moves = (
        ElementaryMove(MoveKind.MAJORIZE_Y, 1, 2),
        ElementaryMove(MoveKind.MAJORIZE_X, 0, 1),
        ElementaryMove(MoveKind.MAJORIZE_Y, 0, 1),
    )
    return RcChain((p0, p1, p2, p3), moves, RcMode.STRICT)


class TestGenerateInstance:
    def test_matrix_covers_every_scenario(self):
        assert {row.name for row in MATRIX} == set(ScenarioName)

    def test_deterministic_in_seed(self):
        for name, fam, n, _ in MATRIX:
            s = Scenario(name, fam, n, 11)
            assert generate_instance(s) == generate_instance(s)

    def test_different_seeds_differ(self):
        a = generate_instance(Scenario(ScenarioName.RAISE_ALPHA, "negbin", 3, 0))
        b = generate_instance(Scenario(ScenarioName.RAISE_ALPHA, "negbin", 3, 1))
        assert a != b

    def test_swap_scenarios_reject_n1(self):
        for name in (ScenarioName.MAJORIZE_BETA, ScenarioName.CONV_AI, ScenarioName.AI_TAIL):
            with pytest.raises(ValueError):
                generate_instance(Scenario(name, "negbin" if name is not ScenarioName.AI_TAIL else "gamma", 1, 0))

    def test_n_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Scenario(ScenarioName.RAISE_ALPHA, "negbin", 7, 0)
        with pytest.raises(ValueError):
            Scenario(ScenarioName.RAISE_ALPHA, "negbin", 0, 0)

    def test_raise_alpha_hypothesis(self):
        s1, s2 = generate_instance(Scenario(ScenarioName.RAISE_ALPHA, "negbin", 4, 5))
        assert all(a1 < a2 for a1, a2 in zip(s1.shapes, s2.shapes))
        assert s1.scales == s2.scales

    def test_opposite_ordered_weak_hypothesis(self):
        s1, s2 = generate_instance(
            Scenario(ScenarioName.OPPOSITE_ORDERED_WEAK, "negbin", 4, 3)
        )
        assert list(s2.shapes) == sorted(s2.shapes)
        assert list(s2.scales) == sorted(s2.scales, reverse=True)

    def test_log_majorize_hypothesis(self):
        s1, s2 = generate_instance(
            Scenario(ScenarioName.LOG_MAJORIZE_BETA_ST, "negbin", 2, 9)
        )
        lhs = np.log(s1.scales[0]) + np.log(s1.scales[1])
        rhs = np.log(s2.scales[0]) + np.log(s2.scales[1])
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestWorkedExample:
    def test_specs(self):
        s1, s2 = worked_example_specs()
        assert s1.shapes == (0.4, 0.6, 0.5) and s1.scales == (2.0, 3.0, 4.0)
        assert s2.shapes == (0.7, 0.3, 0.5) and s2.scales == (1.0, 3.0, 5.0)

    def test_three_move_chain_verifies(self):
        chain = worked_example_chain()
        assert len(chain.moves) == 3
        assert chain.mode is RcMode.STRICT
        assert verify_rc_chain(chain)
        assert chain.pairs[1].y == (2.0, 2.0, 5.0)
        assert chain.pairs[2].x == (0.7, 0.3, 0.5)

    def test_full_verification_holds_both_layers(self):
        s1, s2 = worked_example_specs()
        report = verify_theorem_instance(s1, s2, "conv")
        assert report.param_status == "holds"
        assert report.numeric_status == "holds"


class TestVerifyTheoremInstance:
    def test_equal_specs_hold_with_zero_margins(self):
        s = spec("negbin", (1.0, 2.0), (0.5, 0.6))
        r = verify_theorem_instance(s, s, "conv")
        assert r.param_status == "holds" and r.param_moves == 0
        assert r.numeric_status == "holds"

    def test_family_mismatch_rejected(self):
        a = spec("negbin", (1.0,), (0.5,))
        b = spec("gamma", (1.0,), (0.5,))
        with pytest.raises(ValueError):
            verify_theorem_instance(a, b, "conv")
        with pytest.raises(ValueError):
            verify_theorem_instance(a, a, "total")

    def test_direction_sanity_strict_instance(self):
        s1, s2 = generate_instance(Scenario(ScenarioName.LOWER_BETA, "negbin", 3, 2))
        forward = verify_theorem_instance(s1, s2, "conv")
        backward = verify_theorem_instance(s2, s1, "conv")
        assert forward.numeric_status == "holds"
        assert backward.numeric_status != "holds"

    def test_conv_certificate_implies_st(self):
        s1, s2 = generate_instance(Scenario(ScenarioName.MAJORIZE_BETA, "negbin", 3, 4))
        assert numeric_conv_check(s1, s2).status is Status.HOLDS
        assert numeric_st_check(s1, s2).status is Status.HOLDS

    def test_gamma_conv_check_records_the_latent_total_shapes(self):
        s1, s2 = worked_example_specs()
        v = numeric_conv_check(s1, s2)
        assert v.status is Status.HOLDS
        assert v.detail["total_shapes"] == [1.5, 1.5] and "certified" not in v.detail

    def test_scenario_batches_agree(self):
        for name, fam, n, order in MATRIX:
            reports = run_scenario(name, fam, n, range(3), order)
            for r in reports:
                assert r.param_status == "holds", (name, r.seed)
                assert r.numeric_status == "holds", (name, r.seed)
                assert r.agreed


    @pytest.mark.parametrize("n", range(2, 7))
    def test_matrix_holds_at_every_size(self, n):
        for name, fam, _, order in MATRIX:
            for r in run_scenario(name, fam, n, range(2), order):
                assert r.param_status == "holds", (name, fam, n, r.seed)
                assert r.numeric_status == "holds", (name, fam, n, r.seed)


# sha256 per scenario-matrix row of the row's numeric check, status and
# record, on both directions of every instance at n = 2..6, seeds 0..2
CHECK_DIGESTS = {
    ("RaiseAlpha", "negbin"): "3fe1020fc182aad3e776413a749505f3611443a1df24abd0ce6a26732104c2d9",
    ("LowerBeta", "negbin"): "519c66cd9fab9917ecdeb16c49ffc572b8be815086f209fcfab52e0586089a2f",
    ("MajorizeBeta", "negbin"): "54a59b0a7120bebe43456377fb0df048e002f4a50ec168768875b20acd5ec745",
    ("DiffAlphaMajorizeBeta", "negbin"): "fdaa153c8f29796e9742cdf2f8bfde1fd7ed6bf74ec3ae91d25a8edbd08c9384",
    ("MajorizeAlpha", "negbin"): "b6ff939597aee03063a9b5f81c3dae0b7d7d2f4967be0cdbe5b5ef40ddee0f50",
    ("ConvAI", "negbin"): "5467f5e50eeca3ea56547ec186d14c66a2d8b3a59e72618da604fd0f9fe33957",
    ("RcGeneral", "negbin"): "997119a6a9ba692a652d9b9406fc66e00110f1791df4db99b8b71ec83d4b0ed9",
    ("GammaConv", "gamma"): "1cca091c317d3e238a1bed683a3ce8e2708818fee2f34fa6ac645faa13600e45",
    ("OppositeOrderedWeak", "negbin"): "e11c3c3a571b9fae22bcd2c20338dce1c6a3a04e3e2038d969c54faf991323d0",
    ("LogMajorizeBetaSt", "negbin"): "e3e3ed2d777b6e232295ec1591a2949049136762bbe40aff87b75f55fee926c3",
    ("StGeneral", "negbin"): "8f20c3cd45976d0b87deac377cab20bb86340ceabf92253224d2365e8ef1a6bd",
    ("StGeneral", "gamma"): "2f373edb9cc84a399030b8390230e435dea61a74a604deef5e6abef66c9ea144",
    ("AITail", "gamma"): "8de8ca0d1f6886048a58b7b3cf71463fb81d1d81a12559b1aa270f5c3ace7c83",
    ("CoupledGammaPair", "gamma"): "fa00fc3f0723016690b023474d45fe7b6644b5921bacc2c1deb5b051ca105874",
    ("MixtureLemmaSt", "negbin"): "5abe42a35c1e41285caf04a3bedcdce1d0ba20279e9bfa456de5a5cfca5cef2d",
}


def _check_digests(rows=MATRIX) -> dict:
    digests = {}
    for row in rows:
        check = numeric_conv_check if row.order == "conv" else numeric_st_check
        h = hashlib.sha256()
        for n, seed in itertools.product(range(2, 7), range(3)):
            s1, s2 = generate_instance(Scenario(row.name, row.family, n, seed))
            for a, b in ((s1, s2), (s2, s1)):
                v = check(a, b)
                h.update(v.status.value.encode())
                h.update(json.dumps(v.violation or v.detail, sort_keys=True).encode())
        digests[row.name.value, row.family] = h.hexdigest()
    return digests


# sha256 per scenario-matrix row of the report line and the witness text of
# verify_theorem_instance, on every instance at n = 2..6, seeds 0..2
REPORT_DIGESTS = {
    ("RaiseAlpha", "negbin"): "b03582b03146695f9288d1d5f91ad30471d80f1274ffeae3ffa67e05f62d0d68",
    ("LowerBeta", "negbin"): "6d45f3fe3e388837dde50ca3ad923c94b59da4a2fea1f221d356a8715840181f",
    ("MajorizeBeta", "negbin"): "1cfc6e3e43fcd240fee25e91ce1419885d203681a837cccc57461a18a81bbc15",
    ("DiffAlphaMajorizeBeta", "negbin"): "229e2bdbbe75b73c6724c6c1599d4b033108567c1b63e2bef4ceb679e40fecab",
    ("MajorizeAlpha", "negbin"): "7163f372d518ec434dda7cd530aebad9638cb83d39c5f212c49b9ab4d0024fba",
    ("ConvAI", "negbin"): "a60420f67986d5522f2ff629aaaa23bf88c4a41ca6d216ebf58d06f1670be5a9",
    ("RcGeneral", "negbin"): "12b3512bfd1d34a010d2a918a4075a03559fcb774bfff4c87ba7b7b9754b81f0",
    ("GammaConv", "gamma"): "853bb8223a73a7587334dfa7dc42042683ac4101e27c64f75737f4fc46c21be6",
    ("OppositeOrderedWeak", "negbin"): "eac6bd328bb68f7e4054ebf426cae2b104545fb51a0d0bafbfe4e9b463af3162",
    ("LogMajorizeBetaSt", "negbin"): "051966b78acd8b2b6edc6f2fb9527d76ce35e28bb41aee40de80d45e78bc44b1",
    ("StGeneral", "negbin"): "e26c33230dae55a57d63f42f464c70b50a04f10f061b9bb566aa7e0ad2042e8f",
    ("StGeneral", "gamma"): "1b43a32cc5632465459ea6fe95d9327557af0971e8fc93d41d30e1299a7afba1",
    ("AITail", "gamma"): "7a31223dac7e46b7df4ff4cfd58444dcf1b2c58723a90e6252cd312cf4fd09b8",
    ("CoupledGammaPair", "gamma"): "18eaf60c1a4c65007b3dc43f76471002befcb06825f9f24d05e5afaf7dda6c8d",
    ("MixtureLemmaSt", "negbin"): "b92fe425dc80dc5e36aeffa2797f8dd230502f1a0af7cb542e05fb61c1981518",
}


def _report_digests(rows=MATRIX) -> dict:
    digests = {}
    for row in rows:
        h = hashlib.sha256()
        for n, seed in itertools.product(range(2, 7), range(3)):
            s1, s2 = generate_instance(Scenario(row.name, row.family, n, seed))
            r = verify_theorem_instance(
                s1, s2, row.order, scenario=row.name.value, seed=seed, emit_witness=True
            )
            h.update(f"{r.to_json_line()}\n{r.witness_json}\n".encode())
        digests[row.name.value, row.family] = h.hexdigest()
    return digests


class TestNumericChecks:
    def test_details_match_pinned_digests(self):
        assert _check_digests() == CHECK_DIGESTS

    @pytest.mark.parametrize("family", ["negbin", "gamma"])
    def test_reversed_st_check_builds_no_law(self, family, monkeypatch):
        """The exact stage decides the pair both ways: certified forward,
        refuted by its right tail reversed, and no law is built."""
        built = spy_builders(monkeypatch)
        s1, s2 = generate_instance(Scenario(ScenarioName.ST_GENERAL, family, 4, 5))
        forward, reverse = numeric_st_check(s1, s2), numeric_st_check(s2, s1)
        assert forward.holds and forward.detail["certified"] == "levy"
        assert reverse.refuted and reverse.violation["tail"] == "right"
        assert built == []

    def test_reversed_gamma_conv_check_builds_no_latent(self, monkeypatch):
        built = spy_builders(monkeypatch)
        s1, s2 = generate_instance(Scenario(ScenarioName.GAMMA_CONV, "gamma", 4, 1))
        forward, reverse = numeric_conv_check(s1, s2), numeric_conv_check(s2, s1)
        assert forward.holds and forward.detail == {"certified": "levy", "order": 2}
        assert reverse.refuted and reverse.violation["tail"] == "right"
        assert built == []

    def test_reversed_gamma_st_check_builds_no_grid(self, monkeypatch):
        """The worked example is left to the grid forward (its exact total
        shapes differ by 2^-54, under X's), and refuted by its smallest
        rates reversed: one grid in all."""
        built = []
        real = distributions.default_gamma_grid

        def spy(specs):
            built.append(list(specs))
            return real(specs)

        monkeypatch.setattr(distributions, "default_gamma_grid", spy)
        s1, s2 = worked_example_specs()
        assert numeric_st_check(s1, s2).holds
        reverse = numeric_st_check(s2, s1)
        assert reverse.refuted and reverse.violation == {"tail": "right", "min_rates": [1.0, 2.0]}
        assert built == [[s1, s2]]

    def test_grid_is_the_same_in_either_order(self):
        """The pair's laws are on the grid of either order, and on that of
        one spec for a spec paired with itself."""
        for seed in range(5):
            s1, s2 = generate_instance(Scenario(ScenarioName.ST_GENERAL, "gamma", 3, seed))
            want = default_gamma_grid([s1, s2])
            assert np.array_equal(default_gamma_grid([s2, s1]), want)
            for a, b in ((s1, s2), (s2, s1)):
                laws = harness._pair_laws(a, b, "st", DEFAULT_TAIL_CAP)
                assert all(np.array_equal(law.points, want) for law in laws)
            (law, _) = harness._pair_laws(s1, s1, "st", DEFAULT_TAIL_CAP)
            assert np.array_equal(law.points, default_gamma_grid([s1]))

    def test_every_gamma_conv_matrix_pair_holds(self):
        """Certified from the Lévy measure, or, for the 25 pairs whose exact
        total shapes differ by an ulp under X's, by the latents."""
        certified = 0
        for n, seed in itertools.product(range(2, 7), range(30)):
            s1, s2 = generate_instance(Scenario(ScenarioName.GAMMA_CONV, "gamma", n, seed))
            v = numeric_conv_check(s1, s2)
            assert v.holds, (n, seed)
            if v.detail.get("certified") == "levy":
                certified += 1
            else:
                assert "total_shapes" in v.detail and "certified" not in v.detail, (n, seed)
        assert certified == 125

    @pytest.mark.parametrize("family", ["negbin", "gamma"])
    def test_bad_tolerances_are_refused_whatever_the_pair(self, family):
        """A ``tail_cap`` outside (0, 1), or a ``tol`` that is negative or
        not finite, raises in both numeric checks and through
        ``verify_theorem_instance``, on a spec against itself, which the
        exact stage decides, and on a pair that it leaves to the lattices or
        the grid.  A ``tol`` of ``inf`` once made the negbin pair's refuted
        conv order ``holds``."""
        if family == "negbin":
            s1 = spec("negbin", (2.3, 1.75), (0.65, 0.42))
            s2 = spec("negbin", (1.78, 1.74), (0.26, 0.85))
            assert numeric_conv_check(s1, s2).refuted
        else:
            s1, s2 = worked_example_specs()
        bad = [(cap, 1e-9, r"tail_cap must be in \(0,1\)") for cap in (0.0, 1.0, math.inf, math.nan)]
        bad += [
            (DEFAULT_TAIL_CAP, tol, "tol must be nonnegative and finite")
            for tol in (-1e-9, math.inf, math.nan)
        ]
        for order, check in (("conv", numeric_conv_check), ("st", numeric_st_check)):
            assert exact.decide(s1, s1, order).holds and exact.decide(s1, s2, order) is None
            for a, b in ((s1, s1), (s1, s2)):
                for tail_cap, tol, words in bad:
                    with pytest.raises(ValueError, match=words):
                        check(a, b, tail_cap, tol)
                    with pytest.raises(ValueError, match=words):
                        verify_theorem_instance(a, b, order, tail_cap=tail_cap, tol=tol)

    def test_larger_total_shape_is_refuted_exactly(self):
        s1 = spec("gamma", (1.0, 0.5), (2.0, 3.0))
        s2 = spec("gamma", (1.2, 0.1), (1.0, 3.0))
        v = numeric_conv_check(s1, s2)
        assert v.refuted and v.violation == {"total_shapes": [1.5, 1.3]} and v.detail == {}
        # within tol, the latents go on to the deconvolution
        v = numeric_conv_check(s1, s2, tol=0.25)
        assert v.holds and v.detail["total_shapes"] == [1.5, 1.3]

    def test_a_latent_refutation_is_unknown(self):
        """Net atoms +1.75 at rate 0.25, −1.75 at 1, −2.25 at 2.25 and +4.25
        at 3.5: neither exact test certifies ``h ≥ 0`` (a prefix sum is
        −2.25, ``M2`` is −1.5 at rate 3.5), yet ``h > 0`` on ``u > 0``
        (50 digits), so ``X ≤_conv Y``.  The latents' deconvolution has a
        negative coefficient far past its bound: it refutes the reduction,
        not the order, and the verdict is ``unknown``."""
        mp = pytest.importorskip("mpmath")
        s1 = spec("gamma", (1.75, 2.25), (1.0, 2.25))
        s2 = spec("gamma", (4.25, 1.75), (3.5, 0.25))
        assert exact.decide(s1, s2, "conv") is None
        v = numeric_conv_check(s1, s2)
        assert v.unknown and v.violation is None
        assert v.detail["reason"] == "latent reduction refuted"
        assert v.detail["coeff"] < -0.1 and v.detail["error_bound"] < 1e-10
        assert v.detail["total_shapes"] == [4.0, 6.0]
        with mp.workdps(50):
            assert all(mp_h(s1, s2, mp.mpf(2) ** (e / 4), mp)[0] > 0 for e in range(-40, 40))

    @pytest.mark.parametrize(
        "shapes, rates, order, tol",
        [
            ((0.35, 0.35, 1e8), (1.0, 2.0, 3.0), (2, 0, 1), 1e-9),
            ((0.1, 0.2, 0.3), (1.0, 2.0, 3.0), (2, 1, 0), 0.0),
        ],
    )
    def test_a_permuted_spec_is_not_refuted(self, shapes, rates, order, tol):
        """Summed left to right, the permuted totals differ in the last bit
        (by 1.5e-8 at the shape 1e8, past the default tol); rounded once,
        they are equal."""
        s1 = spec("gamma", shapes, rates)
        s2 = spec("gamma", [shapes[i] for i in order], [rates[i] for i in order])
        assert sum(s1.shapes) != sum(s2.shapes)
        for a, b in ((s1, s2), (s2, s1)):
            # equal laws: the exact stage certifies them, and so do the latents
            assert numeric_conv_check(a, b, tol=tol).detail == {"certified": "levy", "order": 1}
            v = laws_conv_check(a, b, tol=tol)
            assert v.holds and v.detail["total_shapes"] == [math.fsum(shapes)] * 2


# conv-sweep's MajorizeBeta n = 6 pair at seed 7: a k = 1 tie (S_1 = 0
# exactly) whose lattice deconvolution leaves it unknown
TIE_SHAPES = (2.251887981974863,) * 6
TIE_PADDING = (0.28443082756008337, 0.29372752963317, 0.38208353923975524, 0.26269509006847536)
TIE_PAIR = (
    spec("negbin", TIE_SHAPES, (0.5327530812913973, 0.4262196727844332) + TIE_PADDING),
    spec("negbin", TIE_SHAPES, (0.5433086776247692, 0.4156640764510613) + TIE_PADDING),
)
# the CLI's opposite-ordered lift pair; its top atom dominates from k = 1
LIFT_PAIR = (
    spec("negbin", (0.5, 1.2, 1.2), (0.7, 0.6, 0.5)),
    spec("negbin", (0.6, 1.0, 1.5), (0.8, 0.6, 0.3)),
)


def laws_conv_check(s1, s2, **kwargs):
    """``numeric_conv_check`` with the exact stage switched off."""
    with mock.patch.object(exact, "decide", lambda *args: None):
        return numeric_conv_check(s1, s2, **kwargs)


def laws_st_check(s1, s2):
    """``numeric_st_check`` with the exact stage switched off."""
    with mock.patch.object(exact, "decide", lambda *args: None):
        return numeric_st_check(s1, s2)


def exact_levy_sums(s1, s2, k_max: int) -> list:
    """Oracle: ``S_k = Σ_Y a q^k − Σ_X a q^k``, ``q = 1 − p`` read exactly,
    for ``k = 1..k_max``, component by component, each scaled by a positive
    power of two to an integer of the same sign; and ``T_{k_max}``, the same
    sum over the top net atom and the negative ones alone."""
    comps = [(-Fraction(a), 1 - Fraction(p)) for a, p in zip(s1.shapes, s1.scales)]
    comps += [(Fraction(a), 1 - Fraction(p)) for a, p in zip(s2.shapes, s2.scales)]
    # every denominator is a power of two
    f = max(w.denominator for w, _ in comps)
    d = max(q.denominator for _, q in comps)
    weights = [w.numerator * (f // w.denominator) for w, _ in comps]
    qs = [q.numerator * (d // q.denominator) for _, q in comps]
    sums, terms = [], list(weights)
    for _ in range(k_max):
        terms = [t * q for t, q in zip(terms, qs)]
        sums.append(sum(terms))
    net = {}
    for w, q in zip(weights, qs):
        net[q] = net.get(q, 0) + w
    atoms = sorted(((q, w) for q, w in net.items() if w), reverse=True)
    top = atoms[:1] if atoms and atoms[0][1] > 0 else []
    dominance = sum(w * q**k_max for q, w in top + [(q, w) for q, w in atoms if w < 0])
    return sums, dominance


class TestLevyCertificate:
    def test_pinned_tie_is_certified_where_the_lattice_is_unknown(self, monkeypatch):
        assert exact_levy_sums(*TIE_PAIR, 1)[0] == [0]  # the rounding bound cannot decide
        built = spy_builders(monkeypatch)
        v = numeric_conv_check(*TIE_PAIR)
        assert v.holds and v.detail == {"certified": "levy", "terms": 39}
        assert built == []
        v = laws_conv_check(*TIE_PAIR)
        assert v.unknown and v.detail["index"] == 36 and v.detail["error_bound"] == 1e30
        assert v.detail["coeff"] == pytest.approx(-1.44e-9, rel=0.01)

    @pytest.mark.parametrize(
        "pair, terms",
        [
            (TIE_PAIR, 39),
            (LIFT_PAIR, 1),
            (generate_instance(Scenario(ScenarioName.RC_GENERAL, "negbin", 3, 23)), 934),
            (generate_instance(Scenario(ScenarioName.RAISE_ALPHA, "negbin", 4, 0)), 1),
        ],
        ids=["majorize-beta-tie", "lift", "rc-general-934", "raise-alpha"],
    )
    def test_every_sum_before_the_dominance_is_exactly_nonnegative(self, pair, terms):
        assert levy_terms(*pair) == terms
        sums, dominance = exact_levy_sums(*pair, terms)
        assert all(s >= 0 for s in sums) and dominance >= 0
        # past the dominance, every later sum is nonnegative too
        later, _ = exact_levy_sums(*pair, 2 * terms + 5)
        assert all(s >= 0 for s in later)

    def test_a_tie_below_zero_falls_through_to_the_lattice(self):
        """A MajorizeBeta pair whose exact S_1 is below zero by an ulp: not
        conv ordered as read, but the lattice says holds within tol, as it
        did before the certificate."""
        s1, s2 = generate_instance(Scenario(ScenarioName.MAJORIZE_BETA, "negbin", 2, 5))
        sums, _ = exact_levy_sums(s1, s2, 1)
        assert sums[0] < 0
        assert levy_terms(s1, s2) is None
        v, lattice = numeric_conv_check(s1, s2), laws_conv_check(s1, s2)
        assert (v.status, v.detail) == (lattice.status, lattice.detail)
        assert v.holds and v.detail == {"min_coeff": -7.469292239286902e-13, "sum": 1.0000000000001077}

    @pytest.mark.parametrize(
        "p1, shape, p2, terms",
        [(0.37, 0.75, 0.16, None), (0.39, 0.8840579710144928, 0.31, 1)],
        ids=["below-zero", "above-zero"],
    )
    def test_a_sum_that_rounds_to_zero_is_decided_exactly(self, p1, shape, p2, terms):
        """``shape (1 − p2)`` and ``1 − p1`` round to one float, but their
        exact difference ``S_1`` is of the other sign than ``terms`` shows."""
        s1, s2 = spec("negbin", (1.0,), (p1,)), spec("negbin", (shape,), (p2,))
        assert math.fsum([shape * (1.0 - p2), -(1.0 - p1)]) == 0.0
        (s_1,), _ = exact_levy_sums(s1, s2, 1)
        assert (s_1 > 0) is (terms is not None) and s_1 != 0
        assert levy_terms(s1, s2) == terms

    def test_a_negative_top_atom_falls_through(self):
        """The certificate passes the pair on; the right-tail test refutes it
        exactly, as the lattice does."""
        s1, s2 = LIFT_PAIR
        assert levy_terms(s2, s1) is None
        v, lattice = numeric_conv_check(s2, s1), laws_conv_check(s2, s1)
        assert v.refuted and v.violation == {"tail": "right", "min_probs": [0.3, 0.5]}
        assert lattice.refuted

    def test_a_net_weight_past_the_floats_certifies_nothing(self):
        """The shapes at p = 0.6 pass the largest float in ``fsum``, behind
        Y's positive top atom at p = 0.5: the certificate reads no partial
        list of net atoms, and the stage leaves the pair undecided."""
        s1 = spec("negbin", (1e308, 1e308), (0.6, 0.6))
        s2 = spec("negbin", (1.0, 1e308, 1e308), (0.5, 0.6, 0.6))
        assert levy_terms(s1, s2) is None and exact.certificate(s1, s2) is None
        assert exact.decide(s1, s2, "conv") is None and exact.decide(s1, s2, "st") is None

    def test_equal_laws_need_no_lattice(self):
        s = spec("negbin", (1.0, 2.0), (0.5, 0.6))
        merged = spec("negbin", (0.5, 2.0, 0.5), (0.5, 0.6, 0.5))
        assert levy_terms(s, s) == levy_terms(s, merged) == 1

    def test_gamma_pairs_are_not_read(self):
        """``levy_terms`` is the negative binomial certificate; a gamma pair
        is read by ``gamma_levy_order``, which leaves the worked example (its
        exact total shapes differ by 2^-54, under X's) to the latents."""
        s1, s2 = worked_example_specs()
        assert exact.certificate(s1, s2) is None
        assert "certified" not in numeric_conv_check(s1, s2).detail
        for seed in range(10):
            pair = generate_instance(Scenario(ScenarioName.GAMMA_CONV, "gamma", 3, seed))
            assert "terms" not in (exact.certificate(*pair) or {})

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_certificate_on_random_pairs(self, data):
        s1, s2 = data.draw(random_negbin_pairs())
        if data.draw(st.booleans()):
            s1, s2 = s2, s1
        terms = levy_terms(s1, s2)
        if terms is not None:
            sums, dominance = exact_levy_sums(s1, s2, terms)
            assert all(s >= 0 for s in sums) and dominance >= 0
            assert not laws_conv_check(s1, s2).refuted
        # the verdict reads the net atoms only: not the order of the
        # components, nor how a shape is split between components of one p
        order = data.draw(st.permutations(range(s1.n)))
        permuted = spec("negbin", [s1.shapes[i] for i in order], [s1.scales[i] for i in order])
        assert levy_terms(permuted, s2) == terms
        i = data.draw(st.integers(0, s2.n - 1))
        part = s2.shapes[i] * data.draw(st.floats(0.5, 0.9))  # the rest is exact
        shapes = list(s2.shapes)
        shapes[i] = part
        split = spec("negbin", shapes + [s2.shapes[i] - part], s2.scales + (s2.scales[i],))
        assert levy_terms(s1, split) == terms


@st.composite
def random_negbin_pairs(draw):
    """Random pairs not shaped by any scenario: targets with shapes in
    [0.3, 2.5] and success probabilities in [0.25, 0.9]; starts with shapes
    lowered by −0.3 to 0.6 (at least 0.01) and probabilities raised by −0.1
    to 0.2 (at most 0.95), permuted; every value of two decimals."""
    n = draw(st.integers(2, 4))
    shapes = draw(st.lists(st.integers(30, 250), min_size=n, max_size=n))
    probs = draw(st.lists(st.integers(25, 90), min_size=n, max_size=n))
    lower = draw(st.lists(st.integers(-30, 60), min_size=n, max_size=n))
    raise_ = draw(st.lists(st.integers(-10, 20), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    start_shapes = [max(shapes[i] - lower[i], 1) / 100 for i in order]
    start_probs = [min(probs[i] + raise_[i], 95) / 100 for i in order]
    return (
        spec("negbin", start_shapes, start_probs),
        spec("negbin", [a / 100 for a in shapes], [p / 100 for p in probs]),
    )


def spy_builders(monkeypatch) -> list:
    """The specs that the law builders are called with; a builder called
    inside another (a gamma CDF's latent) is not counted."""
    built = []
    depth = [0]

    def spy(build):
        def counted(s, *args):
            if not depth[0]:
                built.append(s)
            depth[0] += 1
            try:
                return build(s, *args)
            finally:
                depth[0] -= 1

        return counted

    for name in ("nb_convolution", "gamma_convolution_cdf", "gamma_latent"):
        monkeypatch.setattr(distributions, name, spy(getattr(distributions, name)))
    return built


# Two random gamma pairs on which the grid says st holds (excess 0 at
# t = 1e-9), but whose survivals cross past the grid's end (the first) or
# below its first point (the second)
RIGHT_TAIL_PAIR = (
    spec("gamma", (0.05, 0.74, 1.31, 1.12), (0.72, 2.74, 1.95, 1.55)),
    spec("gamma", (1.57, 0.48, 1.13, 1.57), (1.14, 1.01, 2.53, 1.84)),
)
LEFT_TAIL_PAIR = (
    spec("gamma", (0.55, 2.63, 0.49, 1.61), (0.81, 2.28, 0.59, 1.7)),
    spec("gamma", (0.81, 1.43, 2.47, 0.44), (0.88, 1.47, 2.13, 0.58)),
)


def mp_gamma_cdf(s, t, mp, left_out=1e-30):
    """Oracle: bounds ``(lo, hi)`` on the CDF at ``t`` of the gamma
    convolution ``s``, and ``(lo, hi)`` on its survival, at the caller's
    mpmath precision.  Moschopoulos' series (1985) is built in mpmath from
    the parameters, independent of the package: the law is a mixture over
    ``k`` of gammas of shape ``ρ + k`` and the largest rate ``β``, with
    weights ``C δ_k``, ``C = Π (b/β)^a``, ``δ_0 = 1``, ``δ_k = (1/k) Σ_{i≤k}
    i γ_i δ_{k−i}`` and ``γ_i = Σ a (1 − b/β)^i / i``; the weights left out
    sum to at most ``left_out``."""
    shapes = [mp.mpf(a) for a in s.shapes]
    rates = [mp.mpf(b) for b in s.scales]
    beta, rho = max(rates), mp.fsum(shapes)
    x = beta * mp.mpf(t)
    qs = [1 - b / beta for b in rates]
    weight = mp.fprod((b / beta) ** a for a, b in zip(shapes, rates))
    gammas, deltas = [], [mp.mpf(1)]
    cdf = weight * mp.gammainc(rho, 0, x, regularized=True)
    survival = weight * mp.gammainc(rho, x, mp.inf, regularized=True)
    left = 1 - weight
    while left > left_out:
        k = len(deltas)
        gammas.append(mp.fsum(a * q**k for a, q in zip(shapes, qs)) / k)
        deltas.append(mp.fsum(i * gammas[i - 1] * deltas[k - i] for i in range(1, k + 1)) / k)
        w = mp.fprod((b / beta) ** a for a, b in zip(shapes, rates)) * deltas[k]
        cdf += w * mp.gammainc(rho + k, 0, x, regularized=True)
        survival += w * mp.gammainc(rho + k, x, mp.inf, regularized=True)
        left -= w
    return (cdf, cdf + left), (survival, survival + left)


def mp_h(s1, s2, u, mp) -> tuple:
    """Oracle: ``h(u) = Σ_Y a e^{−bu} − Σ_X a e^{−bu}`` at the caller's
    mpmath precision, component by component, and the sum of the terms'
    magnitudes."""
    terms = [-mp.mpf(a) * mp.exp(-mp.mpf(b) * u) for a, b in zip(s1.shapes, s1.scales)]
    terms += [mp.mpf(a) * mp.exp(-mp.mpf(b) * u) for a, b in zip(s2.shapes, s2.scales)]
    return mp.fsum(terms), mp.fsum(map(abs, terms))


@st.composite
def random_gamma_pairs(draw):
    """Random pairs not shaped by any scenario: targets with shapes in
    [0.3, 2.5] and rates in [0.5, 4]; starts with shapes lowered by −0.3 to
    0.6 and rates raised by −0.3 to 0.6 (each at least 0.01), permuted;
    every value of two decimals."""
    n = draw(st.integers(2, 4))
    shapes = draw(st.lists(st.integers(30, 250), min_size=n, max_size=n))
    rates = draw(st.lists(st.integers(50, 400), min_size=n, max_size=n))
    lower = draw(st.lists(st.integers(-30, 60), min_size=n, max_size=n))
    raise_ = draw(st.lists(st.integers(-30, 60), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    return (
        spec("gamma", [max(shapes[i] - lower[i], 1) / 100 for i in order],
             [max(rates[i] + raise_[i], 1) / 100 for i in order]),
        spec("gamma", [a / 100 for a in shapes], [b / 100 for b in rates]),
    )


def fraction_mean(s) -> Fraction:
    """Oracle: the mean of ``s``, ``Σ a / b`` or ``Σ a (1/p − 1)``, summed
    in ``Fraction``s."""
    if s.family == "gamma":
        return sum(Fraction(a) / Fraction(b) for a, b in zip(s.shapes, s.scales))
    return sum(Fraction(a) * (1 / Fraction(p) - 1) for a, p in zip(s.shapes, s.scales))


def fraction_refutation(s1, s2, order: str) -> dict | None:
    """Oracle: :func:`exact.refutation` with its exact sums in
    ``Fraction``s: the shapes at equal smallest values and the means, each
    record rounded by ``float``; the top net atom read from a fresh merge of
    the components, each weight rounded once, up to the first nonzero one.
    Raises ``OverflowError`` where a record passes the largest float."""
    scale = "rate" if s1.family == "gamma" else "prob"
    b1, b2 = min(s1.scales), min(s2.scales)
    if b1 < b2:
        return {"tail": "right", f"min_{scale}s": [b1, b2]}
    if b1 == b2:
        a1, a2 = ([a for a, b in zip(s.shapes, s.scales) if b == b1] for s in (s1, s2))
        if sum(map(Fraction, a1)) > sum(map(Fraction, a2)):
            return {"tail": "right", f"min_{scale}": b1, "shapes": [math.fsum(a1), math.fsum(a2)]}
    if order == "st" and s1.family == "gamma":
        r1, r2 = math.fsum(s1.shapes), math.fsum(s2.shapes)
        if r1 > r2:
            return {"tail": "left", "total_shapes": [r1, r2]}
    m1, m2 = fraction_mean(s1), fraction_mean(s2)
    if m1 > m2:
        return {"means": [float(m1), float(m2)]}
    if order == "conv":
        signed = {}
        for sign, s in ((-1.0, s1), (1.0, s2)):
            for a, b in zip(s.shapes, s.scales):
                signed.setdefault(b, []).append(sign * a)
        weights = ((b, math.fsum(v)) for b, v in sorted(signed.items()))
        b, w = next(((b, w) for b, w in weights if w), (None, 0.0))
        if w < 0:
            return {"net_atom": "top", scale: b, "weight": w}
    return None


def fraction_nonnegative(signed: dict, atoms: list, k: int, which) -> bool:
    """Oracle: whether ``Σ_i w_i q_i^k ≥ 0`` over the net atoms ``which``
    (``(p, w)``, ``signed`` mapping each ``p`` to its shapes as
    :func:`exact._signed` does), each weight the ``Fraction`` sum of its
    shapes and each ``q = 1 − p`` a ``Fraction``, all scaled by powers of
    two to integers."""
    weights = [sum(map(Fraction, signed[atoms[i][0]])) for i in which]
    qs = [1 - Fraction(atoms[i][0]) for i in which]
    f = max(w.denominator for w in weights)
    d = max(q.denominator for q in qs)
    return sum(
        w.numerator * (f // w.denominator) * (q.numerator * (d // q.denominator)) ** k
        for w, q in zip(weights, qs)
    ) >= 0


def outcome(f, *args):
    """``f(*args)``, or ``"OverflowError"`` where it raises one."""
    try:
        return f(*args)
    except OverflowError:
        return "OverflowError"


# Values at the edges of the floats: subnormal, tiny and huge shapes and
# rates, and success probabilities near 0 and 1.
EDGE_SHAPES = (5e-324, 1e-300, 0.1, 0.3, 1.0, 7.5e307, 1e308, 1.7976931348623157e308)
EDGE_RATES = (5e-324, 1e-300, 0.1, 0.3, 1.0, 2.0, 1e308)
EDGE_PROBS = (5e-324, 1e-300, 0.1, 0.3, 0.5, 1 - 2.0**-30, 1 - 2.0**-53)


@st.composite
def edge_pairs(draw, families=("negbin", "gamma")):
    """Pairs of one of ``families`` that mix values of two decimals with
    ``EDGE_SHAPES`` and ``EDGE_RATES`` (``EDGE_PROBS``); the second spec
    takes some of its scales from the first, so their smallest values tie
    often."""
    family = draw(st.sampled_from(families))
    shapes = st.one_of(st.integers(1, 400).map(lambda i: i / 100), st.sampled_from(EDGE_SHAPES))
    if family == "negbin":
        scales = st.one_of(st.integers(1, 99).map(lambda i: i / 100), st.sampled_from(EDGE_PROBS))
    else:
        scales = st.one_of(st.integers(1, 400).map(lambda i: i / 100), st.sampled_from(EDGE_RATES))
    n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    scales1 = draw(st.lists(scales, min_size=n1, max_size=n1))
    scales2 = draw(st.lists(st.one_of(scales, st.sampled_from(scales1)), min_size=n2, max_size=n2))
    return (
        spec(family, draw(st.lists(shapes, min_size=n1, max_size=n1)), scales1),
        spec(family, draw(st.lists(shapes, min_size=n2, max_size=n2)), scales2),
    )


@st.composite
def equal_mean_pairs(draw):
    """Pairs with exactly equal means, most of them of two laws, from one
    list of quarters ``c``: gamma components ``(c 2^j, b 2^j)`` of mean ``c
    / b``, ``b`` of two decimals and ``j`` drawn for each spec; negative
    binomial ones ``(3c, 1/2)``, ``(c, 1/4)`` or ``(9c, 3/4)``, each of mean
    ``3c``."""
    family = draw(st.sampled_from(["negbin", "gamma"]))
    means = draw(st.lists(st.integers(1, 400).map(lambda i: i / 4), min_size=1, max_size=4))
    rates = [draw(st.integers(1, 400)) / 100 for _ in means]
    specs = []
    for _ in range(2):
        if family == "gamma":
            scaled = [(c * 2.0**j, b * 2.0**j) for c, b, j in zip(
                means, rates, draw(st.lists(st.integers(-3, 3), min_size=len(means), max_size=len(means)))
            )]
            specs.append(spec("gamma", [a for a, _ in scaled], [b for _, b in scaled]))
        else:
            forms = [draw(st.sampled_from([(3, 0.5), (1, 0.25), (9, 0.75)])) for _ in means]
            specs.append(spec("negbin", [m * c for c, (m, _) in zip(means, forms)], [p for _, p in forms]))
    return tuple(specs)


class TestExactStage:
    def test_right_tail_crossing_past_the_grid(self):
        mp = pytest.importorskip("mpmath")
        s1, s2 = RIGHT_TAIL_PAIR
        v = numeric_st_check(s1, s2)
        assert v.refuted and v.violation == {"tail": "right", "min_rates": [0.72, 1.01]}
        grid = laws_st_check(s1, s2)
        assert grid.holds and grid.detail["excess"] == 0.0
        with mp.workdps(40):
            for t, x_lo, y_hi in ((30, 5.59e-12, 1.71e-12), (40, 3.13e-15, 5.6e-17)):
                (_, (sx, _)), (_, (_, sy)) = mp_gamma_cdf(s1, t, mp), mp_gamma_cdf(s2, t, mp)
                assert sx > x_lo and sy < y_hi  # S_X(t) > S_Y(t)

    def test_left_tail_crossing_below_the_grid(self):
        mp = pytest.importorskip("mpmath")
        s1, s2 = LEFT_TAIL_PAIR
        v = numeric_st_check(s1, s2)
        assert v.refuted and v.violation == {"tail": "left", "total_shapes": [5.28, 5.15]}
        assert laws_st_check(s1, s2).holds
        with mp.workdps(40):
            ((_, fx), _), ((fy, _), _) = mp_gamma_cdf(s1, 0.05, mp), mp_gamma_cdf(s2, 0.05, mp)
        assert fx < 9.08e-9 and fy > 9.55e-9  # F_X(0.05) < F_Y(0.05)

    def test_negative_top_atom_refuted_where_the_lattice_holds(self, monkeypatch):
        """The top net atom, at p = 0.29, is X's: the lattices, cut at the
        tail cap before the heavier tail shows, said holds within tol."""
        s1 = spec("negbin", (0.42, 0.49), (0.29, 0.79))
        s2 = spec("negbin", (0.47, 0.77), (0.68, 0.3))
        built = spy_builders(monkeypatch)
        v = numeric_conv_check(s1, s2)
        assert v.refuted and v.violation == {"tail": "right", "min_probs": [0.29, 0.3]}
        assert built == []
        lattice = laws_conv_check(s1, s2)
        assert lattice.holds and lattice.detail["min_coeff"] == pytest.approx(-9.8e-12, rel=0.01)

    def test_negative_top_net_atom_behind_a_tie_refutes_conv(self, monkeypatch):
        """Equal shapes at the smallest p = 0.34 hide the top net atom, X's
        −1.02 at p = 0.38, from the right-tail test; ``G_Y / G_X`` tends to
        0 at ``1 / 0.62``.  The lattices leave the pair unknown, and the
        stochastic order, which the net atom does not decide, is unchanged."""
        s1 = spec("negbin", (0.5, 1.47, 1.02), (0.68, 0.34, 0.38))
        s2 = spec("negbin", (1.47, 1.94, 0.5), (0.34, 0.41, 0.73))
        built = spy_builders(monkeypatch)
        v = numeric_conv_check(s1, s2)
        assert v.refuted and v.violation == {"net_atom": "top", "prob": 0.38, "weight": -1.02}
        assert built == []
        assert exact.refutation(s1, s2, "st") is None and exact.decide(s1, s2, "st") is None
        st_check = numeric_st_check(s1, s2)
        assert st_check.holds and st_check.detail["t"] == 133.0
        lattice = laws_conv_check(s1, s2)
        assert lattice.unknown and lattice.detail["coeff"] == pytest.approx(-1.15e-6, rel=0.01)

    def test_negative_top_net_atom_of_gamma_specs(self):
        """X's unit shape at rate 2 is the top net atom: ``L_Y / L_X = (1 +
        s / 2) (3 / (3 + s))^2`` vanishes at ``s = −2``.  The mean and the
        total shapes do not refute."""
        s1 = spec("gamma", (1.0, 1.0), (1.0, 2.0))
        s2 = spec("gamma", (1.0, 2.0), (1.0, 3.0))
        assert exact.decide(s1, s2, "conv") == OrderVerdict(
            Status.REFUTED, violation={"net_atom": "top", "rate": 2.0, "weight": -1.0}
        )
        assert exact.decide(s1, s2, "st") is None

    def test_slowest_reversed_st_check_is_refuted_by_its_means(self, monkeypatch):
        """LogMajorizeBetaSt/negbin at n = 6, scenario seed 7000080,
        reversed: the slowest reversed st check of the st-sweep benchmark at
        seed 7 when the means were summed in ``Fraction``s.  Neither tail nor
        certificate decides it, its means refute it, and no law is built."""
        s1, s2 = generate_instance(Scenario(ScenarioName.LOG_MAJORIZE_BETA_ST, "negbin", 6, 7000080))
        built = spy_builders(monkeypatch)
        v = numeric_st_check(s2, s1)
        assert v.refuted and v.violation == {"means": [10.900591580102194, 10.799842410921043]}
        assert built == []
        assert exact.certificate(s2, s1) is None
        assert fraction_refutation(s2, s1, "st") == v.violation

    def test_specs_of_two_families_are_refused(self):
        with pytest.raises(ValueError, match="family mismatch"):
            exact.decide(spec("gamma", (1.0,), (1.0,)), spec("negbin", (1.0,), (0.5,)), "conv")

    def test_equal_smallest_rates_compare_their_shapes_exactly(self):
        """0.1 + 0.2 exceeds 0.3 as exact rationals, and the tie of equal
        totals decides nothing."""
        s1 = spec("gamma", (0.1, 0.2, 1.0), (1.0, 1.0, 3.0))
        s2 = spec("gamma", (0.3, 1.0, 1.0), (1.0, 2.0, 3.0))
        assert exact.refutation(s1, s2, "conv") == {
            "tail": "right", "min_rate": 1.0, "shapes": [0.30000000000000004, 0.3]
        }
        tie = spec("gamma", (0.25, 0.5), (1.0, 2.0)), spec("gamma", (0.25, 0.5), (1.0, 4.0))
        assert exact.refutation(*tie, "st") == {"means": [0.5, 0.375]}
        assert exact.decide(tie[1], tie[0], "st") == OrderVerdict(
            Status.HOLDS, detail={"certified": "levy", "order": 1}
        )

    def test_second_order_test_certifies_what_the_prefix_sums_miss(self):
        """Net atoms +1 at rate 1, −1.5 at 2, +1 at 4: the prefix sum −0.5
        fails test 1, but ``M2`` is 1 at rate 2 and 1.5 at rate 4."""
        mp = pytest.importorskip("mpmath")
        s1 = spec("gamma", (0.75, 0.75), (2.0, 2.0))
        s2 = spec("gamma", (1.0, 1.0), (1.0, 4.0))
        assert exact.decide(s1, s2, "st") == OrderVerdict(
            Status.HOLDS, detail={"certified": "levy", "order": 2}
        )
        with mp.workdps(50):
            assert all(mp_h(s1, s2, mp.mpf(2) ** e, mp)[0] > 0 for e in range(-10, 10))
        # more weight at rate 2 turns h negative (at e^{-u} = 0.7): the
        # stage leaves the pair to the grid
        s1 = spec("gamma", (1.0, 1.0), (2.0, 2.0))
        assert exact.certificate(s1, s2) is None and exact.decide(s1, s2, "st") is None
        with mp.workdps(50):
            assert mp_h(s1, s2, -mp.log(mp.mpf("0.7")), mp)[0] < 0

    def test_a_quantity_past_the_floats_decides_nothing(self):
        s1 = spec("gamma", (1.0,), (5e-324,))
        s2 = spec("gamma", (0.5,), (5e-324,))
        assert exact.decide(s1, s2, "st") == OrderVerdict(
            Status.REFUTED, violation={"tail": "right", "min_rate": 5e-324, "shapes": [1.0, 0.5]}
        )
        # X's total shape passes the largest float, so the left-tail test
        # cannot round it: h(u) < 0 at e^{-u} = 0.75, and the mean does not
        # refute, so no test decides the pair
        s1 = spec("gamma", (1e308, 1e308), (1.0, 1.0))
        s2 = spec("gamma", (7.5e307, 1.25e308), (0.5, 2.0))
        assert exact.certificate(s1, s2) is None
        with pytest.raises(OverflowError):
            exact.refutation(s1, s2, "st")
        assert exact.decide(s1, s2, "st") is None
        assert exact.decide(s1, s2, "conv") is None

    @settings(max_examples=300, deadline=None)
    @given(pair=st.one_of(edge_pairs(), random_negbin_pairs(), random_gamma_pairs()))
    # a subnormal rate: means near 2e23, 1/2 apart, refute conv, and their
    # records round to one float
    @example(pair=(spec("gamma", (1e-300, 1.0), (5e-324, 2.0)), spec("gamma", (1e-300, 0.5), (5e-324, 2.0))))
    # a subnormal rate: the refuting mean passes the floats in conv
    @example(pair=(spec("gamma", (1.0, 1.0), (5e-324, 1.0)), spec("gamma", (1.0, 0.5), (5e-324, 1.0))))
    # shapes near 1e308: the refuting mean passes the floats
    @example(pair=(spec("gamma", (1e308, 1.0), (0.25, 1.0)), spec("gamma", (1e308,), (0.25,))))
    # shapes near 1e308: the first net weight passes the floats in fsum
    @example(pair=(spec("gamma", (1e308, 1e308), (1.0, 1.0)), spec("gamma", (1e308, 1e308, 1.0), (1.0, 1.0, 2.0))))
    # the same past the top net atom, X's at p = 0.5, which refutes conv
    @example(pair=(
        spec("negbin", (1.0, 1.0, 1e308, 1e308), (0.3, 0.5, 0.6, 0.6)),
        spec("negbin", (1.0, 0.5, 1e308, 1e308, 5.0), (0.3, 0.5, 0.6, 0.6, 0.7)),
    ))
    # p near 1: 2^60 q / p is 128 and an ulp
    @example(pair=(spec("negbin", (2.0**60,), (1 - 2.0**-53,)), spec("negbin", (1.0,), (0.5,))))
    def test_integer_tests_match_the_fraction_oracles(self, pair):
        """The mean, an unreduced ratio of integers, is the ``Fraction``
        mean, and every refutation and its record, or its ``OverflowError``,
        is the ``Fraction`` oracle's, in either order."""
        for s in pair:
            num, den = exact._mean(s)
            assert den > 0 and Fraction(num, den) == fraction_mean(s)
        for order in ("conv", "st"):
            expected = outcome(fraction_refutation, *pair, order)
            assert outcome(exact.refutation, *pair, order) == expected
            verdict = exact.decide(*pair, order)
            if verdict is not None and verdict.refuted:
                assert verdict.violation == expected
            else:
                assert expected in (None, "OverflowError")

    @settings(max_examples=150, deadline=None)
    @given(pair=equal_mean_pairs())
    def test_exactly_equal_means_do_not_refute(self, pair):
        (n1, d1), (n2, d2) = map(exact._mean, pair)
        assert n1 * d2 == n2 * d1
        for order in ("conv", "st"):
            found = exact.refutation(*pair, order)
            assert "means" not in (found or {})
            assert found == fraction_refutation(*pair, order)

    @settings(max_examples=200, deadline=None)
    @given(
        pair=st.one_of(edge_pairs(families=("negbin",)), random_negbin_pairs()),
        k=st.integers(1, 64),
        data=st.data(),
    )
    def test_exact_sum_matches_the_fraction_oracle(self, pair, k, data):
        """Float terms of 0 leave every sign to the exact sum in integers.
        The exact sum reads only each atom's ``p``, so the atoms are those
        whose exact net weight is not zero, whether or not it is a float."""
        signed = exact._signed(*pair)
        atoms = [(p, 0.0) for p in sorted(signed) if sum(map(Fraction, signed[p]))]
        if not atoms:
            return
        which = data.draw(st.lists(st.sampled_from(range(len(atoms))), min_size=1, unique=True))
        zeros = [0.0] * len(atoms)
        assert exact._nonnegative(signed, atoms, zeros, k, which) is fraction_nonnegative(
            signed, atoms, k, which
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_gamma_certificate_on_random_pairs(self, data):
        """A certified pair has ``h ≥ 0`` at sampled points (50 digits), and
        the grid does not refute it."""
        mp = pytest.importorskip("mpmath")
        s1, s2 = data.draw(random_gamma_pairs())
        if data.draw(st.booleans()):
            s1, s2 = s2, s1
        if exact.gamma_levy_order(s1, s2) is None:
            return
        exponents = data.draw(st.lists(st.floats(-4, 3), min_size=8, max_size=8))
        with mp.workdps(50):
            for e in exponents:
                h, size = mp_h(s1, s2, mp.mpf(10) ** e, mp)
                assert h >= -mp.mpf(10) ** -45 * size, e
        assert not laws_st_check(s1, s2).refuted

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exact_holds_never_meets_a_laws_refutation(self, data):
        family = data.draw(st.sampled_from(["negbin", "gamma"]))
        s1, s2 = data.draw(random_negbin_pairs() if family == "negbin" else random_gamma_pairs())
        if data.draw(st.booleans()):
            s1, s2 = s2, s1
        decided = exact.decide(s1, s2, "st")
        if decided is not None and decided.holds:
            assert not laws_st_check(s1, s2).refuted

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_no_certificate_on_a_refuted_pair(self, data):
        family = data.draw(st.sampled_from(["negbin", "gamma"]))
        s1, s2 = data.draw(random_negbin_pairs() if family == "negbin" else random_gamma_pairs())
        if data.draw(st.booleans()):
            s1, s2 = s2, s1
        for order in ("conv", "st"):
            if exact.refutation(s1, s2, order) is not None:
                assert exact.certificate(s1, s2) is None
                assert exact.decide(s1, s2, order).refuted


class TestTheoremOnRandomPairs:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_parameter_holds_is_never_refuted_exactly(self, data):
        """The paper's theorem on pairs that no scenario shaped: where the
        weak reverse-coupled order holds on (shapes, scales), or on (shapes,
        log scales), the exact stage does not refute the convolution order,
        or the stochastic order."""
        family = data.draw(st.sampled_from(["negbin", "gamma"]))
        s1, s2 = data.draw(random_negbin_pairs() if family == "negbin" else random_gamma_pairs())
        if data.draw(st.booleans()):
            s1, s2 = s2, s1
        for order in ("conv", "st"):
            q1, q2 = harness._param_pairs(s1, s2, order)
            if decide_wrc(q1, q2, RcMode.WEAK, 50).holds:
                verdict = exact.decide(s1, s2, order)
                assert verdict is None or not verdict.refuted


class TestReports:
    def test_lines_and_witnesses_match_pinned_digests(self):
        assert _report_digests() == REPORT_DIGESTS

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_line_is_the_sorted_encoders(self, data):
        """The line equals ``json.dumps(payload, sort_keys=True)`` byte for
        byte, written after its witness or from a fresh memo, and the memo
        is outside ``==`` and ``repr``.  A gamma rate of 1.0 puts its log,
        0.0, in an st witness."""
        family = data.draw(st.sampled_from(("negbin", "gamma")))
        n = data.draw(st.integers(1, 3))

        def vector(values):
            return st.lists(st.sampled_from(values), min_size=n, max_size=n)

        scales = (0.3, 0.5, 0.7) if family == "negbin" else (0.5, 1.0, 2.0, 3.0)
        specs = st.builds(spec, st.just(family), vector((0.5, 1.0, 1.5, 2.0)), vector(scales))
        s1 = data.draw(specs)
        s2 = data.draw(st.just(s1) | specs)
        r = verify_theorem_instance(
            s1,
            s2,
            data.draw(st.sampled_from(("conv", "st"))),
            scenario=data.draw(st.none() | st.sampled_from(("RaiseAlpha", "naïve \"x\""))),
            seed=data.draw(st.none() | st.integers(-(2**70), 2**70)),
            tail_cap=data.draw(st.sampled_from((DEFAULT_TAIL_CAP, 1e-6))),
            tol=data.draw(st.sampled_from((1e-9, 0.0))),
            emit_witness=True,
        )
        payload = {
            "v": 1,
            "scenario": r.scenario,
            "seed": r.seed,
            "order": r.order,
            "spec1": r.spec1.to_dict(),
            "spec2": r.spec2.to_dict(),
            "param_status": r.param_status,
            "param_moves": r.param_moves,
            "param_violation": r.param_violation,
            "numeric_status": r.numeric_status,
            "numeric_detail": r.numeric_detail,
            "tolerances": r.tolerances,
        }
        fresh = dataclasses.replace(r, _texts={})
        assert fresh == r and repr(fresh) == repr(r)
        line = r.to_json_line()
        assert line == json.dumps(payload, sort_keys=True)
        assert fresh.to_json_line() == line

    def test_json_line_schema(self):
        s = spec("negbin", (1.0,), (0.5,))
        r = verify_theorem_instance(s, s, "conv", scenario="X", seed=3)
        data = json.loads(r.to_json_line())
        assert data["v"] == 1
        assert data["scenario"] == "X" and data["seed"] == 3
        assert set(data) >= {
            "spec1",
            "spec2",
            "param_status",
            "numeric_status",
            "tolerances",
        }

    def test_write_reports_appends_sorted(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        s = spec("negbin", (1.0,), (0.5,))
        r2 = verify_theorem_instance(s, s, "conv", scenario="A", seed=2)
        r1 = verify_theorem_instance(s, s, "conv", scenario="A", seed=1)
        write_reports(path, [r2, r1])
        write_reports(path, [r1])
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        assert json.loads(lines[0])["seed"] == 1
        assert json.loads(lines[1])["seed"] == 2


class TestAiTail:
    """Arrangement-ordered gammas with scales ``1/lambda`` are ordered in the
    usual stochastic order, as the AITail matrix row checks them."""

    @staticmethod
    def _st(shapes, lam1, lam2):
        s1 = spec("gamma", shapes, tuple(1.0 / l for l in lam1))
        s2 = spec("gamma", shapes, tuple(1.0 / l for l in lam2))
        return numeric_st_check(s1, s2).status

    def test_equal_constant_weights_tie(self):
        assert self._st((1.0, 2.0), (1.0, 1.0), (1.0, 1.0)) is Status.HOLDS

    def test_swap_instance_positive_margin(self):
        shapes = (1.0, 2.0)
        assert self._st(shapes, (1.5, 0.5), (0.5, 1.5)) is Status.HOLDS
        assert self._st(shapes, (0.5, 1.5), (1.5, 0.5)) is Status.REFUTED

    def test_two_transposition_chain_monotone(self):
        shapes = (1.0, 2.0, 3.0)
        bottom = (3.0, 2.0, 1.0)
        mid = (2.0, 3.0, 1.0)
        top = (1.0, 2.0, 3.0)
        assert self._st(shapes, bottom, mid) is Status.HOLDS
        assert self._st(shapes, mid, top) is Status.HOLDS


class TestMixtureLemma:
    def test_ordered_latents_give_ordered_mixtures(self):
        # shape mixtures over stochastically ordered latent shapes are ordered
        for seed in range(5):
            rng = np.random.default_rng(seed)
            alpha = float(rng.uniform(0.3, 2.0))
            p_mix = float(rng.uniform(0.3, 0.9))
            p2 = float(rng.uniform(0.3, 0.8))
            p1 = p2 + float(rng.uniform(0.02, 0.95 - p2 - 0.02))
            y1, y2 = (
                shape_mixture_pmf(
                    nb_convolution(spec("negbin", (alpha,), (p,)), shifted=True), p_mix
                )
                for p in (p1, p2)
            )
            assert survival_dominance_check(y1, y2).status is Status.HOLDS, seed

