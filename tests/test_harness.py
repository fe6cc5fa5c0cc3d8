import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from stochord import distributions, harness
from stochord.arrangement import pair
from stochord.distributions import (
    DEFAULT_TAIL_CAP,
    default_gamma_grid,
    nb_convolution,
    shape_mixture_pmf,
    spec,
    survival_dominance_check,
)
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
    verify_rc_chain,
)
from stochord.verdicts import Status


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

    def test_gamma_conv_check_is_flagged_sufficient_only(self):
        s1, s2 = worked_example_specs()
        v = numeric_conv_check(s1, s2)
        assert v.status is Status.HOLDS
        assert v.detail["sufficient_only"] is True

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
    ("RaiseAlpha", "negbin"): "0219a568e2f08dee2a70166a15fd910a597ec907b56d407731a9e1eb3d47ae74",
    ("LowerBeta", "negbin"): "71c3e11370aca6f5054fd566737b531839744bc2d8ca4a29cb150da077c10d8f",
    ("MajorizeBeta", "negbin"): "8680ef03c401d27cbabcf9f304753c6d7effb5aba006b68e75ac627647a9d900",
    ("DiffAlphaMajorizeBeta", "negbin"): "4f65eb5679ead4b7d9c3f9b661a9a4f966fd0725c22276862c2631a530c6a9dc",
    ("MajorizeAlpha", "negbin"): "3c19f0084ae55650afba318297fedefe6d033f9df37e9216a84c5a1b439a2fa6",
    ("ConvAI", "negbin"): "e2618c1735c0e9a51a48f80e5425d54084f53d5e697086ebc8cb2debd112bdf8",
    ("RcGeneral", "negbin"): "8027cfbaa76b7dc44fc06df9b9dc62d81aa3236ff16d7ceb9976442de55d263b",
    ("GammaConv", "gamma"): "a37c01c66941fe0791f8ac4037325a3aef847816c7f5b177ebb71a031df64052",
    ("OppositeOrderedWeak", "negbin"): "0c9c2e39fc1289163bf33312f092288f3e29eb6cddfa678b2eaa21e3a3e6d934",
    ("LogMajorizeBetaSt", "negbin"): "a4907714f2663b8215f1cf0fccda871dc3c4197adcdb6c659b035b5c907c4b85",
    ("StGeneral", "negbin"): "1fc573365dcf2fee12184ca37625ab078bbd7c376b7721cbad11347311296ad1",
    ("StGeneral", "gamma"): "aab33de033e24c14ad1d5b84a54c96b11862dcd10ae6f1aea305c1e496323198",
    ("AITail", "gamma"): "d46e8781260a79f4fda86d280d9ea959927106c7754820ff249630090aa206e0",
    ("CoupledGammaPair", "gamma"): "3eabeffe6fd588db515bbc800eda97e068c2871858f814e082b23d8eaffa37fd",
    ("MixtureLemmaSt", "negbin"): "5c2f941464aa9e669b31301a8a4aa7f51383f2f9abc171dccd97f97044c81fe2",
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


class TestNumericChecks:
    def test_details_match_pinned_digests(self):
        assert _check_digests() == CHECK_DIGESTS

    def test_details_match_with_the_memo_cleared_before_every_law(self, monkeypatch):
        laws = harness._laws

        def cleared(*key):
            laws.cache_clear()
            return laws(*key)

        monkeypatch.setattr(harness, "_laws", cleared)
        assert _check_digests() == CHECK_DIGESTS

    @pytest.mark.parametrize("family", ["negbin", "gamma"])
    def test_reversed_st_check_builds_no_law(self, family, monkeypatch):
        built = spy_builders(monkeypatch)
        s1, s2 = generate_instance(Scenario(ScenarioName.ST_GENERAL, family, 4, 5))
        harness._laws.cache_clear()
        assert numeric_st_check(s1, s2).holds
        assert set(built) == {s1, s2}
        assert numeric_st_check(s2, s1).refuted
        assert len(built) == 2
        if family == "negbin":  # a conv check of the pair reads the same lattices
            numeric_conv_check(s1, s2)
            assert len(built) == 2

    def test_reversed_gamma_conv_check_builds_no_latent(self, monkeypatch):
        built = spy_builders(monkeypatch)
        s1, s2 = generate_instance(Scenario(ScenarioName.GAMMA_CONV, "gamma", 4, 5))
        harness._laws.cache_clear()
        assert numeric_conv_check(s1, s2).holds
        assert numeric_conv_check(s2, s1).refuted
        assert len(built) == 2 and set(built) == {s1, s2}

    def test_reversed_gamma_st_check_builds_no_grid(self, monkeypatch):
        built = []
        real = distributions.default_gamma_grid

        def spy(specs):
            built.append(list(specs))
            return real(specs)

        monkeypatch.setattr(distributions, "default_gamma_grid", spy)
        s1, s2 = generate_instance(Scenario(ScenarioName.ST_GENERAL, "gamma", 4, 5))
        harness._laws.cache_clear()
        assert numeric_st_check(s1, s2).holds and numeric_st_check(s2, s1).refuted
        assert len(built) == 1

    def test_grid_memo_gives_the_grid_of_either_order(self):
        """The memo, keyed by the unordered pair, gives the CDFs on the grid
        of each order, and on that of one spec for a spec paired with
        itself."""
        for seed in range(5):
            s1, s2 = generate_instance(Scenario(ScenarioName.ST_GENERAL, "gamma", 3, seed))
            want = default_gamma_grid([s1, s2])
            assert np.array_equal(default_gamma_grid([s2, s1]), want)
            for a, b in ((s1, s2), (s2, s1)):
                harness._laws.cache_clear()
                laws = harness._pair_laws(a, b, "st", DEFAULT_TAIL_CAP)
                assert all(np.array_equal(law.points, want) for law in laws)
            (law, _) = harness._pair_laws(s1, s1, "st", DEFAULT_TAIL_CAP)
            assert np.array_equal(law.points, default_gamma_grid([s1, s1]))

    def test_memo_holds_four_read_only_laws(self):
        harness._laws.cache_clear()
        for seed in range(3):
            pairs = [
                generate_instance(Scenario(ScenarioName.ST_GENERAL, family, 3, seed))
                for family in ("negbin", "gamma")
            ]
            for s1, s2 in pairs:
                numeric_st_check(s1, s2)
        info = harness._laws.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (2, 2, 6)
        (nb1, nb2), (g1, g2) = pairs
        lattice, _ = harness._pair_laws(nb1, nb2, "conv", DEFAULT_TAIL_CAP)
        cdf, _ = harness._pair_laws(g1, g2, "st", DEFAULT_TAIL_CAP)
        assert harness._laws.cache_info().hits == 2
        harness._laws.cache_clear()
        latent, _ = harness._pair_laws(g1, g2, "conv", DEFAULT_TAIL_CAP)
        for array in (lattice.probs, cdf.points, cdf.values, cdf.errors, latent.probs):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_every_gamma_conv_matrix_pair_holds(self):
        for n, seed in itertools.product(range(2, 7), range(30)):
            s1, s2 = generate_instance(Scenario(ScenarioName.GAMMA_CONV, "gamma", n, seed))
            v = numeric_conv_check(s1, s2)
            assert v.holds and v.detail["sufficient_only"], (n, seed)

    def test_larger_total_shape_is_refuted_exactly(self):
        s1 = spec("gamma", (1.0, 0.5), (2.0, 3.0))
        s2 = spec("gamma", (1.2, 0.1), (1.0, 3.0))
        v = numeric_conv_check(s1, s2)
        assert v.refuted and v.violation == {"total_shapes": [1.5, 1.3]}
        assert "sufficient_only" not in v.detail
        # within tol, the latents go on to the deconvolution
        v = numeric_conv_check(s1, s2, tol=0.25)
        assert "total_shapes" in v.detail and v.detail["sufficient_only"]

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
            v = numeric_conv_check(a, b, tol=tol)
            assert v.holds and v.detail["sufficient_only"]
            assert v.detail["total_shapes"] == [math.fsum(shapes)] * 2


def spy_builders(monkeypatch) -> list:
    """The specs that the memo's law builders are called with; a builder
    called inside another (a gamma CDF's latent) is not counted."""
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


class TestReports:
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

