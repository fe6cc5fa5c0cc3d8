"""Acceptance gate: each test certifies one release criterion at the stated
tolerance and prints a single pass/fail line."""
import itertools
import math
import time

import numpy as np
from scipy import special

from stochord.arrangement import check_arrangement_leq, pair
from stochord.distributions import (
    convolve,
    coupled_gamma_pair_cdf,
    coupled_pair_mixture_pmf,
    deconvolve,
    default_gamma_grid,
    gamma_convolution_cdf,
    nb_convolution,
    shape_mixture_pmf,
    spec,
)
from stochord.harness import (
    Scenario,
    ScenarioName,
    generate_instance,
    numeric_conv_check,
    numeric_st_check,
    worked_example_specs,
)
from stochord.majorization import (
    MajorizationMode,
    check_majorization,
    t_transform_chain,
)
from stochord.rc_order import (
    RcMode,
    check_necessary,
    construct_chain_opposite,
    decide_wrc,
    verify_rc_chain,
)
from stochord.verdicts import Status
from test_distributions import empirical_cdf, mc_sampler, nb
from test_harness import worked_example_chain
from test_majorization import is_sorted, verify_t_step


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    assert passed, f"{criterion}{suffix}"


def test_criterion_1_mixture_identity_suite():
    """Four mixture identities, 50 random draws each, L-inf residual <= 1e-9."""
    rng = np.random.default_rng(2024)
    cap = 1e-12
    worst = 0.0
    start = time.perf_counter()

    for _ in range(50):  # latent shape mixture collapses the success probability
        a = float(rng.uniform(0.3, 2.5))
        p1 = float(rng.uniform(0.3, 0.9))
        p2 = float(rng.uniform(0.3, 0.9))
        mix = shape_mixture_pmf(nb(a, p1, cap, shifted=True), p2, cap)
        direct = nb(a, p1 * p2, cap, shifted=True)
        n = min(mix.probs.size, direct.probs.size)
        worst = max(worst, float(np.max(np.abs(mix.probs[:n] - direct.probs[:n]))))

    for _ in range(50):  # iterated mixing composes multiplicatively
        a = float(rng.uniform(0.3, 2.0))
        p1, p2, p3 = (float(rng.uniform(0.4, 0.9)) for _ in range(3))
        inner = shape_mixture_pmf(nb(a, p1, cap, shifted=True), p2, cap)
        twice = shape_mixture_pmf(inner, p3, cap)
        direct = nb(a, p1 * p2 * p3, cap, shifted=True)
        n = min(twice.probs.size, direct.probs.size)
        worst = max(worst, float(np.max(np.abs(twice.probs[:n] - direct.probs[:n]))))

    for _ in range(50):  # coupled pair: mixture at the small spread equals the
        # plain pair at the large spread
        a = float(rng.uniform(0.3, 2.0))
        c0 = float(rng.uniform(0.2, 0.55))
        l_big = float(rng.uniform(0.05, 0.95)) * min(c0, 1.0 - c0) * 0.9
        l_small = float(rng.uniform(0.05, 0.9)) * l_big
        p = (c0**2 - l_big**2) / (c0**2 - l_small**2)
        mix = coupled_pair_mixture_pmf(a, c0, l_small, p, cap)
        plain = nb_convolution(
            spec("negbin", (a, a), (c0 + l_big, c0 - l_big)), cap, shifted=True
        )
        n = min(mix.probs.size, plain.probs.size)
        worst = max(worst, float(np.max(np.abs(mix.probs[:n] - plain.probs[:n]))))

    for _ in range(50):  # gamma-side identities on 64-point grids
        a = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(0.5, 3.0))
        g = spec("gamma", (a,), (beta,))
        grid = default_gamma_grid([g], 64)
        mixed = gamma_convolution_cdf(g, grid, cap, common_beta=2.5 * beta)
        direct = special.gammainc(a, beta * grid)
        worst = max(worst, float(np.max(np.abs(mixed.values - direct))))
        c0 = float(rng.uniform(0.3, 0.8))
        l_big = float(rng.uniform(0.2, 0.8)) * c0
        l_small = float(rng.uniform(0.1, 0.9)) * l_big
        p = (c0**2 - l_big**2) / (c0**2 - l_small**2)
        gp = spec("gamma", (a, a), (c0 + l_big, c0 - l_big))
        gridp = default_gamma_grid([gp], 64)
        lhs = coupled_gamma_pair_cdf(a, c0, l_small, p, gridp, cap)
        rhs = gamma_convolution_cdf(gp, gridp, cap)
        worst = max(worst, float(np.max(np.abs(lhs.values - rhs.values))))

    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: mixture identity suite",
        worst <= 1e-9 and elapsed < 60.0,
        f"worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_infinite_divisibility_and_deconvolution():
    rng = np.random.default_rng(7)
    worst_conv = 0.0
    worst_deconv = 0.0
    for _ in range(20):
        a1 = float(rng.uniform(0.3, 2.0))
        a2 = float(rng.uniform(0.3, 2.0))
        p = float(rng.uniform(0.3, 0.9))
        f1 = nb(a1, p, 1e-13)
        f2 = nb(a2, p, 1e-13)
        combined = nb(a1 + a2, p, 1e-13)
        direct = convolve(f1, f2)
        n = min(direct.probs.size, combined.probs.size)
        worst_conv = max(
            worst_conv, float(np.max(np.abs(direct.probs[:n] - combined.probs[:n])))
        )
        result, verdict = deconvolve(combined, f1)
        assert verdict.status is Status.HOLDS
        m = min(result.coeffs.size, f2.probs.size)
        worst_deconv = max(
            worst_deconv, float(np.max(np.abs(result.coeffs[:m] - f2.probs[:m])))
        )
    _report(
        "criterion 2: infinite divisibility and deconvolution recovery",
        worst_conv <= 1e-12 and worst_deconv <= 1e-10,
        f"conv {worst_conv:.2e}, deconv {worst_deconv:.2e}",
    )


CONV_SCENARIOS = (
    ScenarioName.RAISE_ALPHA,
    ScenarioName.LOWER_BETA,
    ScenarioName.MAJORIZE_BETA,
    ScenarioName.DIFF_ALPHA_MAJORIZE_BETA,
    ScenarioName.MAJORIZE_ALPHA,
    ScenarioName.CONV_AI,
)


def test_criterion_3_convolution_order_suite():
    refuted = 0
    unknown = 0
    total = 0
    unknown_reasons_ok = True
    for name in CONV_SCENARIOS:
        for seed in range(200):
            n = 2 + seed % 3  # n in {2, 3, 4}
            s1, s2 = generate_instance(Scenario(name, "negbin", n, seed))
            verdict = numeric_conv_check(s1, s2)
            total += 1
            if verdict.status is Status.REFUTED:
                refuted += 1
            elif verdict.status is Status.UNKNOWN:
                unknown += 1
                detail = verdict.detail or {}
                if "error" not in str(detail.get("reason", "")) and "bounds" not in str(
                    detail.get("reason", "")
                ):
                    unknown_reasons_ok = False
    _report(
        "criterion 3: convolution-order scenario suite",
        refuted == 0 and unknown / total < 0.01 and unknown_reasons_ok,
        f"{total} instances, {refuted} refuted, {unknown} unknown",
    )


def test_criterion_4_worked_example_replication():
    chain = worked_example_chain()
    ok_chain = (
        len(chain.moves) == 3
        and verify_rc_chain(chain)
        and chain.pairs[1].x == (0.4, 0.6, 0.5)
        and chain.pairs[1].y == (2.0, 2.0, 5.0)
        and chain.pairs[2].x == (0.7, 0.3, 0.5)
        and chain.pairs[2].y == (2.0, 2.0, 5.0)
    )
    s1, s2 = worked_example_specs()
    verdict = numeric_conv_check(s1, s2)
    _report(
        "criterion 4: worked-example chain and conv certificate",
        ok_chain and verdict.status is Status.HOLDS,
        f"chain verified={ok_chain}, conv={verdict.status.value}",
    )


def test_criterion_5_opposite_ordered_construction():
    rng = np.random.default_rng(99)
    ok = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        x2 = tuple(np.sort(rng.uniform(0.3, 3.0, size=n)))
        y2 = tuple(np.sort(rng.uniform(0.5, 4.0, size=n))[::-1])
        p2 = pair(x2, y2)
        # Robin Hood moves toward the mean plus weak slack build p1
        x1 = np.full(n, sum(x2) / n - rng.uniform(0, 0.1))
        y1 = np.full(n, max(y2) + rng.uniform(0, 0.2))
        p1 = pair(tuple(x1), tuple(y1))
        chain = construct_chain_opposite(p1, p2, RcMode.WEAK)
        if not verify_rc_chain(chain):
            continue
        endpoints_ok = all(
            check_necessary(chain.pairs[s], chain.pairs[-1], RcMode.WEAK)[0]
            for s in range(len(chain.pairs))
        )
        if endpoints_ok:
            ok += 1
    _report(
        "criterion 5: constructive chains on opposite-ordered targets",
        ok == 200,
        f"{ok}/200 chains accepted",
    )


ST_SCENARIOS = (
    (ScenarioName.LOG_MAJORIZE_BETA_ST, "negbin"),
    (ScenarioName.ST_GENERAL, "negbin"),
    (ScenarioName.ST_GENERAL, "gamma"),
    (ScenarioName.AI_TAIL, "gamma"),
    (ScenarioName.MIXTURE_LEMMA_ST, "negbin"),
)


def test_criterion_6_stochastic_order_suite():
    holds = 0
    total = 0
    strict_total = 0
    strict_reversed_refuted = 0
    for name, family in ST_SCENARIOS:
        for seed in range(200):
            n = 1 if name is ScenarioName.MIXTURE_LEMMA_ST else 2 + seed % 3
            s1, s2 = generate_instance(Scenario(name, family, n, seed))
            total += 1
            if numeric_st_check(s1, s2).status is Status.HOLDS:
                holds += 1
            if s1 != s2:
                strict_total += 1
                if numeric_st_check(s2, s1).status is Status.REFUTED:
                    strict_reversed_refuted += 1
    _report(
        "criterion 6: stochastic-order scenario suite",
        holds == total and strict_reversed_refuted >= 0.95 * strict_total,
        f"{holds}/{total} hold, reversed refuted {strict_reversed_refuted}/{strict_total}",
    )


def test_criterion_7_monte_carlo_cross_validation():
    rng = np.random.default_rng(31)
    n = 10**6
    bound = 1.63 / math.sqrt(n)
    good = 0
    for case in range(20):
        m = int(rng.integers(1, 4))
        g = spec(
            "gamma",
            tuple(rng.uniform(0.3, 2.5, size=m)),
            tuple(rng.uniform(0.5, 3.0, size=m)),
        )
        samples = mc_sampler(g, n, seed=1000 + case)
        grid = default_gamma_grid([g], 64)
        exact = gamma_convolution_cdf(g, grid)
        emp = empirical_cdf(samples, grid)
        if float(np.max(np.abs(emp - exact.values))) <= bound:
            good += 1
    _report(
        "criterion 7: Monte Carlo cross-validation",
        good >= 19,
        f"{good}/20 within Kolmogorov bound {bound:.2e}",
    )


def _integer_vectors(n, total, max_comp):
    """All sorted-increasing integer vectors of the given length and total."""
    out = []

    def rec(prefix, remaining, lo):
        if len(prefix) == n - 1:
            if lo <= remaining <= max_comp:
                out.append(tuple(float(v) for v in prefix + [remaining]))
            return
        for v in range(lo, min(remaining, max_comp) + 1):
            rec(prefix + [v], remaining - v, v)

    rec([], total, 0)
    return out


def test_criterion_8_order_theory_unit_suite():
    failures = []

    # transfer-chain soundness and completeness, exhaustive on integer vectors
    for n, total in ((2, 4), (3, 6), (4, 6)):
        vecs = _integer_vectors(n, total, total)
        for x in vecs:
            for y in vecs:
                ok, _ = check_majorization(x, y, MajorizationMode.FULL)
                if ok:
                    chain = t_transform_chain(x, y)
                    if chain.vectors[0] != x or chain.vectors[-1] != y:
                        failures.append(("endpoints", x, y))
                    for a, b in zip(chain.vectors, chain.vectors[1:]):
                        if not verify_t_step(a, b) or not is_sorted(b, "inc"):
                            failures.append(("step", x, y))
                else:
                    try:
                        t_transform_chain(x, y)
                        failures.append(("should-raise", x, y))
                    except ValueError:
                        pass

    # arrangement sandwich, exhaustive on n = 4 distinct values
    x = (1.0, 2.0, 3.0, 4.0)
    ys = (1.0, 2.0, 3.0, 4.0)
    bottom = pair(x, tuple(sorted(ys, reverse=True)))
    top = pair(x, tuple(sorted(ys)))
    for perm in itertools.permutations(ys):
        mid = pair(x, perm)
        if check_arrangement_leq(bottom, mid).status is not Status.HOLDS:
            failures.append(("sandwich-bottom", perm))
        if check_arrangement_leq(mid, top).status is not Status.HOLDS:
            failures.append(("sandwich-top", perm))

    # arrangement order embeds into the coupled order; strict implies weak
    x3 = (1.0, 2.0, 3.0)
    y_vals = (1.0, 2.0, 4.0)
    for perm1 in itertools.permutations(y_vals):
        for perm2 in itertools.permutations(y_vals):
            p1, p2 = pair(x3, perm1), pair(x3, perm2)
            if check_arrangement_leq(p2, p1).status is not Status.HOLDS:
                continue
            strict = decide_wrc(p1, p2, RcMode.STRICT)
            if strict.status is not Status.HOLDS or not verify_rc_chain(strict.witness):
                failures.append(("embedding", perm1, perm2))
                continue
            weak = decide_wrc(p1, p2, RcMode.WEAK)
            if weak.status is not Status.HOLDS:
                failures.append(("strict-implies-weak", perm1, perm2))

    _report(
        "criterion 8: order-theory unit suite",
        not failures,
        f"{len(failures)} failures" if failures else "exhaustive checks clean",
    )
