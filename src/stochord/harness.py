"""End-to-end theorem instantiation: generate parameter configurations
satisfying each hypothesis, decide the parameter order, then certify the
implied distributional order numerically.

Each scenario generator is deterministic in its seed and builds a pair of
convolution specs meant to satisfy its scenario's hypothesis; no generator
calls the order engine.  ``stochord harness`` checks every generated pair
with both layers (:func:`verify_theorem_instance`)."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple, Optional

from stochord import exact
from stochord.arrangement import pair
from stochord.majorization import json_text
from stochord.rc_order import (
    DEFAULT_SEARCH_BUDGET,
    RcMode,
    _chain_json,
    decide_wrc,
)
from stochord.specs import DEFAULT_TAIL_CAP, ConvolutionSpec, spec
from stochord.verdicts import OrderVerdict, Status


class ScenarioName(Enum):
    RAISE_ALPHA = "RaiseAlpha"
    LOWER_BETA = "LowerBeta"
    MAJORIZE_BETA = "MajorizeBeta"
    DIFF_ALPHA_MAJORIZE_BETA = "DiffAlphaMajorizeBeta"
    MAJORIZE_ALPHA = "MajorizeAlpha"
    CONV_AI = "ConvAI"
    RC_GENERAL = "RcGeneral"
    GAMMA_CONV = "GammaConv"
    OPPOSITE_ORDERED_WEAK = "OppositeOrderedWeak"
    LOG_MAJORIZE_BETA_ST = "LogMajorizeBetaSt"
    ST_GENERAL = "StGeneral"
    AI_TAIL = "AITail"
    COUPLED_GAMMA_PAIR = "CoupledGammaPair"
    MIXTURE_LEMMA_ST = "MixtureLemmaSt"


_NAME_INDEX = {name: i for i, name in enumerate(ScenarioName)}


class MatrixRow(NamedTuple):
    name: ScenarioName
    family: str
    n: int
    order: str


# Each scenario family with the order its hypothesis implies: the default
# batch of ``stochord harness``.
MATRIX = (
    MatrixRow(ScenarioName.RAISE_ALPHA, "negbin", 3, "conv"),
    MatrixRow(ScenarioName.LOWER_BETA, "negbin", 3, "conv"),
    MatrixRow(ScenarioName.MAJORIZE_BETA, "negbin", 3, "conv"),
    MatrixRow(ScenarioName.DIFF_ALPHA_MAJORIZE_BETA, "negbin", 3, "conv"),
    MatrixRow(ScenarioName.MAJORIZE_ALPHA, "negbin", 3, "conv"),
    MatrixRow(ScenarioName.CONV_AI, "negbin", 3, "conv"),
    MatrixRow(ScenarioName.RC_GENERAL, "negbin", 3, "conv"),
    MatrixRow(ScenarioName.GAMMA_CONV, "gamma", 3, "conv"),
    MatrixRow(ScenarioName.OPPOSITE_ORDERED_WEAK, "negbin", 3, "conv"),
    MatrixRow(ScenarioName.LOG_MAJORIZE_BETA_ST, "negbin", 3, "st"),
    MatrixRow(ScenarioName.ST_GENERAL, "negbin", 3, "st"),
    MatrixRow(ScenarioName.ST_GENERAL, "gamma", 3, "st"),
    MatrixRow(ScenarioName.AI_TAIL, "gamma", 3, "st"),
    MatrixRow(ScenarioName.COUPLED_GAMMA_PAIR, "gamma", 2, "st"),
    MatrixRow(ScenarioName.MIXTURE_LEMMA_ST, "negbin", 1, "st"),
)

# Desk-scale parameter box: keeps truncation lattices small and the
# deconvolution leading coefficient well away from underflow.
SHAPE_LO, SHAPE_HI = 0.3, 2.5
PROB_LO, PROB_HI = 0.25, 0.9
RATE_LO, RATE_HI = 0.5, 4.0


# Generators that accept n = 1 (the last two build a fixed size whatever n
# asks); every other one moves or swaps two components and needs n >= 2.
_ANY_SIZE = frozenset(
    {
        ScenarioName.RAISE_ALPHA,
        ScenarioName.LOWER_BETA,
        ScenarioName.COUPLED_GAMMA_PAIR,
        ScenarioName.MIXTURE_LEMMA_ST,
    }
)


@dataclass(frozen=True)
class Scenario:
    name: ScenarioName
    family: str = "negbin"
    n: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.family not in ("negbin", "gamma"):
            raise ValueError(f"unknown family {self.family!r}")
        lo = 1 if self.name in _ANY_SIZE else 2
        if not lo <= self.n <= 6:
            raise ValueError(f"{self.name.value} needs n in {lo}..6, got {self.n}")


def _rng(s: Scenario):
    import numpy as np  # loaded where a scenario is built, not at import

    return np.random.default_rng([s.seed, _NAME_INDEX[s.name]])


def _scales(rng, n, family):
    lo, hi = (PROB_LO, PROB_HI) if family == "negbin" else (RATE_LO, RATE_HI)
    return rng.uniform(lo, hi, size=n)


def _shapes(rng, n):
    return rng.uniform(SHAPE_LO, SHAPE_HI, size=n)


def generate_instance(s: Scenario) -> tuple[ConvolutionSpec, ConvolutionSpec]:
    import numpy as np

    rng = _rng(s)
    name, fam, n = s.name, s.family, s.n

    if name is ScenarioName.RAISE_ALPHA:
        a1 = _shapes(rng, n)
        a2 = a1 + rng.uniform(0.05, 0.8, size=n)
        sc = _scales(rng, n, fam)
        return spec(fam, a1, sc), spec(fam, a2, sc)

    if name is ScenarioName.LOWER_BETA:
        a = _shapes(rng, n)
        if fam == "negbin":
            s2 = rng.uniform(PROB_LO, 0.7, size=n)
            s1 = s2 + rng.uniform(0.02, 0.9 - 0.7, size=n)
        else:
            s2 = rng.uniform(RATE_LO, 2.5, size=n)
            s1 = s2 + rng.uniform(0.1, 1.0, size=n)
        return spec(fam, a, s1), spec(fam, a, s2)

    if name is ScenarioName.MAJORIZE_BETA:
        alpha = float(rng.uniform(SHAPE_LO, SHAPE_HI))
        c0 = float(rng.uniform(0.45, 0.6))
        lam2 = float(rng.uniform(0.02, 0.15))
        lam1 = float(rng.uniform(0.0, lam2))
        padding = list(rng.uniform(PROB_LO, PROB_HI, size=n - 2))
        s1 = [c0 + lam1, c0 - lam1] + padding
        s2 = [c0 + lam2, c0 - lam2] + padding
        return spec(fam, [alpha] * n, s1), spec(fam, [alpha] * n, s2)

    if name is ScenarioName.DIFF_ALPHA_MAJORIZE_BETA:
        a1 = float(rng.uniform(SHAPE_LO, 1.2))
        a2 = a1 + float(rng.uniform(0.0, 1.0))
        c0 = float(rng.uniform(0.45, 0.6))
        lam2 = float(rng.uniform(0.02, 0.15))
        lam1 = float(rng.uniform(0.0, lam2))
        pad_a = list(rng.uniform(SHAPE_LO, SHAPE_HI, size=n - 2))
        pad_s = list(rng.uniform(PROB_LO, PROB_HI, size=n - 2))
        shapes = [a1, a2] + pad_a
        s1 = [c0 + lam1, c0 - lam1] + pad_s
        s2 = [c0 + lam2, c0 - lam2] + pad_s
        return spec(fam, shapes, s1), spec(fam, shapes, s2)

    if name is ScenarioName.MAJORIZE_ALPHA:
        ac = float(rng.uniform(0.8, 1.8))
        e2 = float(rng.uniform(0.05, 0.5))
        e1 = float(rng.uniform(0.0, e2))
        p2 = float(rng.uniform(PROB_LO, 0.8))
        p1 = p2 + float(rng.uniform(0.0, 0.9 - p2 - 0.01))
        pad_a = list(rng.uniform(SHAPE_LO, SHAPE_HI, size=n - 2))
        pad_s = list(rng.uniform(PROB_LO, PROB_HI, size=n - 2))
        shapes1 = [ac - e1, ac + e1] + pad_a
        shapes2 = [ac - e2, ac + e2] + pad_a
        scales = [p1, p2] + pad_s
        return spec(fam, shapes1, scales), spec(fam, shapes2, scales)

    if name is ScenarioName.CONV_AI:
        shapes = np.sort(_shapes(rng, n))
        shapes += np.arange(n) * 1e-3  # break ties so the swap is strict
        sc = _scales(rng, n, fam)
        i, j = sorted(rng.choice(n, size=2, replace=False))
        lo, hi = sorted((sc[i], sc[j]))
        if abs(hi - lo) < 1e-6:
            hi = lo + 0.05
        # shapes increase with index; the similarly-ordered arrangement of
        # scales is arrangement-largest, hence smallest in convolution order
        s_similar, s_swapped = sc.copy(), sc.copy()
        s_similar[i], s_similar[j] = lo, hi
        s_swapped[i], s_swapped[j] = hi, lo
        return spec(fam, shapes, s_similar), spec(fam, shapes, s_swapped)

    if name is ScenarioName.RC_GENERAL:
        return _rc_built_instance(rng, fam, n)

    if name is ScenarioName.GAMMA_CONV:
        if s.seed == 0 and n == 3:
            return worked_example_specs()
        return _rc_built_instance(rng, "gamma", n)

    if name is ScenarioName.OPPOSITE_ORDERED_WEAK:
        return _opposite_weak_instance(rng, fam, n, log_scale=False)

    if name is ScenarioName.LOG_MAJORIZE_BETA_ST:
        alpha = float(rng.uniform(SHAPE_LO, SHAPE_HI))
        p21 = float(rng.uniform(0.3, 0.9))
        p22 = float(rng.uniform(0.3, 0.9))
        t = float(rng.uniform(0.15, 0.85))
        p11 = p21**t * p22 ** (1 - t)
        p12 = p21 ** (1 - t) * p22**t
        pad = list(rng.uniform(PROB_LO, PROB_HI, size=n - 2))
        return (
            spec(fam, [alpha] * n, [p11, p12] + pad),
            spec(fam, [alpha] * n, [p21, p22] + pad),
        )

    if name is ScenarioName.ST_GENERAL:
        return _opposite_weak_instance(rng, fam, n, log_scale=True)

    if name is ScenarioName.AI_TAIL:
        shapes = np.sort(_shapes(rng, n)) + np.arange(n) * 1e-3
        lam = np.sort(rng.uniform(0.3, 2.0, size=n))[::-1].copy()
        lam += np.arange(n)[::-1] * 1e-3  # strictly decreasing: opposite ordered
        lam2 = lam.copy()
        for _ in range(int(rng.integers(1, n))):
            i, j = sorted(rng.choice(n, size=2, replace=False))
            if lam2[i] > lam2[j]:  # legal swap raises the pair in the order
                lam2[i], lam2[j] = lam2[j], lam2[i]
        return (
            spec("gamma", shapes, 1.0 / lam),
            spec("gamma", shapes, 1.0 / lam2),
        )

    if name is ScenarioName.COUPLED_GAMMA_PAIR:
        alpha = float(rng.uniform(SHAPE_LO, SHAPE_HI))
        c0 = float(rng.uniform(0.45, 0.6))
        lam2 = float(rng.uniform(0.05, 0.25)) * c0
        lam1 = float(rng.uniform(0.0, 1.0)) * lam2
        return (
            spec("gamma", (alpha, alpha), (c0 + lam1, c0 - lam1)),
            spec("gamma", (alpha, alpha), (c0 + lam2, c0 - lam2)),
        )

    if name is ScenarioName.MIXTURE_LEMMA_ST:
        # shape-mixture laws of two stochastically ordered latents; each
        # mixture is itself a (shifted) negative binomial with the product
        # success probability, so the comparison is representable as specs
        alpha = float(rng.uniform(SHAPE_LO, SHAPE_HI))
        p_mix = float(rng.uniform(0.4, 0.95))
        p2 = float(rng.uniform(0.3, 0.8))
        p1 = p2 + float(rng.uniform(0.02, 0.95 - p2 - 0.02))
        return (
            spec("negbin", (alpha,), (p1 * p_mix,)),
            spec("negbin", (alpha,), (p2 * p_mix,)),
        )

    raise ValueError(f"scenario {name.value} has no spec-pair generator")


def _rc_built_instance(rng, fam, n) -> tuple[ConvolutionSpec, ConvolutionSpec]:
    """Random pair built by applying elementary moves forward from spec1, so
    the order holds by construction."""
    import numpy as np

    shapes = np.sort(_shapes(rng, n))
    sc = np.sort(_scales(rng, n, fam))[::-1].copy()  # opposite ordered start
    s1 = spec(fam, shapes, sc)
    x = shapes.copy()
    y = sc.copy()
    for _ in range(int(rng.integers(1, 4))):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        # keep x increasing, y decreasing so the coupling stays legal
        if rng.random() < 0.5:
            eps = float(rng.uniform(0.0, min(x[i] - SHAPE_LO * 0.5, 0.4)))
            x[i] -= eps
            x[j] += eps
        else:
            lo = PROB_LO * 0.5 if fam == "negbin" else RATE_LO * 0.5
            eps = float(rng.uniform(0.0, min(y[j] - lo, 0.4 if fam == "negbin" else 1.0)))
            y[i] += eps
            y[j] -= eps
        x = np.sort(x)
        y = np.sort(y)[::-1]
    if fam == "negbin":
        y = np.clip(y, 0.05, 0.95)
    return s1, spec(fam, x, y)


def _opposite_weak_instance(rng, fam, n, log_scale):
    """spec2 with shapes increasing and scales decreasing; spec1 weakly
    majorized below on shapes and above on (log) scales."""
    import numpy as np

    a2 = np.sort(_shapes(rng, n))
    sc2 = np.sort(_scales(rng, n, fam))[::-1].copy()
    # shapes: Robin Hood transfers toward equality, then shrink a little
    a1 = a2.copy()
    for _ in range(n):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        if a1[j] > a1[i]:
            eps = rng.uniform(0, (a1[j] - a1[i]) / 2)
            a1[i] += eps
            a1[j] -= eps
    a1 = np.maximum(a1 - rng.uniform(0, 0.1, size=n), 0.15)
    # scales: transfers toward equality in (log) space, then inflate a little
    w2 = np.log(sc2) if log_scale else sc2.copy()
    w1 = w2.copy()
    for _ in range(n):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        hi, lo = (i, j) if w1[i] > w1[j] else (j, i)
        eps = rng.uniform(0, (w1[hi] - w1[lo]) / 2)
        w1[hi] -= eps
        w1[lo] += eps
    w1 = w1 + rng.uniform(0, 0.05, size=n)
    sc1 = np.exp(w1) if log_scale else w1
    if fam == "negbin":
        sc1 = np.clip(sc1, 0.05, 0.95)
    return spec(fam, a1, sc1), spec(fam, a2, sc2)


# ---------------------------------------------------------------------------
# The worked example's specs


def worked_example_specs() -> tuple[ConvolutionSpec, ConvolutionSpec]:
    return (
        spec("gamma", (0.4, 0.6, 0.5), (2.0, 3.0, 4.0)),
        spec("gamma", (0.7, 0.3, 0.5), (1.0, 3.0, 5.0)),
    )


# ---------------------------------------------------------------------------
# Verification


@dataclass
class Report:
    scenario: Optional[str]
    seed: Optional[int]
    order: str
    spec1: ConvolutionSpec
    spec2: ConvolutionSpec
    param_status: str
    param_moves: Optional[int]
    param_violation: Optional[dict]
    numeric_status: str
    numeric_detail: dict
    tolerances: dict
    witness_json: Optional[str] = None
    # the verdict's memo of number texts (see majorization.json_text), which
    # its witness fills first and its line reads
    _texts: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def agreed(self) -> bool:
        return not (self.param_status == "holds" and self.numeric_status == "refuted")

    def to_json_line(self) -> str:
        """The report as ``json.dumps(payload, sort_keys=True)`` writes it,
        byte for byte, where ``payload`` holds ``"v": 1``, the fields up to
        ``tolerances`` and each spec's ``to_dict()``: its keys in sorted
        order, each value written by :func:`~stochord.majorization.json_text`
        (the free-form records by the encoder)."""
        t = self._texts
        return (
            f'{{"numeric_detail": {json_text(self.numeric_detail, t)}, '
            f'"numeric_status": {json_text(self.numeric_status, t)}, '
            f'"order": {json_text(self.order, t)}, '
            f'"param_moves": {json_text(self.param_moves, t)}, '
            f'"param_status": {json_text(self.param_status, t)}, '
            f'"param_violation": {json_text(self.param_violation, t)}, '
            f'"scenario": {json_text(self.scenario, t)}, '
            f'"seed": {json_text(self.seed, t)}, '
            f'"spec1": {_spec_json(self.spec1, t)}, '
            f'"spec2": {_spec_json(self.spec2, t)}, '
            f'"tolerances": {json_text(self.tolerances, t)}, "v": 1}}'
        )


def _spec_json(s: ConvolutionSpec, texts: dict) -> str:
    """``s.to_dict()`` as the encoder writes it, its keys sorted."""
    scales = ", ".join([json_text(v, texts) for v in s.scales])
    shapes = ", ".join([json_text(v, texts) for v in s.shapes])
    return f'{{"family": {json_text(s.family, texts)}, "scales": [{scales}], "shapes": [{shapes}]}}'


def _param_pairs(s1: ConvolutionSpec, s2: ConvolutionSpec, order: str):
    if order == "conv":
        return pair(s1.shapes, s1.scales), pair(s2.shapes, s2.scales)
    return (
        pair(s1.shapes, tuple(math.log(v) for v in s1.scales)),
        pair(s2.shapes, tuple(math.log(v) for v in s2.scales)),
    )


def _pair_laws(s1: ConvolutionSpec, s2: ConvolutionSpec, order: str, tail_cap: float):
    """Both specs' laws for the numeric check of ``order``: for a negbin pair,
    its lattices; for a gamma pair, its latents at the pair's largest rate,
    offset by the total shapes each rounded once (``"conv"``), or its CDFs
    on the pair's :func:`default_gamma_grid` (``"st"``)."""
    from stochord.distributions import (
        default_gamma_grid,
        gamma_convolution_cdf,
        gamma_latent,
        nb_convolution,
    )

    specs = (s1, s2)
    if s1.family == "negbin":
        return tuple(nb_convolution(s, tail_cap) for s in specs)
    if order == "conv":
        beta = max(max(s.scales) for s in specs)
        return tuple(
            replace(gamma_latent(s, tail_cap, beta)[0], offset=math.fsum(s.shapes))
            for s in specs
        )
    grid = default_gamma_grid(specs)
    return tuple(gamma_convolution_cdf(s, grid, tail_cap) for s in specs)


def _check_tolerances(tail_cap: float, tol: float) -> None:
    """Refuse a ``tail_cap`` outside (0, 1) or a ``tol`` that is negative or
    not finite, whatever the pair, before the exact stage decides it."""
    if not 0 < tail_cap < 1:
        raise ValueError(f"tail_cap must be in (0,1), got {tail_cap}")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")


def numeric_conv_check(
    s1: ConvolutionSpec,
    s2: ConvolutionSpec,
    tail_cap: float = DEFAULT_TAIL_CAP,
    tol: float = 1e-9,
) -> OrderVerdict:
    """Convolution-order certificate: from the exact stage, or by
    deconvolution of lattices.

    The exact stage (:func:`exact.decide`) runs first and builds no
    lattice: a pair whose Lévy measure it certifies is ``holds`` with
    ``{"certified": "levy", ...}``, and a pair that its right-tail, mean or
    top-net-atom test refutes is ``refuted`` with that test's record.  Every
    other pair is deconvolved as below.

    A gamma convolution is a gamma of rate ``beta``, the pair's largest rate,
    whose shape is drawn from its latent (:func:`gamma_latent`): latents with
    ``H_Y = H_X + W``, ``W >= 0``, give ``Y = X + Gamma(W, beta)``.  A larger
    rate adds to each latent a negative binomial of its total shape, which
    is infinitely divisible in that shape, so it decides no more.  A failed
    deconvolution refutes this sufficient reduction, not the gamma order, so
    it is ``unknown`` with ``{"reason": "latent reduction refuted", ...}``.
    The latents' offsets are the total shapes, each rounded once, so in the
    exact totals' order, and ``r1 > r2 + tol`` refutes exactly: a gamma
    convolution's Laplace transform falls like ``s^-r``, so ``L_Y / L_X``
    grows like ``s^(r1 - r2)``, and that of a law on ``[0, inf)`` is at most 1.
    A ``tail_cap`` outside (0, 1), or a ``tol`` that is negative or not
    finite, raises ``ValueError`` whatever the pair."""
    _check_tolerances(tail_cap, tol)
    verdict = exact.decide(s1, s2, "conv")
    if verdict is not None:
        return verdict
    from stochord.distributions import deconvolve

    f1, f2 = _pair_laws(s1, s2, "conv", tail_cap)
    r1, r2 = f1.offset, f2.offset  # 0 on negbin lattices
    if r1 > r2 + tol:
        return OrderVerdict(Status.REFUTED, violation={"total_shapes": [r1, r2]})
    _, verdict = deconvolve(f2, f1, tol)
    if s1.family == "negbin":
        return verdict
    if verdict.refuted:
        detail = {"reason": "latent reduction refuted", **verdict.violation}
        verdict = OrderVerdict(Status.UNKNOWN, detail=detail)
    return replace(verdict, detail={**verdict.detail, "total_shapes": [r1, r2]})


def numeric_st_check(
    s1: ConvolutionSpec,
    s2: ConvolutionSpec,
    tail_cap: float = DEFAULT_TAIL_CAP,
    tol: float = 1e-9,
) -> OrderVerdict:
    """Usual-stochastic-order certificate: from the exact stage, or via
    survival dominance.

    The exact stage (:func:`exact.decide`) runs first and builds no grid or
    lattice: a certified convolution order implies the stochastic order,
    and its right-tail, left-tail (gamma) or mean test refutes it.  Every
    other pair compares its survivals on the grid or lattice.  A ``tail_cap``
    outside (0, 1), or a ``tol`` that is negative or not finite, raises
    ``ValueError`` whatever the pair."""
    _check_tolerances(tail_cap, tol)
    verdict = exact.decide(s1, s2, "st")
    if verdict is not None:
        return verdict
    from stochord.distributions import survival_dominance_check

    return survival_dominance_check(*_pair_laws(s1, s2, "st", tail_cap), tol)


def verify_theorem_instance(
    s1: ConvolutionSpec,
    s2: ConvolutionSpec,
    order: str = "conv",
    scenario: Optional[str] = None,
    seed: Optional[int] = None,
    tail_cap: float = DEFAULT_TAIL_CAP,
    tol: float = 1e-9,
    budget: int = DEFAULT_SEARCH_BUDGET,
    emit_witness: bool = False,
) -> Report:
    if order not in ("conv", "st"):
        raise ValueError(f"order must be 'conv' or 'st', got {order!r}")
    if s1.family != s2.family or s1.n != s2.n:
        raise ValueError("specs must share family and length")
    q1, q2 = _param_pairs(s1, s2, order)
    param = decide_wrc(q1, q2, RcMode.WEAK, budget)
    if order == "conv":
        numeric = numeric_conv_check(s1, s2, tail_cap, tol)
    else:
        numeric = numeric_st_check(s1, s2, tail_cap, tol)
    texts = {}
    return Report(
        scenario=scenario,
        seed=seed,
        order=order,
        spec1=s1,
        spec2=s2,
        param_status=param.status.value,
        param_moves=len(param.witness.moves) if param.holds else None,
        param_violation=param.violation,
        numeric_status=numeric.status.value,
        numeric_detail=numeric.violation or numeric.detail,
        tolerances={"tail_cap": tail_cap, "tol": tol},
        witness_json=_chain_json(param.witness, texts) if emit_witness and param.holds else None,
        _texts=texts,
    )


# ---------------------------------------------------------------------------
# Scenario runner


def run_scenario(
    name: ScenarioName,
    family: str = "negbin",
    n: int = 3,
    seeds=range(10),
    order: str = "conv",
    **kwargs,
) -> list[Report]:
    reports = []
    for seed in seeds:
        s = Scenario(name, family, n, seed)
        s1, s2 = generate_instance(s)
        reports.append(
            verify_theorem_instance(
                s1, s2, order, scenario=name.value, seed=seed, **kwargs
            )
        )
    return reports


def write_reports(path, reports: list[Report]) -> None:
    with open(path, "a") as fh:
        for r in sorted(reports, key=lambda r: (r.scenario or "", r.seed or 0)):
            fh.write(r.to_json_line() + "\n")

