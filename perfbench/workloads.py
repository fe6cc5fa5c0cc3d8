"""Scenario matrix, instance streams and correctness checks of the benchmark.

Each workload is an endless stream of blocks.  A block holds one case per
(cell, n) slot of the workload's matrix, so every prefix made of whole blocks
weighs every cell and every size alike.  Scenario seeds are derived from the
workload seed, the block index and n, so no two cases of a run share a spec
pair: a cache inside the program can only hit where a workload repeats work on
purpose (the reversed st pairs).

A case is run by ``case.call()``, which is the timed unit, and judged
afterwards by ``case.judge(result)``, which is not timed and re-checks every
``holds`` from outside the program.  Calls reach the program through module
attributes, so the traced run's wrappers see them; judging uses the functions
bound at import, which tracing never replaces.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from stochord import cli, harness, rc_order
from stochord.arrangement import PairClass, check_pair_equal_a, pair
from stochord.harness import Scenario, ScenarioName
from stochord.rc_order import RcMode, chain_from_json, chain_to_json, verify_rc_chain

SIZES = range(2, 7)
SEARCH_BUDGET = 4000

S = ScenarioName
# (scenario, family) cells of the stochastic-order sweep.  MixtureLemmaSt is
# left out of the sweep: its generator returns a single-component pair for
# every n, so it cannot span n = 2..6, and its law is the nb-mixture identity
# of identity-cli.  param-search still covers it.
MIXTURE_CELL = (S.MIXTURE_LEMMA_ST, "negbin")
ST_CELLS = (
    (S.ST_GENERAL, "negbin"),
    (S.ST_GENERAL, "gamma"),
    (S.AI_TAIL, "gamma"),
    (S.COUPLED_GAMMA_PAIR, "gamma"),
    (S.LOG_MAJORIZE_BETA_ST, "negbin"),
)
CONV_CELLS = (
    (S.RAISE_ALPHA, "negbin"),
    (S.LOWER_BETA, "negbin"),
    (S.MAJORIZE_BETA, "negbin"),
    (S.DIFF_ALPHA_MAJORIZE_BETA, "negbin"),
    (S.MAJORIZE_ALPHA, "negbin"),
    (S.CONV_AI, "negbin"),
    (S.RC_GENERAL, "negbin"),
    (S.GAMMA_CONV, "gamma"),
    (S.OPPOSITE_ORDERED_WEAK, "negbin"),
)
# Cells whose two specs differ only in how components are paired.  Their
# reversed pair passes the necessary conditions and the search runs until its
# reachable space is exhausted: 17 ms to 6 s per call at n = 6.  A run sees
# too few of those calls for a steady figure, so param-search reverses only
# the other cells, whose reversal is refuted by check_necessary.
ARRANGEMENT_ONLY = (S.CONV_AI, S.AI_TAIL)

IDENTITIES = ("nb-mixture", "nb-pair", "gamma-single", "gamma-pair")

EXIT_STATUS = {0: "holds", 1: "refuted", 2: "unknown"}
_RANK = {"holds": 0, "refuted": 1, "unknown": 2}


@dataclass
class Judgement:
    status: str  # holds / refuted / unknown
    failure: Optional[str] = None  # why the attempt counts as failed
    moves: object = None
    detail: Optional[str] = None  # the statuses behind ``status``, for the digest


def param_pairs(s1, s2, order: str) -> tuple[PairClass, PairClass]:
    """Parameter pairs the order engine compares: (shapes, scales) for the
    convolution order, (shapes, log scales) for the stochastic order."""
    if order == "conv":
        return pair(s1.shapes, s1.scales), pair(s2.shapes, s2.scales)
    return (
        pair(s1.shapes, [math.log(v) for v in s1.scales]),
        pair(s2.shapes, [math.log(v) for v in s2.scales]),
    )


def replay_witness(witness_json: Optional[str], q1: PairClass, q2: PairClass) -> bool:
    """Accept a witness only if every move is legal and its endpoints are the
    queried pairs up to common permutation."""
    if not witness_json:
        return False
    chain = chain_from_json(witness_json)
    return (
        verify_rc_chain(chain)
        and check_pair_equal_a(chain.pairs[0], q1)
        and check_pair_equal_a(chain.pairs[-1], q2)
    )


@dataclass
class Case:
    cell: str
    n: int
    seed: int
    direction: str  # fwd / rev / both / a CLI identity name

    def key(self) -> str:
        return f"{self.cell}|n={self.n}|seed={self.seed}|{self.direction}"


@dataclass
class VerifyCase(Case):
    """Two-layer verification of one pair, as ``stochord verify`` runs it."""

    s1: object = None
    s2: object = None
    order: str = "conv"

    def call(self):
        report = harness.verify_theorem_instance(
            self.s1, self.s2, self.order, scenario=self.cell, seed=self.seed,
            emit_witness=True,
        )
        report.to_json_line()
        return report

    def judge(self, report) -> Judgement:
        status = max(report.param_status, report.numeric_status, key=_RANK.get)
        failure = None
        if report.param_status == "holds":
            if not replay_witness(report.witness_json, *param_pairs(self.s1, self.s2, self.order)):
                failure = "rejected_witness"
            elif report.numeric_status != "holds":
                failure = f"disagreement_{report.numeric_status}"
        return Judgement(status, failure, report.param_moves)


@dataclass
class ReverseStCase(Case):
    """Reversed pair of an st instance, checked numerically as acceptance
    criterion 6 does; it recomputes both CDFs of the forward call."""

    s1: object = None
    s2: object = None

    def call(self):
        return harness.numeric_st_check(self.s2, self.s1)

    def judge(self, verdict) -> Judgement:
        return Judgement(verdict.status.value)


@dataclass
class ParamCase(Case):
    """Both directions of one parameter pair, as a caller comparing two
    configurations asks them; arrangement-only cells ask forward only."""

    q1: PairClass = None
    q2: PairClass = None
    reverse: bool = True

    def call(self):
        forward = rc_order.decide_wrc(self.q1, self.q2, RcMode.WEAK, SEARCH_BUDGET)
        if not self.reverse:
            return (forward,)
        return forward, rc_order.decide_wrc(self.q2, self.q1, RcMode.WEAK, SEARCH_BUDGET)

    def judge(self, verdicts) -> Judgement:
        failure = None
        for verdict, (a, b) in zip(verdicts, ((self.q1, self.q2), (self.q2, self.q1))):
            if verdict.holds and not replay_witness(chain_to_json(verdict.witness), a, b):
                failure = "rejected_witness"
        statuses = [v.status.value for v in verdicts]
        moves = tuple(len(v.witness.moves) if v.holds else None for v in verdicts)
        status = "unknown" if "unknown" in statuses else statuses[0]
        return Judgement(status, failure, moves, "/".join(statuses))


@dataclass
class IdentityCase(Case):
    argv: tuple = ()

    def call(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(self.argv))
        return code, out.getvalue()

    def judge(self, result) -> Judgement:
        code, out = result
        if code not in EXIT_STATUS:
            return Judgement("unknown", "bad_exit")
        line = json.loads(out)
        # the identities are theorems: a residual above tolerance is a wrong answer
        if code != 0 or line["prop"] != self.direction:
            return Judgement(EXIT_STATUS[code], "disagreement_identity")
        return Judgement("holds")


# ---------------------------------------------------------------------------
# Instance streams


def _scenario_seed(seed: int, block: int, n: int = SIZES.start) -> int:
    # numpy seeds must be nonnegative; any integer workload seed is accepted
    return (seed % 2**63) * 1_000_003 + block * len(SIZES) + (n - SIZES.start)


def _instance(cell, n, scen_seed):
    name, family = cell
    return harness.generate_instance(Scenario(name, family, n, scen_seed))


def st_blocks(seed: int) -> Iterator[list]:
    for block in itertools.count():
        cases = []
        for n in SIZES:
            sd = _scenario_seed(seed, block, n)
            for cell in ST_CELLS:
                s1, s2 = _instance(cell, n, sd)
                label = f"{cell[0].value}/{cell[1]}"
                cases.append(VerifyCase(label, n, sd, "fwd", s1, s2, "st"))
                cases.append(ReverseStCase(label, n, sd, "rev", s1, s2))
        yield cases


def conv_blocks(seed: int) -> Iterator[list]:
    for block in itertools.count():
        cases = []
        for n in SIZES:
            sd = _scenario_seed(seed, block, n)
            for cell in CONV_CELLS:
                s1, s2 = _instance(cell, n, sd)
                label = f"{cell[0].value}/{cell[1]}"
                cases.append(VerifyCase(label, n, sd, "fwd", s1, s2, "conv"))
        yield cases


def param_blocks(seed: int) -> Iterator[list]:
    for block in itertools.count():
        cases = []
        for n in SIZES:
            sd = _scenario_seed(seed, block, n)
            for cells, order in ((CONV_CELLS, "conv"), (ST_CELLS + (MIXTURE_CELL,), "st")):
                for cell in cells:
                    q1, q2 = param_pairs(*_instance(cell, n, sd), order)
                    label = f"{cell[0].value}/{cell[1]}/{order}"
                    reverse = cell[0] not in ARRANGEMENT_ONLY
                    cases.append(ParamCase(label, n, sd, "both" if reverse else "fwd", q1, q2, reverse))
        yield cases


def _identity_argv(prop: str, rng: np.random.Generator) -> tuple:
    """Parameters drawn from the box in which each identity is stated."""
    alpha = float(rng.uniform(0.3, 2.5))
    if prop == "nb-mixture":
        p1, p2 = rng.uniform(0.3, 0.9, size=2)
        extra = ("--p1", repr(float(p1)), "--p2", repr(float(p2)))
    elif prop == "gamma-single":
        extra = ("--beta", repr(float(rng.uniform(0.5, 4.0))))
    else:
        c0 = float(rng.uniform(0.45, 0.6))
        lam1 = float(rng.uniform(0.1, 0.4)) * c0
        lam2 = float(rng.uniform(0.1, 0.9)) * lam1
        extra = ("--c0", repr(c0), "--lam1", repr(lam1), "--lam2", repr(lam2))
    return ("identity", "--prop", prop, "--alpha", repr(alpha)) + extra


def identity_blocks(seed: int) -> Iterator[list]:
    rng = np.random.default_rng([seed % 2**63, 0x1D])
    for block in itertools.count():
        yield [
            IdentityCase(f"identity/{prop}", 0, _scenario_seed(seed, block), prop, _identity_argv(prop, rng))
            for prop in IDENTITIES
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: Callable
    window_blocks: int  # whole blocks whose work the traced run measures exactly
    # CPU seconds of a block's calls at the reference speed, as measured on
    # the first commit of this benchmark; a run is ceil(seconds / block_s)
    # blocks, so its work does not depend on how fast the host is.
    block_s: float
    call_name: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("st-sweep", st_blocks, 8, 0.77, "verify_theorem_instance / numeric_st_check"),
        Workload("conv-sweep", conv_blocks, 30, 0.227, "verify_theorem_instance"),
        Workload("param-search", param_blocks, 20, 0.19, "decide_wrc, both directions"),
        Workload("identity-cli", identity_blocks, 300, 0.0176, "cli.main identity"),
    )
}
