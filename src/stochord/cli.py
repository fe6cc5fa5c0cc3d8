"""Command-line front end: parse configuration files, dispatch order checks
and identity residual computations, emit JSON-lines reports and CSV curves.

Exit codes mirror the three-valued verdicts: 0 Holds, 1 Refuted, 2 Unknown.
64 flags a usage error, 65 invalid input (a malformed file, an argument out
of range, or a distribution past the lattice limits), 70 an internal failure:
the range of every numeric flag is checked in one pass after parsing, before
any subcommand runs, and the subcommand checks its files and how its
arguments compare before any computation, so whatever fails after that is
the program's fault, except a lattice limit, which exits 65, and a failure to
write a caller's output path, which exits 73.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from stochord.arrangement import check_pair_equal_a
from stochord.harness import (
    MATRIX,
    Scenario,
    ScenarioName,
    _param_pairs,
    run_scenario,
    verify_theorem_instance,
    write_reports,
)
from stochord.rc_order import (
    DEFAULT_SEARCH_BUDGET,
    RcMode,
    chain_from_json,
    chain_to_json,
    decide_wrc,
    verify_rc_chain,
)
from stochord.specs import (
    DEFAULT_TAIL_CAP,
    MAX_LATTICE,
    ConvolutionSpec,
    LatticeLimitError,
    spec,
)
from stochord.verdicts import Status

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70
EX_CANTCREAT = 73

# Range of the rates and spreads the identities accept: every square, sum and
# ratio of two of them stays a normal float.
SCALE_LO, SCALE_HI = 1e-100, 1e100

_STATUS_EXIT = {Status.HOLDS: 0, Status.REFUTED: 1, Status.UNKNOWN: 2}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


class InputError(Exception):
    pass


class OutputError(Exception):
    """A caller's output path cannot be written."""


def _write_output(path, write, *args) -> None:
    """``write(path, *args)``, reporting an OSError as the path's fault."""
    try:
        write(path, *args)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_text(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


# The range of every numeric flag, by argparse dest: a test and the words that
# name the range.  ``main`` checks the flags a subcommand has and the caller
# set, in one pass before the subcommand runs.
_PROBABILITY = (lambda v: 0 < v < 1, "in (0,1)")
_SCALE = (lambda v: SCALE_LO <= v <= SCALE_HI, f"in [{SCALE_LO:g}, {SCALE_HI:g}]")
_RANGES = {
    "tail_cap": _PROBABILITY,
    "tol": (lambda v: 0 <= v < math.inf, "nonnegative and finite"),
    "budget": (lambda v: v >= 1, "at least 1"),
    "grid_size": (lambda v: 1 <= v <= MAX_LATTICE, f"in [1, {MAX_LATTICE}]"),
    "alpha": (lambda v: 0 < v < math.inf, "positive and finite"),
    "p1": _PROBABILITY,
    "p2": _PROBABILITY,
    "c0": _SCALE,
    "lam1": _SCALE,
    "lam2": _SCALE,
    "beta": _SCALE,
    "common_beta": _SCALE,
}


def _check_ranges(args) -> None:
    for dest, (ok, words) in _RANGES.items():
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            raise InputError(f"--{dest.replace('_', '-')} must be {words}, got {value}")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer of more digits than Python converts
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_spec(data, label) -> ConvolutionSpec:
    try:
        return ConvolutionSpec.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed spec {label}: {exc}") from exc


def _load_pair(path) -> tuple[ConvolutionSpec, ConvolutionSpec]:
    data = _load_json(path)
    if not isinstance(data, dict) or "config1" not in data or "config2" not in data:
        raise InputError(f"{path} must contain 'config1' and 'config2'")
    s1 = _load_spec(data["config1"], "config1")
    s2 = _load_spec(data["config2"], "config2")
    if s1.family != s2.family or s1.n != s2.n:
        raise InputError("config1 and config2 must share family and length")
    return s1, s2


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check_order(args) -> int:
    s1, s2 = _load_pair(args.pair_file)
    q1, q2 = _param_pairs(s1, s2, args.order)
    mode = RcMode(args.mode)
    if args.verify_witness:
        try:
            chain = chain_from_json(json.dumps(_load_json(args.verify_witness)))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed witness chain {args.verify_witness}: {exc}") from exc
        # a verified chain's pairs share one length
        ok = (
            verify_rc_chain(chain)
            and chain.pairs[0].n == q1.n
            and check_pair_equal_a(chain.pairs[0], q1)
            and check_pair_equal_a(chain.pairs[-1], q2)
        )
        print(f"witness {'accepted' if ok else 'rejected'} ({len(chain.moves)} moves)")
        return 0 if ok else 1
    verdict = decide_wrc(q1, q2, mode, args.budget)
    line = {"v": 1, "order": args.order, "mode": mode.value, "status": verdict.status.value}
    if verdict.holds:
        line["moves"] = len(verdict.witness.moves)
    if verdict.violation:
        line["violation"] = verdict.violation
    print(json.dumps(line, sort_keys=True))
    if args.emit_witness and verdict.holds:
        _write_output(args.emit_witness, _write_text, chain_to_json(verdict.witness))
    return _STATUS_EXIT[verdict.status]


def _cmd_verify(args) -> int:
    s1, s2 = _load_pair(args.pair_file)
    report = verify_theorem_instance(
        s1,
        s2,
        args.order,
        tail_cap=args.tail_cap,
        tol=args.tol,
        budget=args.budget,
        emit_witness=bool(args.emit_witness),
    )
    print(report.to_json_line())
    if args.emit_witness and report.witness_json:
        _write_output(args.emit_witness, _write_text, report.witness_json)
    if args.output:
        _write_output(args.output, write_reports, [report])
    statuses = (report.param_status, report.numeric_status)
    return max(_STATUS_EXIT[Status(s)] for s in statuses)


def _check_coupled_pair(args) -> float:
    """Check the order of a coupled pair's spreads and centre, and return its
    latent success probability: valid only when the mixture side carries the
    smaller rate spread."""
    if not args.lam2 < args.lam1 < args.c0:
        raise InputError("need lam2 < lam1 < c0")
    return (args.c0**2 - args.lam1**2) / (args.c0**2 - args.lam2**2)


# Each identity checks how the arguments it reads compare, then returns the
# L-infinity residual of its two sides at truncation.


def _nb_mixture(args) -> float:
    # the numeric layer, and numpy with it, loads where a lattice is built
    from stochord.distributions import nb_convolution, shape_mixture_pmf

    alpha, cap = args.alpha, args.tail_cap
    latent = nb_convolution(spec("negbin", (alpha,), (args.p1,)), cap, shifted=True)
    lhs = shape_mixture_pmf(latent, args.p2, cap)
    rhs = nb_convolution(spec("negbin", (alpha,), (args.p1 * args.p2,)), cap, shifted=True)
    return _pmf_residual(lhs, rhs)


def _nb_pair(args) -> float:
    from stochord.distributions import coupled_pair_mixture_pmf, nb_convolution

    p = _check_coupled_pair(args)
    c0, lam1, lam2, cap = args.c0, args.lam1, args.lam2, args.tail_cap
    if not c0 + lam1 < 1:
        raise InputError("nb-pair success probabilities c0 +/- lam1 need c0 + lam1 < 1")
    direct = spec("negbin", (args.alpha, args.alpha), (c0 + lam1, c0 - lam1))
    lhs = coupled_pair_mixture_pmf(args.alpha, c0, lam2, p, cap)
    rhs = nb_convolution(direct, cap, shifted=True)
    return _pmf_residual(lhs, rhs)


def _gamma_single(args) -> float:
    import numpy as np
    from scipy import special  # loaded on first use, as in the gamma kernel

    from stochord.distributions import default_gamma_grid, gamma_convolution_cdf

    beta_big = 2.0 * args.beta
    if args.common_beta is not None:
        if not args.beta < args.common_beta:
            raise InputError("--common-beta must exceed --beta")
        beta_big = args.common_beta
    g = spec("gamma", (args.alpha,), (args.beta,))
    grid = default_gamma_grid([g], args.grid_size)
    mix = gamma_convolution_cdf(g, grid, args.tail_cap, common_beta=beta_big)
    direct = special.gammainc(args.alpha, args.beta * grid)
    return float(np.max(np.abs(mix.values - direct)))


def _gamma_pair(args) -> float:
    import numpy as np

    from stochord.distributions import (
        coupled_gamma_pair_cdf,
        default_gamma_grid,
        gamma_convolution_cdf,
    )

    p = _check_coupled_pair(args)
    c0, lam1, lam2, cap = args.c0, args.lam1, args.lam2, args.tail_cap
    direct = spec("gamma", (args.alpha, args.alpha), (c0 + lam1, c0 - lam1))
    grid = default_gamma_grid([direct], args.grid_size)
    lhs = coupled_gamma_pair_cdf(args.alpha, c0, lam2, p, grid, cap)
    rhs = gamma_convolution_cdf(direct, grid, cap)
    return float(np.max(np.abs(lhs.values - rhs.values)))


_IDENTITIES = {
    "nb-mixture": _nb_mixture,
    "nb-pair": _nb_pair,
    "gamma-single": _gamma_single,
    "gamma-pair": _gamma_pair,
}


def _pmf_residual(a, b) -> float:
    import numpy as np

    if abs(a.offset - b.offset) > 1e-9:
        raise RuntimeError("identity operands ended up on different lattices")
    n = max(a.probs.size, b.probs.size)
    pa = np.zeros(n)
    pb = np.zeros(n)
    pa[: a.probs.size] = a.probs
    pb[: b.probs.size] = b.probs
    return float(np.max(np.abs(pa - pb)))


def _cmd_identity(args) -> int:
    residual = _IDENTITIES[args.prop](args)
    line = {"v": 1, "prop": args.prop, "residual": residual, "tail_cap": args.tail_cap}
    print(json.dumps(line, sort_keys=True))
    return 0 if residual <= args.tol else 1


def _parse_seed_range(text: str) -> range:
    try:
        a, sep, b = text.partition("..")
        seeds = range(int(a), int(b if sep else a) + 1)
    except ValueError as exc:
        raise InputError(f"bad seed range {text!r}: expected A..B") from exc
    if not 0 <= seeds.start < seeds.stop:
        raise InputError(f"seed range {text!r} must be nonempty and nonnegative")
    return seeds


def _cmd_harness(args) -> int:
    names = [s.value for s in ScenarioName]
    if args.scenario is not None and args.scenario not in names:
        raise InputError(
            f"unknown scenario {args.scenario!r}; choose from " + ", ".join(names)
        )
    seeds = _parse_seed_range(args.seeds)
    given = {k: getattr(args, k) for k in ("family", "n", "order")}
    overrides = {k: v for k, v in given.items() if v is not None}
    rows = dict.fromkeys(
        row._replace(**overrides)
        for row in MATRIX
        if args.scenario in (None, row.name.value)
    )
    # a size a row's generator cannot build is the caller's error, found
    # before any row runs
    for name, family, n, _ in rows:
        try:
            Scenario(name, family, n, seeds.start)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    disagreements = unknowns = 0
    for name, family, n, order in rows:
        reports = run_scenario(
            name, family, n, seeds, order, tail_cap=args.tail_cap, tol=args.tol
        )
        for r in reports:
            print(r.to_json_line())
        if args.output:
            _write_output(args.output, write_reports, reports)
        agreed = sum(r.agreed for r in reports)
        unknown = sum("unknown" in (r.param_status, r.numeric_status) for r in reports)
        # MixtureLemmaSt and CoupledGammaPair build one size whatever n asks
        size = len(reports[0].spec1.shapes) if reports else n
        print(
            f"{name.value} {family} n={size} order={order}: "
            f"agreed {agreed}/{len(reports)}, unknown {unknown}",
            file=sys.stderr,
        )
        disagreements += len(reports) - agreed
        unknowns += unknown
    if disagreements:
        print(f"{disagreements} report(s) flag parameter/numeric disagreement", file=sys.stderr)
        return 1
    return _STATUS_EXIT[Status.UNKNOWN] if unknowns else 0


def _cmd_export_survival(args) -> int:
    import numpy as np

    from stochord.distributions import (
        default_gamma_grid,
        export_curve_csv,
        gamma_convolution_cdf,
        nb_convolution,
    )

    data = _load_json(args.spec_file)
    s = _load_spec(data, args.spec_file)
    if s.family == "negbin":
        pmf = nb_convolution(s, args.tail_cap)
        points = pmf.support
        values = pmf.survival
        errors = np.full(points.size, pmf.tail_bound)
    else:
        grid = default_gamma_grid([s], args.grid_size)
        g = gamma_convolution_cdf(s, grid, args.tail_cap)
        points = g.points
        values = 1.0 - g.values
        errors = g.errors
    _write_output(args.output, export_curve_csv, points, values, errors)
    print(f"wrote {points.size} survival points to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# Argument grammar


@functools.cache
def _build_parser() -> _Parser:
    """The argument grammar, built once per process: parsing keeps no state
    in the parser, and streams, terminal width and handlers are looked up when
    used."""
    p = _Parser(prog="stochord", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--tail-cap", type=float, default=DEFAULT_TAIL_CAP)
        sp.add_argument("--tol", type=float, default=1e-9)

    co = sub.add_parser("check-order", help="decide the parameter-level order")
    co.add_argument("pair_file")
    co.add_argument("--order", choices=("conv", "st"), default="conv")
    co.add_argument("--mode", choices=("strict", "weak"), default="weak")
    co.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    co.add_argument("--emit-witness", metavar="PATH")
    co.add_argument("--verify-witness", metavar="PATH")
    co.set_defaults(func=_cmd_check_order)

    ve = sub.add_parser("verify", help="parameter order plus numeric certificate")
    ve.add_argument("pair_file")
    ve.add_argument("--order", choices=("conv", "st"), required=True)
    ve.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    ve.add_argument("--emit-witness", metavar="PATH")
    ve.add_argument("--output", metavar="REPORT_JSONL")
    common(ve)
    ve.set_defaults(func=_cmd_verify)

    idn = sub.add_parser(
        "identity",
        help="mixture identity residuals",
        description=(
            "Residual of a mixture identity at truncation.  An input whose "
            "negative binomial lattices pass the lattice limits (their size, "
            "a first term below the normal floats, the points a mixture holds "
            "at once, or the multiply-adds of their convolutions) exits "
            f"{EX_DATAERR}, as on every subcommand."
        ),
    )
    idn.add_argument("--prop", choices=tuple(_IDENTITIES), required=True)
    idn.add_argument("--alpha", type=float, default=1.0)
    idn.add_argument("--p1", type=float, default=0.5)
    idn.add_argument("--p2", type=float, default=0.4)
    in_range = f"in [{SCALE_LO:g}, {SCALE_HI:g}]"
    idn.add_argument("--c0", type=float, default=0.5, help=f"coupled-pair centre, {in_range}")
    idn.add_argument(
        "--lam1", type=float, default=0.3, help=f"direct spread, {in_range}, below --c0"
    )
    idn.add_argument(
        "--lam2", type=float, default=0.1, help=f"mixture spread, {in_range}, below --lam1"
    )
    idn.add_argument("--beta", type=float, default=1.5, help=f"gamma rate, {in_range}")
    idn.add_argument(
        "--common-beta",
        type=float,
        default=None,
        dest="common_beta",
        help=f"common mixing rate above --beta, {in_range}",
    )
    idn.add_argument("--grid-size", type=int, default=64)
    common(idn)
    idn.set_defaults(func=_cmd_identity)

    ha = sub.add_parser(
        "harness",
        help="run the scenario matrix; a given flag replaces that field of every row",
    )
    ha.add_argument("--scenario", help="run only this scenario's rows")
    ha.add_argument("--seeds", default="0..9", help="inclusive range A..B")
    ha.add_argument("--family", choices=("negbin", "gamma"))
    ha.add_argument("--n", type=int)
    ha.add_argument("--order", choices=("conv", "st"))
    ha.add_argument("--output", metavar="REPORT_JSONL")
    common(ha)
    ha.set_defaults(func=_cmd_harness)

    es = sub.add_parser("export-survival", help="write a survival curve CSV")
    es.add_argument("spec_file")
    es.add_argument("--output", required=True)
    es.add_argument("--grid-size", type=int, default=256)
    es.add_argument("--tail-cap", type=float, default=DEFAULT_TAIL_CAP)
    es.set_defaults(func=_cmd_export_survival)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EX_USAGE
    try:
        _check_ranges(args)
        return args.func(args)
    except (InputError, LatticeLimitError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EX_CANTCREAT
    except Exception as exc:  # after validation, any failure is the program's
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
