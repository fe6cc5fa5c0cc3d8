"""Exact lattice distributions for negative binomial convolutions, shape
mixtures bridging to gamma convolutions, and numeric oracles for the
convolution and usual stochastic orders.

All discrete distributions are truncated lattice PMFs with a certified bound
on the omitted tail mass.  Shifted variables (shape added to the count) live
on ``offset + {0, 1, ...}`` with a real offset, so non-integer shapes are
exact.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from stochord.specs import (
    DEFAULT_TAIL_CAP,
    MAX_LATTICE,
    ConvolutionSpec,
    LatticeLimitError,
    spec,
)
from stochord.verdicts import OrderVerdict, Status

# A mixture's conditional lattices, and a coupled pair's convolutions of them,
# are held at once: together they keep at most this many points (400 MB).
MIXTURE_POINTS = 25 * MAX_LATTICE
# A direct convolution or deconvolution, or a coupled pair's convolutions
# together, run at most this many multiply-adds (about 4 s of np.convolve).
MAX_WORK = 10**10
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class TruncatedPMF:
    """Lattice distribution on ``offset + {0..K}`` with certified tail bound:
    ``tail_bound`` is at least the mass beyond ``K``, so the listed mass is at
    most 1 and the two together at least 1 (each up to 1e-9 of rounding)."""

    offset: float
    probs: np.ndarray
    tail_bound: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-d array")
        if np.any(probs < 0):
            raise ValueError("probs must be nonnegative")
        mass = float(probs.sum())
        if not mass <= 1 + 1e-9:
            raise ValueError(f"mass must be at most 1, got {mass}")
        total = mass + self.tail_bound
        if not total >= 1 - 1e-9:
            raise ValueError(f"mass plus tail bound must be at least 1, got {total}")

    @property
    def support(self) -> np.ndarray:
        return self.offset + np.arange(self.probs.size)

    @property
    def survival(self) -> np.ndarray:
        """Listed mass at or above ``offset + k`` for ``k = 0..K``: the
        suffix sums of ``probs``."""
        return np.cumsum(self.probs[::-1])[::-1]


@dataclass(frozen=True)
class CdfGrid:
    points: np.ndarray
    values: np.ndarray
    errors: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        errs = np.asarray(self.errors, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "errors", errs)
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if np.any(vals < -1e-12) or np.any(vals > 1 + 1e-12):
            raise ValueError("cdf values must lie in [0,1]")
        if np.any(np.diff(vals) < -1e-9):
            raise ValueError("cdf values must be nondecreasing")


# ---------------------------------------------------------------------------
# Negative binomial PMFs


# Lattice sizes up to this many points keep their index arrays (about 130
# kilobytes in all); larger ones are rare and build theirs per pass.  Most
# calls build small lattices, where building the index arrays again would
# be a visible share of each call.
_CACHED_INDEX = 4096


def _lattice_index(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``k`` for ``k = -1..size``, the ratio denominators ``1, 1, 2, .., size``
    (the first one unused) and ``m + 1`` for ``m = 0..size``."""
    idx = np.arange(-1.0, size + 2)
    den = idx[1:-1].copy()
    den[0] = 1.0
    for a in (idx, den):
        a.flags.writeable = False
    return idx[:-1], den, idx[2:]


_cached_lattice_index = functools.cache(_lattice_index)


def _nb_rows(
    shapes, p, tail_cap: float, held: int = 0
) -> list[tuple[np.ndarray, float]]:
    """PMF values of the negative binomials of each shape in ``shapes`` at
    success probability ``p``, or at its own entry of ``p`` when ``p`` is a
    sequence, by the stable ratio recurrence, each truncated where a
    geometric bound certifies its remaining mass below ``tail_cap``.  Returns
    ``(probs, bound)`` per shape.

    All rows share one lattice size, doubled until every row has a cut; a
    row's prefix does not depend on the size, so neither does its cut.  A
    block of rows holds at most ``MAX_LATTICE // 2`` floats per array, less
    than one lattice of the largest size; its shapes and success
    probabilities are columns, so a row does not depend on its neighbours.

    Raises ``LatticeLimitError`` when a first term ``p**alpha`` is below the
    normal floats (the running products, up to its inverse, would overflow),
    a row has no cut at the largest size within ``MAX_LATTICE``, or the rows
    and the ``held`` points the caller holds pass ``MIXTURE_POINTS`` together."""
    if not 0 < tail_cap < 1:
        raise ValueError(f"tail_cap must be in (0,1), got {tail_cap}")
    shapes = [float(a) for a in shapes]
    ps = [p] * len(shapes) if np.isscalar(p) else list(p)
    out = [None] * len(shapes)
    todo = list(range(len(shapes)))  # rows without a cut, their shapes and successes
    size = 128
    kept = held
    while todo:
        index = _cached_lattice_index if size <= _CACHED_INDEX else _lattice_index
        k, den, m1 = index(size)
        rows = max(1, MAX_LATTICE // 2 // (size + 1))
        missing = []
        for lo in range(0, len(todo), rows):
            alpha, succ = shapes[lo : lo + rows], ps[lo : lo + rows]
            # scalar powers: numpy's array power can differ in the last bit
            heads = [b**a for a, b in zip(alpha, succ)]
            low = min(heads)
            if low < _TINY:
                j = heads.index(low)
                raise LatticeLimitError(
                    f"a negative binomial lattice (shape {alpha[j]:g}, success {succ[j]:g}) "
                    "starts below the normal floats"
                )
            a, head = np.array(alpha)[:, None], np.array(heads)[:, None]
            q = 1.0 - np.array(succ)[:, None]
            x = k + a
            # column j >= 1 holds the ratio q (j - 1 + alpha) / j; column 0
            # is 1, so the running product is the PMF over its first term
            probs = q * x[..., :-1]
            probs /= den
            probs[..., 0] = 1.0
            np.multiply.accumulate(probs, axis=-1, out=probs)
            probs *= head
            # r bounds the ratio past m: q max(1, (m + alpha) / (m + 1))
            r = x[..., 1:] / m1
            np.maximum(r, 1.0, out=r)
            r *= q
            gap = 1.0 - r
            bound = np.divide(probs * r, gap, out=np.full_like(r, np.inf), where=gap > 0.0)
            probs, bound = probs.reshape(-1, size + 1), bound.reshape(-1, size + 1)
            ok = bound <= tail_cap
            for j, cut in enumerate(ok.argmax(axis=1).tolist(), lo):
                if not ok[j - lo, cut]:
                    missing.append(j)
                    continue
                out[todo[j]] = probs[j - lo, : cut + 1].copy(), float(bound[j - lo, cut])
                kept += cut + 1
                if kept > MIXTURE_POINTS:
                    raise LatticeLimitError(
                        f"negative binomial lattices through the one at success {ps[j]:g} "
                        f"keep over {MIXTURE_POINTS} points together"
                    )
        todo = [todo[j] for j in missing]
        shapes = [shapes[j] for j in missing]
        ps = [ps[j] for j in missing]
        size *= 2
        if todo and size > MAX_LATTICE:
            raise LatticeLimitError(
                f"a negative binomial lattice (shape {shapes[0]:g}, success {ps[0]:g}) "
                f"needs over {size // 2 + 1} points"
            )
    return out


def _check_work(work: int, what: str) -> None:
    if work > MAX_WORK:
        raise LatticeLimitError(f"{what} takes {work:.3g} multiply-adds, past {MAX_WORK:.0e}")


def _check_convolutions(pairs) -> None:
    """Reject the direct convolutions of the array pairs, before any runs,
    when one passes ``MAX_LATTICE`` points or all pass ``MAX_WORK``."""
    work = 0
    for a, b in pairs:
        size = a.size + b.size - 1
        if size > MAX_LATTICE:
            raise LatticeLimitError(f"convolution lattice of {size} points passes {MAX_LATTICE}")
        work += a.size * b.size
    _check_work(work, "convolution")


def _convolve_rows(pieces) -> TruncatedPMF:
    """Convolution of the lattice rows ``(offset, probs, tail)``, folded left
    to right, with no PMF built in between."""
    (offset, probs, tail), *rest = pieces
    for o, b, t in rest:
        _check_convolutions([(probs, b)])
        # a direct convolution of nonnegative arrays sums nonnegative products
        probs = np.convolve(probs, b)
        offset += o
        tail += t
    return TruncatedPMF(offset, probs, tail)


def convolve(a: TruncatedPMF, b: TruncatedPMF) -> TruncatedPMF:
    return _convolve_rows([(a.offset, a.probs, a.tail_bound), (b.offset, b.probs, b.tail_bound)])


def nb_convolution(
    s: ConvolutionSpec, tail_cap: float = DEFAULT_TAIL_CAP, shifted: bool = False
) -> TruncatedPMF:
    if s.family != "negbin":
        raise ValueError("nb_convolution requires a negbin spec")
    rows = _nb_rows(s.shapes, s.scales, tail_cap)
    offsets = s.shapes if shifted else (0.0,) * s.n
    return _convolve_rows([(o, probs, t) for o, (probs, t) in zip(offsets, rows)])


# ---------------------------------------------------------------------------
# Deconvolution (convolution-order oracle)


@dataclass(frozen=True)
class Deconvolution:
    """Coefficients ``z`` with ``f2 = f1 * z`` on ``offset + {0, 1, ...}``.

    ``error_bounds`` is computed on first access from the solve's partial
    sums: most verdicts never read it."""

    offset: float
    coeffs: np.ndarray
    _f1: TruncatedPMF = field(repr=False, compare=False)
    _f2_probs: np.ndarray = field(repr=False, compare=False)
    _partial: np.ndarray = field(repr=False, compare=False)

    @functools.cached_property
    def error_bounds(self) -> np.ndarray:
        """Per-coefficient bound on the distance of ``coeffs`` from the exact
        solve: its rounding, the truncated tail of ``f1`` times the largest
        coefficient so far, and the bounds of earlier coefficients carried
        through the recurrence, all divided by ``f0``."""
        a, z, s = self._f1.probs, self.coeffs, self._partial
        n, f0 = z.size, float(a[0])
        terms = np.minimum(np.arange(n), a.size - 1) + 2
        rounding = _EPS * (np.abs(self._f2_probs) + np.abs(s) + np.abs(z) * f0) * terms
        zmax = np.fmax.accumulate(np.abs(z))  # running max, skipping NaN
        base = rounding + self._f1.tail_bound * zmax
        a1 = a[1:]
        err = np.zeros(n)  # reversed, as ``_solve`` stores ``z``
        for k in range(n):
            top = min(k, a1.size)
            e_prop = a1[:top].dot(err[n - k : n - k + top])
            # cap the bound once it is vacuous for probabilities; this also
            # stops the geometric 1/f0 amplification from overflowing
            err[n - 1 - k] = min(float(base[k] + e_prop) / f0, 1e30)
        return err[::-1].copy()


def _solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward substitution for ``b = a * z``: ``z`` and the partial sums
    ``s_k = sum_{i>=1} a_i z_{k-i}``.  ``z`` is filled back to front, so the
    earlier coefficients each step reads form a forward slice."""
    n, f0, a1 = b.size, float(a[0]), a[1:]
    m = a1.size
    zr = np.zeros(n)
    s = [0.0] * n
    rhs = b.tolist()
    zr[n - 1] = rhs[0] / f0
    # step k reads all k earlier coefficients up to k = m, then the last m;
    # two loops, so that the second, which takes most steps, needs no min()
    for k in range(1, min(n, m + 1)):
        s[k] = sk = float(a1[:k].dot(zr[n - k :]))
        zr[n - 1 - k] = (rhs[k] - sk) / f0
    dot = a1.dot
    for k in range(m + 1, n):
        s[k] = sk = float(dot(zr[n - k : n - k + m]))
        zr[n - 1 - k] = (rhs[k] - sk) / f0
    return zr[::-1].copy(), np.array(s)


def deconvolve(
    f2: TruncatedPMF, f1: TruncatedPMF, tol: float = 1e-9
) -> tuple[Deconvolution, OrderVerdict]:
    """Solve ``f2 = f1 * z`` by forward substitution and judge nonnegativity.

    Holds certifies the convolution order on the truncated lattices; negative
    coefficients within the tracked error bound yield Unknown rather than a
    false refutation.
    """
    if f1.probs[0] < _TINY:
        # a lattice whose head underflowed in the convolution of its rows
        raise LatticeLimitError(
            f"deconvolution divides by a first probability {f1.probs[0]:g} "
            "below the normal floats"
        )
    if f1.offset > f2.offset + tol:
        raise ValueError("deconvolution requires f2.offset >= f1.offset - tol")
    _check_work(f2.probs.size * (f1.probs.size - 1), "deconvolution")
    z, s = _solve(f1.probs, f2.probs)
    result = Deconvolution(f2.offset - f1.offset, z, f1, f2.probs, s)

    neg = z < -tol
    if not neg.any():
        total = float(z.sum())
        tails = f1.tail_bound + f2.tail_bound
        lo, hi = 1.0 - tails - tol, 1.0 + tol
        if not lo <= total <= hi:
            # widening [lo, hi] by the nonnegative error sum cannot shrink it,
            # so the bound is needed only when the sum falls outside
            slack = float(result.error_bounds.sum())
            lo, hi = lo - slack, hi + slack
        if lo <= total <= hi:
            return result, OrderVerdict(
                Status.HOLDS,
                witness=result,
                detail={"min_coeff": float(z.min()), "sum": total},
            )
        return result, OrderVerdict(
            Status.UNKNOWN,
            detail={"reason": "coefficient sum outside certified range", "sum": total},
        )
    err = result.error_bounds
    slack = np.maximum(tol, err)
    refuted = bool(np.any(z < -slack))
    # a refutation names the coefficient furthest below its slack; an unknown,
    # whose negative coefficients are all within their slack, the most negative
    worst = int(np.argmin(z + slack if refuted else z))
    record = {
        "index": worst,
        "coeff": float(z[worst]),
        "error_bound": float(err[worst]),
    }
    if refuted:
        return result, OrderVerdict(Status.REFUTED, violation=record)
    return result, OrderVerdict(
        Status.UNKNOWN, detail={"reason": "negativity within error bounds", **record}
    )


# ---------------------------------------------------------------------------
# Shape mixtures


def _mix_over_latent(latent: TruncatedPMF, stride: int, conditionals) -> TruncatedPMF:
    """Mixture over the latent shape draw of the lattice PMFs that
    ``conditionals(shapes)`` returns as ``(probs, tail)``, one per shape, for
    the shapes of positive latent weight.  A draw of ``latent.offset + h``
    shifts its conditional PMF by ``stride * h``: 1 for one shifted variable
    of that shape, 2 for a pair of them."""
    atoms = np.flatnonzero(latent.probs > 0).tolist()
    parts = conditionals([latent.offset + h for h in atoms])
    tail = latent.tail_bound
    out = np.zeros(max(stride * h + probs.size for h, (probs, _) in zip(atoms, parts)))
    for h, (probs, t) in zip(atoms, parts):
        w = latent.probs[h]
        out[stride * h : stride * h + probs.size] += w * probs
        tail += w * t
    return TruncatedPMF(stride * latent.offset, out, tail)


def shape_mixture_pmf(
    latent: TruncatedPMF, p: float, tail_cap: float = DEFAULT_TAIL_CAP
) -> TruncatedPMF:
    """PMF of a shifted negative binomial whose shape is randomized by
    ``latent`` (itself on a shifted lattice)."""
    if not 0 < p < 1:
        raise ValueError(f"success probability must be in (0,1), got {p}")
    if latent.offset <= 0:
        raise ValueError("latent offsets must define positive shapes")
    return _mix_over_latent(latent, 1, lambda shapes: _nb_rows(shapes, p, tail_cap))


def _coupled_pair_latent(
    alpha: float, p: float, s_hi: float, s_lo: float, tail_cap: float
) -> TruncatedPMF:
    """Mixture of pairwise convolutions of shifted negative binomials with
    success probabilities ``s_hi`` and ``s_lo``, both conditioned on the same
    latent shape draw (shape alpha, success p; p = 1 degenerates).  A success
    probability of 1 makes its variable a point mass at the shape.  Its
    callers check ``s_hi`` and ``s_lo``."""
    if p == 1.0:
        latent = TruncatedPMF(alpha, np.ones(1), 0.0)
    else:
        latent = nb_convolution(spec("negbin", (alpha,), (p,)), tail_cap, shifted=True)

    def pairs(shapes):
        # the rows' convolutions take about as many points again, so half of
        # MIXTURE_POINTS is held for them; the longer s_lo rows go first
        lo_rows = _nb_rows(shapes, s_lo, tail_cap, MIXTURE_POINTS // 2)
        held = MIXTURE_POINTS // 2 + sum(lo.size for lo, _ in lo_rows)
        rows = list(zip(_nb_rows(shapes, s_hi, tail_cap, held), lo_rows))
        _check_convolutions((hi, lo) for (hi, _), (lo, _) in rows)
        return [(np.convolve(hi, lo), t_hi + t_lo) for (hi, t_hi), (lo, t_lo) in rows]

    return _mix_over_latent(latent, 2, pairs)


def coupled_pair_mixture_pmf(
    alpha: float,
    c0: float,
    lam1: float,
    p: float,
    tail_cap: float = DEFAULT_TAIL_CAP,
) -> TruncatedPMF:
    """Sum of two conditionally independent shifted negative binomials with
    success probabilities ``c0 +/- lam1`` sharing one latent shape draw."""
    for s in (c0 + lam1, c0 - lam1):
        if not 0 < s < 1:
            raise ValueError("success probabilities must be in (0,1)")
    return _coupled_pair_latent(alpha, p, c0 + lam1, c0 - lam1, tail_cap)


def coupled_gamma_pair_cdf(
    alpha: float,
    c0: float,
    lam1: float,
    p: float,
    grid: np.ndarray,
    tail_cap: float = DEFAULT_TAIL_CAP,
) -> CdfGrid:
    """CDF of a sum of two gammas with rates ``c0 +/- lam1`` whose shapes
    share one latent shifted negative binomial draw (shape alpha, success p).
    The common rate is the larger rate, whose gamma then needs no mixing."""
    if not c0 > abs(lam1):
        raise ValueError("rates c0 +/- lam1 must be positive")
    beta = c0 + abs(lam1)
    latent = _coupled_pair_latent(
        alpha, p, (c0 + lam1) / beta, (c0 - lam1) / beta, tail_cap
    )
    grid = np.asarray(grid, dtype=float)
    values, rounding = _gamma_mixture_cdf(latent, beta, grid)
    return CdfGrid(grid, np.clip(values, 0.0, 1.0), latent.tail_bound + rounding)


# ---------------------------------------------------------------------------
# Gamma convolutions via the latent-shape mixture


# Rounding allowance, in units of eps, for each elementary function in the
# mixture kernel (log, gammaln, exp, and the x^a e^-x / Gamma(a+1) prefactor
# inside gammainc): each is taken to be within this many ulps of its exact
# value, relative to the magnitudes that enter its log-space argument.
_ULPS = 4.0


def _gamma_mixture_cdf(
    latent: TruncatedPMF, beta: float, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``sum_h w_h P(a_0 + h, beta t)`` over the latent shape lattice, and a
    per-point bound on its rounding error.

    The shape recurrence ``P(a, x) = P(a + 1, x) + d(a, x)`` with
    ``d(a, x) = x^a e^-x / Gamma(a + 1)``, run downward from the top shape
    ``a_T``, turns the mixture into

        W P(a_T, x) + sum_{j < T} C_j d(a_j, x),

    with ``C_j`` the latent weight of the shapes up to ``a_j`` and ``W`` the
    whole weight.  So ``gammainc`` runs once per point, at the top shape, and
    every other term is positive: nothing cancels.  Each ``C_j d(a_j, x)`` is
    ``exp(L_j)`` with ``L_j = a_j log x - x - gammaln(a_j + 1) + log C_j``.

    The rounding bound takes the weights as given and adds, in units of eps:
    ``_ULPS`` times the magnitudes ``|a_j log x| + x + |gammaln| + |log C_j|``
    of each ``L_j`` (an absolute error of ``L_j`` is a relative error of
    ``exp(L_j)``), times that term; the same for ``P(a_T, x)`` through its
    prefactor, plus ``_ULPS`` absolute where ``gammainc`` forms P as 1 - Q;
    ``T + 2`` relative roundings of ``C_j`` and ``W`` from the running sum
    and as many from summing the terms, one for ``exp`` and one for the last
    addition; capped at 1.
    """
    from scipy import special  # scipy loads on the first gamma CDF only

    shapes = latent.offset + np.arange(latent.probs.size)
    cum = np.cumsum(latent.probs)
    top = shapes[-1]
    values = np.zeros_like(grid)
    rounding = np.zeros_like(grid)
    pos = np.flatnonzero(grid > 0)  # P(a, 0) = 0 exactly
    x = beta * grid[pos]
    if x.size == 0:
        return values, rounding
    log_x = np.log(x)
    p_top = special.gammainc(top, x)
    m_top = top * np.abs(log_x) + x + abs(special.gammaln(top + 1.0))
    # per point: sum_j E_j, sum_j a_j E_j and sum_j (|log C_j| + |gammaln|) E_j
    sums = np.zeros((3, x.size))
    # rows with C_j = 0 contribute nothing; chunk over j to bound memory
    first = int(np.searchsorted(cum, 0.0, side="right"))
    chunk = max(1, int(4e6 // x.size))
    for lo in range(first, shapes.size - 1, chunk):
        hi = min(lo + chunk, shapes.size - 1)
        a = shapes[lo:hi]
        log_c = np.log(cum[lo:hi])
        log_g = special.gammaln(a + 1.0)
        terms = np.outer(a, log_x)
        terms += (log_c - log_g)[:, None]
        terms -= x
        np.exp(terms, out=terms)
        sums += np.stack([np.ones_like(a), a, np.abs(log_c) + np.abs(log_g)]) @ terms
    total, total_a, total_mags = sums
    whole = cum[-1]
    values[pos] = whole * p_top + total
    steps = shapes.size + 1  # roundings in a running sum over the lattice
    # a bound of 1 or more is vacuous for a CDF clipped to [0, 1], so it is
    # capped at 1; at a rate near the largest float its magnitudes overflow
    with np.errstate(over="ignore"):
        bound = _EPS * (
            whole * (_ULPS * (1.0 + m_top * p_top) + steps * p_top)
            + _ULPS * (np.abs(log_x) * total_a + x * total + total_mags)
            + (2.0 * steps + 1.0) * total
            + values[pos]
        )
    rounding[pos] = np.minimum(bound, 1.0)
    return values, rounding


def gamma_latent(
    s: ConvolutionSpec,
    tail_cap: float = DEFAULT_TAIL_CAP,
    common_beta: float | None = None,
) -> tuple[TruncatedPMF, float]:
    """Latent shape distribution representing the gamma convolution as a
    mixture of single gammas with common rate ``beta``.

    By default ``beta`` is the largest rate (Moschopoulos 1985), which keeps
    the latent lattice shortest: each component of that rate adds its shape
    to the offset as a point mass, and the others mix shifted negative
    binomials with success probability ``rate / beta``.
    """
    if s.family != "gamma":
        raise ValueError("gamma_latent requires a gamma spec")
    beta = max(s.scales) if common_beta is None else float(common_beta)
    if not max(s.scales) <= beta < math.inf:
        raise ValueError("common rate must be finite and at least every component rate")
    mixed = [(a, b / beta) for a, b in zip(s.shapes, s.scales) if b != beta]
    # rate / beta lies in [0, 1): a ratio that underflows to 0 starts its
    # lattice below the normal floats, which _nb_rows reports
    rows = iter(_nb_rows([a for a, _ in mixed], [p for _, p in mixed], tail_cap))
    # the point masses keep their places in the order of the convolutions
    pieces = [
        (a, np.ones(1), 0.0) if b == beta else (a, *next(rows))
        for a, b in zip(s.shapes, s.scales)
    ]
    latent = _convolve_rows(pieces)
    # the offset sums the shapes left to right; a total rounded once
    # (``math.fsum``) lies within ``n`` roundings of it
    if latent.offset * (1.0 + s.n * _EPS) == math.inf:
        raise LatticeLimitError(
            f"a gamma spec's total shape {latent.offset:g} is at or past the largest float"
        )
    return latent, beta


def gamma_convolution_cdf(
    s: ConvolutionSpec,
    grid: np.ndarray,
    tail_cap: float = DEFAULT_TAIL_CAP,
    common_beta: float | None = None,
) -> CdfGrid:
    """CDF on ``grid`` of the gamma convolution, with per-point error bounds:
    the latent tail mass plus the kernel's rounding bound."""
    latent, beta = gamma_latent(s, tail_cap, common_beta)
    grid = np.asarray(grid, dtype=float)
    values, rounding = _gamma_mixture_cdf(latent, beta, grid)
    return CdfGrid(grid, np.clip(values, 0.0, 1.0), latent.tail_bound + rounding)


def default_gamma_grid(specs, m: int = 256) -> np.ndarray:
    """Grid spanning [~0, far tail] of the larger-mean spec, mean points
    included; a tail past the largest float raises LatticeLimitError."""
    means, uppers = [], []
    for s in specs:
        mean = sum(a / b for a, b in zip(s.shapes, s.scales))
        try:
            sd = math.sqrt(sum(a / b**2 for a, b in zip(s.shapes, s.scales)))
        except (OverflowError, ZeroDivisionError):
            sd = math.inf
        if sd == math.inf:
            # a rate whose square leaves the floats: scale each term, not square it
            sd = math.hypot(*(math.sqrt(a) / b for a, b in zip(s.shapes, s.scales)))
        means.append(mean)
        uppers.append(mean + 12.0 * sd + 1.0)
    if not math.isfinite(max(uppers)):
        raise LatticeLimitError(f"gamma grid would end past the floats, at {max(uppers)}")
    return np.unique(
        np.concatenate([np.linspace(1e-9, max(uppers), m), np.asarray(means)])
    )


# ---------------------------------------------------------------------------
# Order oracles


def survival_dominance_check(d1, d2, tol: float = 1e-9) -> OrderVerdict:
    """Usual stochastic order oracle: P(X1 >= t) <= P(X2 >= t) everywhere,
    on two lattices at one offset or two grids on one set of points."""
    if isinstance(d1, TruncatedPMF) and isinstance(d2, TruncatedPMF):
        if d1.offset != d2.offset:
            raise ValueError("lattices must share their offset")
        size = max(d1.probs.size, d2.probs.size)
        points = d1.offset + np.arange(size)
        # past its last point a lattice lists no mass
        s1, s2 = np.zeros((2, size))
        s1[: d1.probs.size] = d1.survival
        s2[: d2.probs.size] = d2.survival
        err = d1.tail_bound + d2.tail_bound
    elif isinstance(d1, CdfGrid) and isinstance(d2, CdfGrid):
        if d1.points.size != d2.points.size or np.any(
            np.abs(d1.points - d2.points) > 1e-12
        ):
            raise ValueError("cdf grids must share their points")
        points = d1.points
        s1 = 1.0 - d1.values
        s2 = 1.0 - d2.values
        err = float(np.max(d1.errors) + np.max(d2.errors))
    else:
        raise ValueError("operands must be two TruncatedPMF or two CdfGrid")

    margins = s1 - s2
    worst = int(np.argmax(margins))
    m = float(margins[worst])
    record = {"t": float(points[worst]), "excess": m, "error_bound": err}
    if m <= tol:
        return OrderVerdict(Status.HOLDS, detail=record)
    if m > tol + err:
        return OrderVerdict(Status.REFUTED, violation=record)
    return OrderVerdict(
        Status.UNKNOWN, detail={"reason": "violations within error bounds", **record}
    )


# ---------------------------------------------------------------------------
# CSV export


def export_curve_csv(path, points, values, errors) -> None:
    with open(path, "w") as fh:
        fh.write("k_or_t,value,error_bound\n")
        for t, v, e in zip(points, values, errors):
            fh.write(f"{t:.17g},{v:.17g},{e:.17g}\n")
