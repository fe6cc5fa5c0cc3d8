"""The exact stage of the numeric layer: decide the convolution order or the
usual stochastic order of two convolutions from their parameters alone,
before any lattice or grid is built.  A decision is a certificate of the
convolution order, which implies the stochastic order, or one of four exact
refutations.  Every float is an integer over a power of two, so every exact
quantity here is an integer or a ratio of integers, and no numpy is needed;
floats that are summed together are read over one common power of two by
``majorization._integers``, which the parameter layer's exact sums share.

**Negative binomial certificate.**  A negative binomial of shape ``α`` and
success probability ``p`` has the probability generating function ``(p / (1 −
q s))^α``, ``q = 1 − p``, so ``log G(s) = α Σ_{k≥1} q^k (s^k − 1) / k``.  For
convolutions ``X`` and ``Y``, let the net atom ``w_q`` be ``Y``'s shape
weight at ``q`` minus ``X``'s.  Then ``log G_Y / G_X = Σ_k c_k (s^k − 1)``
with ``c_k = S_k / k`` and ``S_k = Σ_q w_q q^k``.  If every ``c_k ≥ 0`` (and
``Σ c_k`` is finite, as every ``q < 1`` makes it), ``G_Y / G_X`` is the
generating function of a compound Poisson law ``Z``, and ``Y = X + Z`` with
``Z`` independent of ``X``: ``X ≤_conv Y`` (Steutel & van Harn, *Infinite
Divisibility of Probability Distributions on the Real Line*, 2004, ch. II).

Only finitely many ``S_k`` need a look.  Let the top atom be the one at the
largest ``q``.  If its weight is positive and ``T_K = w_top q_top^K + Σ_{w_q
< 0} w_q q^K ≥ 0``, then ``T_k / q_top^k`` grows with ``k``, since every
``(q / q_top)^k`` falls, and ``S_k ≥ T_k ≥ 0`` for every ``k ≥ K``.

Most ``S_k`` before ``K`` need no look either.  Let ``ρ`` be the largest
``q`` of a negative atom and ``D(k) = Σ_{w_q > 0} w_q (q − ρ) q^k``.  If
``S_k ≥ 0`` and ``D(k) ≥ 0``, then ``S_j ≥ 0`` for every ``j ≥ k``: ``g(j) =
S_j / ρ^j`` has ``g(j + 1) − g(j) = Σ_q w_q (q − ρ) q^j / ρ^{j+1} ≥ D(j) /
ρ^{j+1}``, since a negative atom has ``q ≤ ρ`` and so a term ``≥ 0``; and
``D(j) / ρ^j`` never falls, since an atom above ``ρ`` has a positive
coefficient on the growing ``(q / ρ)^j`` and one below a negative
coefficient on the falling one.  So ``g`` rises from ``k`` on.  The scan of
``S_k`` stops at the first ``k`` where a float sum of ``D(k) / q_top^k``
clears its rounding bound; one that does not only lets the scan go on.
From there only the top atom and the negative ones are carried on to ``T_K``
and ``T_{K+1}``: a scan of ``m`` full sums and ``K`` costs ``O(m n + K d)``
products, ``n`` net atoms and ``d`` of them dominant, and at most ``2m + 2``
float sums.

The inputs are read as exact rationals: a component's ``p`` is the float
given, and components merge by exact ``p``.  Each net weight is rounded once
(``math.fsum``, so its sign is exact).  Each ``S_k`` and ``T_K``, divided by
``q_top^k`` so that the top term cannot underflow, is summed in floats under
a proven rounding bound, and a sum that the bound leaves undecided is summed
again exactly, in integers.  Each term of ``D(k)`` is a term of ``S_k``
times ``fl(p_neg − p)``, whose sign is exact (the difference of two distinct
floats is not 0), and rounds twice more: its bound is that of ``S_k`` at
``4k + 3`` roundings and ``k + 1`` underflows.  ``D(k)`` needs no exact sum.

**Gamma certificate.**  A gamma of shape ``a`` and rate ``b`` has ``log L(s)
= −a ∫_0^∞ (1 − e^{−su}) e^{−bu} du / u``.  With the net weight ``w_b`` (Y's
shape at rate ``b`` minus X's, components merged by exact rate) and ``h(u) =
Σ_b w_b e^{−bu}``, ``log L_Y / L_X = −∫_0^∞ (1 − e^{−su}) h(u) du / u``.  If
``h ≥ 0`` on ``u > 0``, that is the Laplace exponent of a generalized gamma
convolution ``Z`` with Lévy density ``h(u) / u``, so ``Y = X + Z``
(Bondesson, *Generalized Gamma Convolutions and Related Classes of
Distributions and Densities*, 1992).  Two exact sufficient tests decide ``h
≥ 0``, with the atoms sorted by increasing rate:

1. every prefix sum ``M1(b_k) = Σ_{b_i ≤ b_k} w_i`` is ``≥ 0``: by Abel
   summation ``h(u) = u ∫_0^∞ M1(b) e^{−bu} db``;
2. ``Σ w ≥ 0`` and ``M2(b_k) = Σ_{b_i ≤ b_k} w_i (b_k − b_i) ≥ 0`` at every
   atom: integrating once more, ``h(u) = u² ∫_0^∞ M2(b) e^{−bu} db``, and
   ``M2`` is linear between atoms, with slope ``Σ w`` past the last.

Test 1 implies test 2, and each is decided in integers: every float is an
integer over a power of two.

**Refutations.**  Each of the first three is a necessary condition of ``X
≤_st Y``, so of ``X ≤_conv Y`` too, read from the parameters exactly:

- right tail: a gamma survival falls like ``t^{A−1} e^{−b t}``, ``b`` the
  smallest rate and ``A`` the total shape at it, so ``b1 < b2``, or ``b1 =
  b2`` with ``A1 > A2`` (compared in integers), refutes; a negative
  binomial's falls like ``k^{A−1} q^k`` at its largest ``q``, the same test
  on the smallest ``p``;
- left tail (gamma, stochastic order only): ``F(t) ~ t^r Π b^a / Γ(r + 1)``
  near 0, ``r`` the total shape, so ``r1 > r2`` refutes.  ``r1`` and ``r2``
  are compared rounded once (``math.fsum``): rounding is monotone, so a
  strict inequality of the rounded totals is one of the exact totals, and a
  tie, however the exact totals compare, decides nothing;
- mean: ``E X > E Y`` (``Σ a / b``, or ``Σ α q / p``).  Each mean is an
  unreduced ratio of integers, and the two are compared by
  cross-multiplying.  The record divides each ratio in floats, which is
  correctly rounded, and raises ``OverflowError`` past the largest float.

The fourth refutes the convolution order only.  Take the top net atom: the
net atom at the smallest rate (or ``p``) whose net weight is not zero.  If
its weight ``w_top`` is negative, ``L_Y / L_X = Π_b (b / (b + s))^{w_b}`` is
analytic on ``s > −b_top`` and tends to 0 as ``s → −b_top``.  Were ``Y = X +
Z`` with ``Z ≥ 0``, ``L_Z`` would equal it there, and the Laplace transform
of a law on ``[0, ∞)`` is singular at its abscissa of convergence (Widder,
*The Laplace Transform*, 1941, ch. II), so it would converge on ``s >
−b_top``, where it is at least 1 for ``s < 0``, not near 0.  The same holds
for ``G_Y / G_X`` as ``s → 1 / q_top`` (Pringsheim's theorem).  The net weight is
rounded once (``math.fsum``), so its sign is exact.  For the stochastic
order the tail constants then decide, so this test is not run there.

Ties of these quantities decide nothing; no tolerance is used anywhere.
"""
from __future__ import annotations

import math
from functools import reduce
from itertools import repeat
from operator import mul

from stochord.majorization import _integers
from stochord.verdicts import OrderVerdict, Status

# Past this many terms the certificate decides nothing; this also bounds the
# products carried per dominant atom, the float sums of a scan that no
# rising test stops, and the work of an exact sum (about 3.3 ms in integers
# for 12 atoms at k = 1024, on one core of an otherwise idle 2-vCPU Xeon).
TERM_LIMIT = 1024
_U = 2.0**-53  # unit roundoff
_UNDERFLOW = 2.0**-1072  # four times the smallest subnormal float


def decide(s1, s2, order: str) -> OrderVerdict | None:
    """The verdict on ``s1 ≤ s2`` in ``order`` (``"conv"`` or ``"st"``) from
    the parameters alone: ``holds`` with :func:`certificate`'s record as its
    detail, ``refuted`` with :func:`refutation`'s record as its violation, or
    ``None`` when neither decides.  The right tail is read first, once:
    unless ``s2`` holds the smallest rate (or ``p``), no certificate can
    exist, and the floats refute at once.  A quantity past the largest float
    decides nothing.  Raises ``ValueError`` on specs of two families."""
    if s1.family != s2.family:
        raise ValueError("family mismatch")
    try:
        violation = _right_tail(s1, s2)
        if violation is None:
            detail = certificate(s1, s2)
            if detail is not None:
                return OrderVerdict(Status.HOLDS, detail=detail)
            violation = _after_right_tail(s1, s2, order)
    except OverflowError:
        return None
    return None if violation is None else OrderVerdict(Status.REFUTED, violation=violation)


def certificate(s1, s2) -> dict | None:
    """The record of ``s1 ≤_conv s2`` read from the Lévy measure:
    ``{"certified": "levy", "terms": K}`` for negative binomial specs
    (:func:`levy_terms`), ``{"certified": "levy", "order": 1 | 2}`` for gamma
    specs (:func:`gamma_levy_order`), or ``None``, which refutes nothing."""
    if s1.family == "gamma":
        key, found = "order", gamma_levy_order(s1, s2)
    else:
        key, found = "terms", levy_terms(s1, s2)
    return None if found is None else {"certified": "levy", key: found}


def refutation(s1, s2, order: str) -> dict | None:
    """The first exact test that refutes ``s1 ≤ s2`` in ``order``, as its
    record, or ``None``: the right tail, ``{"tail": "right", "min_rates":
    [b1, b2]}`` (``"min_probs"`` for negative binomial specs) or, at equal
    smallest values, ``{"tail": "right", "min_rate": b, "shapes": [A1,
    A2]}``; the left tail of gamma specs in the stochastic order, ``{"tail":
    "left", "total_shapes": [r1, r2]}``; the mean, ``{"means": [m1, m2]}``;
    in the convolution order, the top net atom, ``{"net_atom": "top",
    "rate": b, "weight": w}`` (``"prob"``).  Shapes, means and
    weights are the exact ones rounded once.  May raise ``OverflowError``."""
    return _right_tail(s1, s2) or _after_right_tail(s1, s2, order)


def _after_right_tail(s1, s2, order: str) -> dict | None:
    if order == "st" and s1.family == "gamma":
        r1, r2 = math.fsum(s1.shapes), math.fsum(s2.shapes)
        if r1 > r2:
            return {"tail": "left", "total_shapes": [r1, r2]}
    (n1, d1), (n2, d2) = _mean(s1), _mean(s2)
    if n1 * d2 > n2 * d1:
        return {"means": [n1 / d1, n2 / d2]}  # correctly rounded, or OverflowError
    if order == "conv":
        weights = ((b, math.fsum(v)) for b, v in sorted(_signed(s1, s2).items()))
        b, w = next(((b, w) for b, w in weights if w), (None, 0.0))
        if w < 0:
            return {"net_atom": "top", _scale(s1): b, "weight": w}
    return None


def _scale(s) -> str:
    return "rate" if s.family == "gamma" else "prob"


def _signed(s1, s2) -> dict:
    """Each rate (or ``p``) of the pair mapped to its shapes, ``s1``'s
    negated."""
    signed = {}
    for sign, s in ((-1.0, s1), (1.0, s2)):
        for a, b in zip(s.shapes, s.scales):
            signed.setdefault(b, []).append(sign * a)
    return signed


def _right_tail(s1, s2) -> dict | None:
    b1, b2 = min(s1.scales), min(s2.scales)
    scale = f"min_{_scale(s1)}"
    if b1 < b2:
        return {"tail": "right", f"{scale}s": [b1, b2]}
    if b1 == b2:
        a1, a2 = ([a for a, b in zip(s.shapes, s.scales) if b == b1] for s in (s1, s2))
        ints = _integers(a1 + a2)
        if sum(ints[: len(a1)]) > sum(ints[len(a1) :]):
            return {"tail": "right", scale: b1, "shapes": [math.fsum(a1), math.fsum(a2)]}
    return None


def _mean(s) -> tuple[int, int]:
    """The mean of ``s`` as an unreduced ratio of integers, its denominator
    positive: ``Σ a / b``, or ``Σ a (1 − p) / p``, each float read as an
    integer over a power of two."""
    gamma = s.family == "gamma"
    num, den = 0, 1
    for a, b in zip(s.shapes, s.scales):
        n_a, d_a = a.as_integer_ratio()
        n_b, d_b = b.as_integer_ratio()
        # a / b = n_a d_b / (d_a n_b); a (1 − p) / p = n_a (d_p − n_p) / (d_a n_p)
        n, d = n_a * (d_b if gamma else d_b - n_b), d_a * n_b
        num, den = num * d + n * den, den * d
    return num, den


def gamma_levy_order(s1, s2) -> int | None:
    """The order (1 or 2) of the first test that shows ``h ≥ 0`` for two
    gamma specs, which certifies ``s1 ≤_conv s2``, or ``None`` when neither
    does; ``None`` refutes nothing.  Equal laws pass test 1."""
    n1 = len(s1.shapes)
    net = {}
    for i, (a, b) in enumerate(zip(_integers(s1.shapes + s2.shapes), s1.scales + s2.scales)):
        net[b] = net.get(b, 0) + (a if i >= n1 else -a)
    atoms = [(b, w) for b, w in sorted(net.items()) if w]
    prefix = 0
    for _, w in atoms:
        prefix += w
        if prefix < 0:
            break
    else:
        return 1
    if sum(w for _, w in atoms) < 0:
        return None
    # M2(b_k) = b_k P − Q over the atoms below b_k, P = Σ w_i, Q = Σ w_i b_i
    total = moment = 0
    for r, (_, w) in zip(_integers([b for b, _ in atoms]), atoms):
        if r * total < moment:
            return None
        total += w
        moment += w * r
    return 2


def levy_terms(s1, s2) -> int | None:
    """The ``K`` from which the top atom's dominance certifies ``s1 ≤_conv
    s2`` for two negative binomial specs, or ``None`` when it certifies
    nothing: a top atom whose weight is not positive, some ``S_k < 0`` before
    ``K`` (exact ties included), or a ``K`` past ``TERM_LIMIT``.  ``None``
    refutes nothing.  With no negative atom, equal laws included, ``K`` is 1:
    no ``S_k`` is checked one by one.  Otherwise the ``S_k`` are checked one
    by one up to ``K`` or to the first rising test that proves all later
    ones (:func:`_dominance_start`)."""
    try:
        return _dominance_start(_signed(s1, s2))
    except OverflowError:  # a net weight, or a sum of terms, past the floats
        return None


def _dominance_start(signed: dict) -> int | None:
    """:func:`levy_terms` on the shapes of each ``p``, ``X``'s negated.  ``K``
    is the first of ``start``, ``start + 1`` with ``T_K ≥ 0``, ``start`` the
    float estimate of the top atom's dominance, once every ``S_k``, ``k <
    K``, is ``≥ 0``.  Each ``S_k`` is checked until :func:`_rising` proves
    ``D(k) > 0`` at a ``k`` with ``S_k ≥ 0``; then every later ``S_k`` is
    ``≥ 0``, and only the dominant atoms' powers are carried on, by the same
    sequential products, so ``T_start`` and ``T_start+1`` are the floats of
    a full scan.  May raise ``OverflowError``."""
    atoms = [(p, w) for p, w in sorted((p, math.fsum(v)) for p, v in signed.items()) if w]
    negative = [i for i, (_, w) in enumerate(atoms) if w < 0]
    if not negative:
        return 1
    (p_top, w_top), p_neg = atoms[0], atoms[negative[0]][0]
    if w_top < 0:
        return None
    # the smallest K with w_top q_top^K ≥ (Σ |w_neg|) q_neg^K, q_neg the
    # largest q of a negative atom: an estimate, checked below
    lead = math.log1p(-p_top) - math.log1p(-p_neg)
    size = math.log(-math.fsum(atoms[i][1] for i in negative)) - math.log(w_top)
    estimate = size / lead if lead > 0 else math.inf
    if not estimate <= TERM_LIMIT:
        return None
    start = math.ceil(max(estimate, 1.0))
    q_top = 1.0 - p_top
    ratios = [(1.0 - p) / q_top for p, _ in atoms]
    powers = [w for _, w in atoms]
    every, dominant = range(len(atoms)), [0] + negative
    for k in range(1, start + 2):
        powers = [x * r for x, r in zip(powers, ratios)]
        if k >= start and _nonnegative(signed, atoms, powers, k, dominant):
            return k
        if not _nonnegative(signed, atoms, powers, k, every):
            return None
        if k < start and _rising(atoms, powers, p_neg, k):
            break
    else:
        return None
    # every S_j, j ≥ k, is nonnegative: only T_start and T_start+1 are left,
    # the dominant powers carried on by the same sequential products
    for i in dominant:
        powers[i] = reduce(mul, repeat(ratios[i], start - k), powers[i])
    if _nonnegative(signed, atoms, powers, start, dominant):
        return start
    for i in dominant:
        powers[i] *= ratios[i]
    return start + 1 if _nonnegative(signed, atoms, powers, start + 1, dominant) else None


def _rising(atoms: list, powers: list, p_neg: float, k: int) -> bool:
    """Whether ``D(k) = Σ_{w_q > 0} w_q (q − ρ) q^k > 0`` is proven by floats
    alone, ``ρ = 1 − p_neg`` the largest ``q`` of a negative atom, from
    ``powers`` (as in :func:`_nonnegative`) times ``fl(p_neg − p)``, which
    is not 0 and has the exact sign of ``q − ρ``.  Each term rounds
    two more times than a term of :func:`_nonnegative` and may underflow once
    more, so the sum is within :func:`_rounding_bound` at ``4k + 3``
    roundings and ``k + 1`` underflows of ``D(k) / q_top^k``.  ``False``
    decides nothing."""
    terms = [x * (p_neg - p) for x, (p, w) in zip(powers, atoms) if w > 0]
    total = math.fsum(terms)
    return total > 0 and total > _rounding_bound(terms, 4 * k + 3, k + 1)


def _rounding_bound(terms: list, rounds: int, underflows: int) -> float:
    """A bound on ``|Σ exact − fsum(terms)|`` when each term is its exact
    value rounded ``rounds`` times, relatively by at most ``u``, and
    underflowed at most ``underflows`` times, each adding at most half the
    smallest subnormal: ``(2 rounds + 2) u A + (n underflows + 1) 2^-1072``,
    ``A = Σ |terms|``, for ``rounds · u ≤ 0.01`` (see :func:`_nonnegative`)."""
    return (2 * rounds + 2) * _U * math.fsum(map(abs, terms)) + (
        len(terms) * underflows + 1
    ) * _UNDERFLOW


def _nonnegative(signed: dict, atoms: list, powers: list, k: int, which) -> bool:
    """Whether ``Σ_i w_i q_i^k ≥ 0`` over the atoms ``which``, from the
    floats ``powers[i]``, which are ``fl(w_i)`` times ``r_i = fl(fl(1 − p_i)
    / fl(1 − p_top))`` ``k`` times over, or, where their rounding bound does
    not decide, exactly.

    The bound: ``fl(w)`` rounds once, relatively by at most ``u = 2^-53``,
    each ``r`` three times and each product once, so a term's relative error
    is at most ``γ_{4k+1} = (4k + 1) u / (1 − (4k + 1) u)``.  Each product
    that underflows adds at most half the smallest subnormal, which the later
    products by ``r ≤ 1`` grow at most ``(1 + u)^k``-fold, so underflow adds
    at most ``k 2^-1074`` to a term.  The sum is rounded once, exactly where
    it is subnormal.  So ``|Σ_i w_i (q_i / q_top)^k − fsum(terms)|`` is at
    most ``(γ_{4k+1} / (1 − γ_{4k+1}) + u) (A + n k 2^-1074) + n k 2^-1074``,
    ``A = Σ |terms|``.  ``(8k + 4) u A + (n k + 1) 2^-1072``, computed in
    floats, exceeds it, since ``(4k + 1) u ≤ 0.01`` below ``TERM_LIMIT``."""
    terms = [powers[i] for i in which]
    total = math.fsum(terms)
    bound = _rounding_bound(terms, 4 * k + 1, k)
    if total > bound:
        return True
    if total < -bound:
        return False
    # every shape and every p is an integer over a power of two: over one
    # power of two for the shapes and one for 1 and the p's, each weight and
    # each 1 − p is an integer, and the sum keeps its sign
    shapes = [signed[atoms[i][0]] for i in which]
    flat = iter(_integers([a for group in shapes for a in group]))
    weights = [sum(next(flat) for _ in group) for group in shapes]
    one, *ps = _integers([1.0, *(atoms[i][0] for i in which)])
    return sum(w * (one - p) ** k for w, p in zip(weights, ps)) >= 0
