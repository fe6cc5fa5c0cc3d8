"""Exact certificate of the negative binomial convolution order, read from the
canonical (Lévy) measure of the two convolutions; no lattice is built.

A negative binomial of shape ``α`` and success probability ``p`` has the
probability generating function ``(p / (1 − q s))^α``, ``q = 1 − p``, so
``log G(s) = α Σ_{k≥1} q^k (s^k − 1) / k``.  For convolutions ``X`` and
``Y``, let the net atom ``w_q`` be ``Y``'s shape weight at ``q`` minus
``X``'s.  Then ``log G_Y / G_X = Σ_k c_k (s^k − 1)`` with ``c_k = S_k / k``
and ``S_k = Σ_q w_q q^k``.  If every ``c_k ≥ 0`` (and ``Σ c_k`` is finite,
as every ``q < 1`` makes it), ``G_Y / G_X`` is the generating function of a
compound Poisson law ``Z``, and ``Y = X + Z`` with ``Z`` independent of
``X``: ``X ≤_conv Y`` (Steutel & van Harn, *Infinite Divisibility of
Probability Distributions on the Real Line*, 2004, ch. II).

Only finitely many ``S_k`` need a look.  Let the top atom be the one at the
largest ``q``.  If its weight is positive and ``T_K = w_top q_top^K + Σ_{w_q
< 0} w_q q^K ≥ 0``, then ``T_k / q_top^k`` grows with ``k``, since every
``(q / q_top)^k`` falls, and ``S_k ≥ T_k ≥ 0`` for every ``k ≥ K``.

The inputs are read as exact rationals: a component's ``p`` is the float
given, and components merge by exact ``p``.  Each net weight is rounded once
(``math.fsum``, so its sign is exact).  Each ``S_k`` and ``T_K``, divided by
``q_top^k`` so that the top term cannot underflow, is summed in floats under
a proven rounding bound, and a sum that the bound leaves undecided is summed
again exactly.  This module imports no numpy.
"""
from __future__ import annotations

import math
from fractions import Fraction

# Past this many terms the certificate decides nothing; this also bounds the
# work of an exact sum (about 7 ms for 12 atoms at k = 1024, on one core of
# a 2-vCPU Xeon).
TERM_LIMIT = 1024
_U = 2.0**-53  # unit roundoff
_UNDERFLOW = 2.0**-1072  # four times the smallest subnormal float


def levy_terms(s1, s2) -> int | None:
    """The ``K`` from which the top atom's dominance certifies ``s1 ≤_conv
    s2`` for two negative binomial specs, or ``None`` when it certifies
    nothing: a top atom whose weight is not positive, some ``S_k < 0`` before
    ``K`` (exact ties included), or a ``K`` past ``TERM_LIMIT``.  ``None``
    refutes nothing.  With no negative atom, equal laws included, ``K`` is 1:
    no ``S_k`` is checked one by one."""
    signed = {}
    for sign, s in ((-1.0, s1), (1.0, s2)):
        for a, p in zip(s.shapes, s.scales):
            signed.setdefault(p, []).append(sign * a)
    try:
        return _dominance_start(signed)
    except OverflowError:  # a net weight, or a sum of terms, past the floats
        return None


def _dominance_start(signed: dict) -> int | None:
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
    return None


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
    bound = (8 * k + 4) * _U * math.fsum(map(abs, terms)) + (len(terms) * k + 1) * _UNDERFLOW
    if total > bound:
        return True
    if total < -bound:
        return False
    # every weight and every 1 − p is a dyadic rational: over a common power
    # of two each is an integer, and the sum keeps its sign
    weights = [sum(map(Fraction, signed[atoms[i][0]])) for i in which]
    qs = [1 - Fraction(atoms[i][0]) for i in which]
    f = max(w.denominator for w in weights)
    d = max(q.denominator for q in qs)
    return sum(
        w.numerator * (f // w.denominator) * (q.numerator * (d // q.denominator)) ** k
        for w, q in zip(weights, qs)
    ) >= 0
