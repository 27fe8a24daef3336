"""Continued fractions, best rational approximation and badness exponents.

Partial quotients come from one Euclid loop on integer endpoint pairs: on a
rational endpoint ``n/d`` the Gauss map ``x -> 1/(x - a)`` is Euclid's step
on ``(n, d)``.  An inexact value brackets its dyadic interval with the pairs
``(mant -+ err, 2^F)``; a quotient is emitted only while both endpoints share
the same floor, and extraction additionally stops once ``q_k^2 * err > 1/4``,
before the interval can flip a quotient.  An exact rational uses its own
numerator and denominator as both endpoints, so it expands and terminates.
Each search for a denominator range expands once, to a length sized from the
range.

The badness exponent of an irrational is estimated from its convergents,
which witness the minima of ``|q*alpha - p|``: local exponents
``-log(dist_k)/log(q_k)`` are recorded per convergent and the headline
exponent is the least-squares slope of ``-log dist`` against ``log q``
(clamped below by 1), so that the multiplicative constant is absorbed by the
intercept instead of polluting the exponent at small denominators.  The
certificate constant is then recomputed to make
``dist >= c_hat / q^kappa_hat`` literally true for every denominator up to
the certified range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import PrecisionExhausted, ValidationError
from .fixed import FixedReal
from .forms import ShiftVector


@dataclass
class CFExpansion:
    """Certified prefix of a continued fraction.

    ``rational`` means the value is exactly rational and the expansion is
    complete; ``exhausted`` means the precision guard stopped extraction
    before ``n_terms`` quotients were produced.
    """

    quotients: list[int]
    rational: bool = False
    exhausted: bool = False


def continued_fraction(alpha: FixedReal, n_terms: int) -> CFExpansion:
    """Partial quotients of alpha, each one certified at the working precision."""
    if n_terms < 1:
        raise ValidationError("need at least one partial quotient")
    # the Gauss map x -> 1/(x - a) on an endpoint n/d is Euclid's step on (n, d);
    # lo = nl/dl and hi = nh/dh bracket the value, dl and dh stay positive
    exact = alpha.exact
    S = 1 << alpha.F
    if exact is not None:
        err = 0
        nl = nh = exact.numerator
        dl = dh = exact.denominator
    else:
        err = alpha.err
        nl, nh, dl, dh = alpha.mant - err, alpha.mant + err, S, S
    qs: list[int] = []
    q_prev, q_cur = 1, 0  # denominator recurrence seeds q_{-2}, q_{-1}
    while len(qs) < n_terms:
        a = nl // dl
        if nh // dh != a:
            return CFExpansion(qs, exhausted=True)
        q_next = a * q_cur + q_prev
        # q_next^2 * err/S > 1/4: the interval could flip this quotient
        if qs and 4 * q_next * q_next * err > S:
            return CFExpansion(qs, exhausted=True)
        qs.append(a)
        q_prev, q_cur = q_cur, q_next
        rl = nl - a * dl
        if rl == 0:
            # an exact value terminates; an interval touching the integer
            # boundary certifies nothing further
            return CFExpansion(qs, rational=exact is not None, exhausted=exact is None)
        nl, dl, nh, dh = dh, nh - a * dh, dl, rl
    return CFExpansion(qs)


@dataclass(frozen=True)
class Convergent:
    """Best rational approximation p/q with the exact circle distance |q*alpha - p|.

    q >= 1 and gcd(p, q) = 1: convergents, the only producer, starts the
    recurrence at q_0 = 1 and keeps p_k*q_{k-1} - p_{k-1}*q_k = +-1.
    """

    p: int
    q: int
    dist: FixedReal


def convergents(cf: CFExpansion, alpha: FixedReal) -> list[Convergent]:
    """Convergents of a certified quotient prefix via the standard recurrence."""
    out: list[Convergent] = []
    p_prev, p_cur = 0, 1
    q_prev, q_cur = 1, 0
    for a in cf.quotients:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        dist = abs(alpha.mul_int(q_cur).add_int(-p_cur))
        out.append(Convergent(p_cur, q_cur, dist))
    return out


def _expand_until(alpha: FixedReal, stop_q: int) -> tuple[CFExpansion, list[Convergent]]:
    """Expand until some convergent denominator exceeds stop_q, or the expansion stops.

    The k-th convergent denominator is at least the k-th Fibonacci number,
    itself at least phi^(k-2), so 3*bits/2 + 3 quotients pass any stop_q below 2^bits.
    """
    cf = continued_fraction(alpha, 3 * stop_q.bit_length() // 2 + 3)
    return cf, convergents(cf, alpha)


def dirichlet_approx(alpha: FixedReal, T: int) -> Convergent:
    """The convergent with the largest denominator q <= T.

    The returned pair satisfies |alpha - p/q| <= 1/(T*q) because the next
    denominator exceeds T (or the expansion terminated exactly).
    """
    if T < 1:
        raise ValidationError("approximation range T must be >= 1")
    cf, conv = _expand_until(alpha, T)
    within = [c for c in conv if c.q <= T]
    if not within:
        raise PrecisionExhausted("no certified convergent with q <= T")
    if conv[-1].q <= T and not cf.rational:
        raise PrecisionExhausted("precision ran out before the denominators passed T")
    return within[-1]


@dataclass
class DiophantineEstimate:
    """Finite-range certificate dist >= c_hat / q^kappa_hat for q <= q_max.

    ``convergents`` are the certified convergents with q <= q_max the
    certificate was fitted on, q = 1 included; two estimates compare equal on
    the fitted numbers alone, since FixedReal distances compare by identity.
    """

    kappa_hat: float
    c_hat: float
    q_max: int
    per_convergent: list[tuple[int, float]] = field(default_factory=list)
    convergents: list[Convergent] = field(default_factory=list, compare=False)


def estimate_kappa(alpha: FixedReal, q_max: int) -> DiophantineEstimate:
    """Empirical badness exponent of alpha over denominators up to q_max.

    Convergents suffice as sample points since they minimize the circle
    distance among all smaller denominators; an exact rational is refused
    because rational values admit no such exponent.
    """
    if q_max < 2:
        raise ValidationError("q_max must be >= 2")
    if alpha.exact is not None:
        raise ValidationError("value is rational; badness exponent undefined")
    _, conv = _expand_until(alpha, q_max)
    if not conv or conv[-1].q <= q_max:
        raise PrecisionExhausted("could not certify convergents through q_max")
    within = [c for c in conv if c.q <= q_max]
    all_pts = [(c.q, c.dist.to_float()) for c in within]
    pts = [(q, d) for q, d in all_pts if q >= 2]
    if not pts:
        raise ValidationError("no convergent with 2 <= q <= q_max")
    local = [(q, -math.log(d) / math.log(q)) for q, d in pts]
    if len(pts) == 1:
        slope = local[0][1]
    else:
        xs = [math.log(q) for q, _ in pts]
        ys = [-math.log(d) for _, d in pts]
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        sxx = sum((x - mx) ** 2 for x in xs)
        sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        slope = sxy / sxx
    kappa_hat = max(1.0, slope)
    def term(q: int, d: float) -> float:
        e = kappa_hat * math.log(q)
        # past e^700 the power overflows: take logs and cap at 1, above the
        # q = 1 term (below 1), so a capped term is never the minimum
        return d * q**kappa_hat if e <= 700 else math.exp(min(math.log(d) + e, 0.0))

    # the constant covers every convergent in range, q = 1 included, shaved by
    # one part in 1e12 so float rounding cannot break the certificate
    c_hat = min(term(q, d) for q, d in all_pts) * (1.0 - 1e-12)
    return DiophantineEstimate(kappa_hat, c_hat, q_max, local, within)


@dataclass
class DirectionChoice:
    """Best coprime direction (a, c) and the quality of alpha*a^2 + beta*a*c + gamma*c^2."""

    a: int
    c: int
    estimate: DiophantineEstimate


def _direction_candidates(B: int):
    # first nonzero entry positive; (a,c) and (-a,-c) give the same value
    for a in range(0, B + 1):
        lo = 1 if a == 0 else -B
        for c in range(lo, B + 1):
            if a == 0 and c == 0:
                continue
            if math.gcd(a, abs(c)) != 1:
                continue
            yield a, c


def diophantine_direction(xi: ShiftVector, B: int, q_max: int) -> DirectionChoice:
    """Scan coprime directions |a|, |c| <= B for the best badness exponent.

    Directions whose combination is detected rational are skipped, and so are
    those within about 1/q_max of an integer, which have no convergent with
    2 <= q <= q_max to fit; if no candidate is left the shift cannot feed the
    solver and a ValidationError says why.  A PrecisionExhausted from any
    direction ends the scan.  Ties in the exponent break by smaller |a| + |c|,
    then lexicographically, so the reduction is order-independent.
    """
    if B < 1:
        raise ValidationError("direction bound must be >= 1")
    if q_max < 2:
        raise ValidationError("q_max must be >= 2")
    best: Optional[tuple[float, int, tuple[int, int], DirectionChoice]] = None
    irrational = False
    for a, c in _direction_candidates(B):
        combo = xi.alpha.mul_int(a * a) + xi.beta.mul_int(a * c) + xi.gamma.mul_int(c * c)
        if combo.exact is not None:
            continue
        irrational = True
        try:
            est = estimate_kappa(combo, q_max)
        except ValidationError:
            # q_max and rationality are settled, so only an empty fit range is left
            continue
        key = (est.kappa_hat, abs(a) + abs(c), (a, c))
        if best is None or key < best[:3]:
            best = (*key, DirectionChoice(a, c, est))
    if best is None and irrational:
        raise ValidationError(
            "no direction is left: each combination is rational or has no convergent with 2 <= q <= q_max")
    if best is None:
        raise ValidationError("every direction produced a rational combination")
    return best[3]
