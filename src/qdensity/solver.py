"""Constructive solutions for |Q(v + xi) - t| <= threshold with ||v|| <= T.

Solving is an orbit hit test, then an exact norm and residual filter.  On
the points v = (0, v2, v3) the solver visits, Q(v + xi) - t = Q(v + xi_t)
for the lifted shift xi_t = (alpha, beta, gamma + t/(4*alpha)), and the
certified orbit scan of weyl_sums keeps the steps m whose orbit point of
xi_t lies within scan_c * delta of the origin on the torus.  Only those
steps round the orbit point to the nearest integer offset u = (0, a, b) and
pull it back through the inverse orbit matrix, which lands on
v = (0, a, b - m*a).  Kept solutions are re-filtered unconditionally, with
the original xi and t: certified Euclidean norm at most T and certified
residual at most bound_C * delta, so every reported row is correct
regardless of how the scan constants were chosen.

Solver-mode estimate_critical_exponent looks at every step of the scan, not
only the hits, and keeps one running minimum of the certified form
evaluations.  The exact residual of the fixed-point mantissas, an integer R
in units of 2^-2F, lies within a derived slack of each step's midpoint, and
by an exact identity R = |gx^2 - 4*A*gy + L| for the gap (gx, gy) of the
step's orbit point and a lift constant L fixed per run.  So the block walk
of the orbit scan (weyl_sums._orbit_blocks), which carries the top 64 bits
of every gap, gives a certified lower bound on R in numpy, 4096 steps at a
time; only the steps whose bound does not exceed the least midpoint so far,
plus the slack, take the per-step path of the same lattice points
(_lattice_steps), and each is evaluated once.  A dropped step's midpoint
lies strictly above the least one, so the reported minimum is the certified
form evaluation with the least midpoint, ties going to the smallest m.

The independent oracle answers a whole T grid from one sweep of the disc
v1^2 + v2^2 <= max(T)^2, one (v1, v2) chord at a time, rows centre-out.  On
a chord Q(v + xi) - t is a polynomial of degree at most 2 in v3, so the v3
with |Q(v + xi) - t| <= delta form at most two intervals, found once per
chord from float64 roots that carry a derived error bound; each T counts
them in closed form, clipped to its own half-length |v3| <= R_T, on the
chords inside its disc.  Only the integers within that bound of an interval
endpoint, and those whose residual may be the minimum of some ball, are
resolved in certified fixed point, each once and credited to every ball
that holds it, so counts and minima are exact up to explicitly ambiguous
intervals (which count as hits; with exact rational data there is no
ambiguity at all).  A single T is the one-cell grid.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import takewhile
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import PrecisionExhausted, ValidationError
from .fixed import FixedReal, _mant_to_float, _round_shift, as_fixed, exceeds
from .forms import ShiftVector, TernaryForm, evaluate_shifted, standard_form
from .weyl_sums import REDUCTION_TOL, _orbit_blocks, _orbit_radius, _scan_orbit

Vec3 = tuple[int, int, int]


@dataclass(frozen=True)
class Solution:
    m: int
    u: Vec3
    v: Vec3
    value: float
    residual: float
    torus_miss: float


@dataclass
class SolveReport:
    solutions: list[Solution]
    count: int = field(init=False)

    def __post_init__(self):
        self.count = len(self.solutions)


def lifted_shift(xi: ShiftVector, t) -> ShiftVector:
    """xi_t = (alpha, beta, gamma + t/(4*alpha)): Q(v + xi) - t = Q(v + xi_t) wherever v1 = 0.

    There Q(v + xi) - t = (v2 + beta)^2 - 4*alpha*(v3 + gamma) - t, and the
    target moves into gamma.  An exactly zero t returns xi itself, also where
    alpha is indistinguishable from zero (the degenerate rational path); any
    other t with such an alpha is rejected.  The quotient encloses t/(4*alpha)
    over its corner quotients plus an ulp, so 4*alpha times it contains t.
    """
    t_fix = as_fixed(t, xi.precision)
    if t_fix.exact == 0:
        return xi
    if xi.alpha.contains_zero():
        raise ValidationError("leading coordinate indistinguishable from zero")
    return ShiftVector(xi.alpha, xi.beta, xi.gamma + t_fix / xi.alpha.mul_int(4))


def _offset_at(xi_t: ShiftVector, m: int) -> tuple[int, int, int, int]:
    """Integer offset (a, b) minimizing ||xi_t*M_m + u|| and its gap mantissas.

    With u = (0, a, b), the gap is (w2 + a, w3 + b) for the orbit coordinates
    w2 = 2*alpha*m + beta and w3 = alpha*m^2 + beta*m + gamma of the lifted
    shift; the mantissa arithmetic is exact and a, b round the midpoints ties
    to even.
    """
    F = xi_t.precision
    A, B, C = xi_t.alpha.mant, xi_t.beta.mant, xi_t.gamma.mant
    d2 = A * (2 * m) + B
    d3 = A * (m * m) + B * m + C
    a = -_round_shift(d2, F)
    b = -_round_shift(d3, F)
    return a, b, d2 + (a << F), d3 + (b << F)


def _scan_length(xi_t: ShiftVector, T: int, scan_c: float) -> int:
    """Last step to scan: scan_c*sqrt(T), cut where no step can pass the norm filter.

    A step has a = -round(d2 / 2^F) with d2 = 2*A*m + B in the mantissas of
    the lifted shift's alpha and beta, and the norm filter needs |a| <= T and
    |v3| <= T.  With A != 0, |a| >= |d2| / 2^F - 1/2, so past the cut
    2|A|m - |B| > (2T+1)*2^(F-1) gives |a| > T.  With A = 0, d2 = B at every
    step, so a = -round(B / 2^F) is the same at every step; when |a| > T no
    step passes the norm filter and the cut is at 0 steps, whatever alpha's
    exact value or radius, as the filter reads only the mantissas.
    Otherwise v3*2^F lies within 2^(F-1) of -(m*G + C), with
    G = B + a*2^F and C the mantissa of the lifted gamma, so past the cut
    m|G| - |C| > (2T+1)*2^(F-1) gives |v3| > T.  With G = 0 the steps repeat
    with period at most 2 (ties to even), so no step past the second adds
    output, and the cut is that of the largest gap, |G| = 2^(F-1), the
    earliest any gap gives: past step 2T + 1.

    Refuses (PrecisionExhausted) when the orbit radius at the last step, the
    target's share in the lifted gamma included, exceeds the reduction
    tolerance REDUCTION_TOL = 2^-64, and (ValidationError) a T that float64
    cannot hold.
    """
    F = xi_t.precision
    A, B, C = xi_t.alpha.mant, xi_t.beta.mant, xi_t.gamma.mant
    reach = (2 * T + 1) << (F - 1)
    if A:
        cut = (reach + abs(B)) // (2 * abs(A)) + 1
    else:
        a = -_round_shift(B, F)
        G = abs(B + (a << F))
        cut = 0 if abs(a) > T else (reach + abs(C)) // (G or 1 << (F - 1)) + 1
    try:
        m_max = scan_c * math.sqrt(T)
    except OverflowError:
        raise ValidationError("T must lie within float64 range, below about 1.8e308") from None
    m_max = cut if m_max >= cut else int(m_max)
    if exceeds(_orbit_radius(*xi_t.components(), m_max), F, REDUCTION_TOL):
        raise PrecisionExhausted("orbit radius at the end of the scan exceeds the tolerance")
    return m_max


def _lattice_steps(xi_t: ShiftVector, T: int,
                   steps: Iterable[int]) -> Iterator[tuple[int, Vec3, Vec3, int, int]]:
    """(m, u, v, gx, gy) for each orbit step m whose lattice point passes ||v|| <= T.

    The offset u = (0, a, b) pulled back through the inverse orbit matrix is
    v = (0, a, b - m*a); gx, gy are the gap mantissas of _offset_at.
    """
    T_sq = T * T
    for m in steps:
        a, b, gx, gy = _offset_at(xi_t, m)
        v3 = b - m * a
        if a * a + v3 * v3 <= T_sq:
            yield m, (0, a, b), (0, a, v3), gx, gy


def find_solutions(xi: ShiftVector, t, T: int, delta: float,
                   scan_c: float = 1.0, bound_C: float = 32.0) -> SolveReport:
    """Orbit hit test over 1 <= m <= scan_c*sqrt(T), then exact norm and residual filter.

    The scan stops early where no step can pass the norm filter (_scan_length).

    The scan walks the orbit of the lifted shift xi_t (lifted_shift), whose
    gamma carries the target.  A step survives the orbit hit test when the
    torus distance from its orbit point to the origin, i.e. its gap, is
    certifiably at most scan_c*delta; steps the scan cannot decide are
    dropped.  The resulting v = (0, a, b - m*a) is kept only with certified
    ||v|| <= T and certified |Q(v + xi) - t| <= bound_C*delta, the residual
    being recomputed through the form evaluation of the original xi and t
    rather than the orbit identity.  Identical v from different steps are
    reported once (smallest m).  Refuses (PrecisionExhausted) when the orbit
    radius at the end of the scan exceeds the reduction tolerance 2^-64.
    """
    if T < 4:
        raise ValidationError("T must be >= 4")
    if not (0.0 < delta < 0.5):
        raise ValidationError("delta must lie in (0, 1/2)")
    if scan_c <= 0:
        raise ValidationError("scan_c must be positive")
    if bound_C < 1:
        raise ValidationError("bound_C must be >= 1")

    F = xi.precision
    t = as_fixed(t, F)
    xi_t = lifted_shift(xi, t)
    m_max = _scan_length(xi_t, T, scan_c)

    residual_cap = Fraction(bound_C * delta)
    form = standard_form()
    zero = FixedReal.zero(F)
    hits = (m for m, certain in _scan_orbit(*xi_t.components(), zero, zero,
                                            m_max, scan_c * delta) if certain)
    seen: set[Vec3] = set()
    out: list[Solution] = []
    for m, u, v, gx, gy in _lattice_steps(xi_t, T, hits):
        qv = evaluate_shifted(form, xi, v)
        resid = abs(qv - t)
        if not resid.certainly_le(residual_cap) or v in seen:
            continue
        seen.add(v)
        miss = math.hypot(_mant_to_float(gx, F), _mant_to_float(gy, F))
        out.append(Solution(m, u, v, qv.to_float(), resid.to_float(), miss))
    return SolveReport(out)


@dataclass
class OracleCount:
    count: int
    min_residual: float
    argmin: Vec3


# Twice the float64 unit roundoff: each float64 operation below is off by at
# most _EPS times the magnitude of its operands.
_EPS = 2.0 ** -52
# Chords per block of the oracle; this caps the size of its numpy temporaries.
_BLOCK_SLICES = 4096


def _isqrt(x: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(x)) of an array of nonnegative integers below 2^52, as floats."""
    r = np.floor(np.sqrt(x))
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    return r


def _disc_blocks(T: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(v1, v2, R) of the chords v1^2 + v2^2 <= T^2, a block of v1 rows at a time.

    The rows come centre-out (v1 = 0, -1, 1, -2, 2, ...), each row's chords
    with v2 ascending, and R = isqrt(T^2 - v1^2 - v2^2) is the half-length of
    the chord |v3| <= R; all three hold integers as float64, which is exact
    far beyond any T the oracle accepts.
    """
    rows = max(1, _BLOCK_SLICES // (2 * T + 1))
    k = np.arange(2 * T + 1)
    order = ((k + 1) // 2 * np.where(k % 2, -1, 1)).astype(np.float64)
    for first in range(0, 2 * T + 1, rows):
        v1 = order[first:first + rows]
        W = _isqrt(T * T - v1 * v1)
        width = (2 * W + 1).astype(np.int64)
        v2 = np.arange(int(width.sum()), dtype=np.float64) - np.repeat(np.cumsum(width) - W - 1, width)
        v1 = np.repeat(v1, width)
        yield v1, v2, _isqrt(T * T - v1 * v1 - v2 * v2)


def _sublevel(A: float, B: np.ndarray, C: np.ndarray, level: np.ndarray,
              outer: bool) -> tuple[np.ndarray, np.ndarray]:
    """Interval [lo, hi] of the real n with A*n^2 + B*n + C <= level.

    A >= 0, and B >= 0 wherever A == 0; the coefficients and the level are
    exact reals.  The rounding of the root formula is bounded, and the
    interval is widened by that bound (outer: it contains the set) or shrunk
    by it (inner: it lies inside the set).  An empty interval has lo > hi.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = C - level
        if A == 0:
            r = -c / B
            eta = 4 * _EPS * np.abs(r)
            hi = np.where(B > 0, r + eta if outer else r - eta,
                          np.where(c <= 0, np.inf, -np.inf))
            lo = np.full_like(hi, -np.inf)
        else:
            D = B * B - 4 * A * c
            dD = 4 * _EPS * (B * B + 4 * A * np.abs(c))
            s = np.sqrt(np.maximum(D, 0))
            # |s - sqrt(true discriminant)| <= min(sqrt(dD), dD / s) plus its rounding
            err_s = np.where(D > dD, dD / s, np.sqrt(dD)) + 2 * _EPS * s
            mid = -B / (2 * A)
            half = s / (2 * A)
            eta = err_s / A + 8 * _EPS * (np.abs(mid) + half)
            half = half + eta if outer else half - eta
            empty = D + dD < 0 if outer else half < 0
            lo = np.where(empty, np.inf, mid - half)
            hi = np.where(empty, -np.inf, mid + half)
        # an overflow leaves NaN: nothing certain there
        bad = np.isnan(lo) | np.isnan(hi)
    lo = np.where(bad, -np.inf if outer else np.inf, lo)
    hi = np.where(bad, np.inf if outer else -np.inf, hi)
    return lo, hi


def _n_between(lo: np.ndarray, hi: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Number of integers in [lo, hi] with |n| <= R."""
    return np.maximum(np.minimum(np.floor(hi), R) - np.maximum(np.ceil(lo), -R) + 1, 0)


def _gaps(outer, inner, R: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Integer ranges [lo, hi] covering outer minus inner with |n| <= R; lo > hi is empty."""
    lo = np.maximum(np.ceil(outer[0]), -R)
    hi = np.minimum(np.floor(outer[1]), R)
    return [(lo, np.minimum(np.ceil(inner[0]) - 1, hi)),
            (np.maximum(np.floor(inner[1]) + 1, lo), hi)]


def _gap_points(ranges) -> Iterator[tuple[int, list[int]]]:
    """(chord index, sorted integers) for each chord where some range is nonempty."""
    for i in np.flatnonzero(np.any([hi >= lo for lo, hi in ranges], axis=0)):
        pts: set[int] = set()
        for lo, hi in ranges:
            if lo[i] <= hi[i]:
                pts.update(range(int(lo[i]), int(hi[i]) + 1))
        yield int(i), sorted(pts)


def _holds(ranges, i: int, n: int) -> bool:
    """Whether some range [lo, hi] of chord i holds the integer n."""
    return any(lo[i] <= n <= hi[i] for lo, hi in ranges)


def _float(x: Fraction) -> float:
    """float(x), saturated to +-inf past float64 range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _radius(x: FixedReal) -> float:
    """Upper bound on the distance from x's mantissa to the value x stands for."""
    if x.exact is not None:
        d = abs(Fraction(x.mant, 1 << x.F) - x.exact)
    else:
        d = x.err_fraction()
    return _float(d) * (1 + _EPS)


def _chord_polynomials(form: TernaryForm, xi: ShiftVector, t_fix: FixedReal, delta: float):
    """The float64 polynomials of the chords and a bound on their error.

    On the chord through (v1, v2), s*(Q(v + xi) - t) = A*n^2 + B*n + C at
    v3 = n, with the sign s = +-1 chosen so that A = |g33| >= 0 and, when
    A = 0, B >= 0.  Returns A and chord(v1, v2, R), which gives the float64
    B and C of a block of chords and a bound E on the distance from
    A*n^2 + B*n + C to every point of the certified interval of
    s*(Q(v + xi) - t) at v = (v1, v2, n), for every |n| <= R.  Refuses
    (ValidationError) when a float64 input is not finite.
    """
    F = xi.precision
    g = [[_float(x) for x in row] for row in form.gram]
    inputs = (*xi.components(), t_fix)
    al, be, ga, tf = (x.to_float() for x in inputs)
    r = max(_radius(x) for x in inputs[:3])
    r_t = _radius(t_fix)
    if not all(map(math.isfinite, (al, be, ga, tf, r, r_t, *g[0], *g[1], *g[2]))):
        raise ValidationError("the oracle needs the shift, the target and the form within float64 range")
    G = sum(abs(x) for row in g for x in row)
    sign = -1.0 if g[2][2] < 0 else 1.0
    A = abs(g[2][2])
    shift = max(abs(al), abs(be), abs(ga))

    def chord(v1: np.ndarray, v2: np.ndarray, R: np.ndarray):
        u1 = v1 + al
        u2 = v2 + be
        b = 2 * (g[0][2] * u1 + g[1][2] * u2)
        B = sign * (2 * g[2][2] * ga + b)
        C = sign * ((g[2][2] * ga + b) * ga
                    + g[0][0] * u1 * u1 + 2 * g[0][1] * u1 * u2 + g[1][1] * u2 * u2 - tf)
        if A == 0:
            flip = np.where(B < 0, -1.0, 1.0)
            B, C = B * flip, C * flip
        # U bounds every coordinate of u = (u1, u2, n + ga) and of the shift.
        # The float64 inputs are off by 2^-52 of their size (_mant_to_float)
        # plus the radius r (r_t for t), and u1, u2 by 2^-53 of theirs more:
        # at most 2^-51*U + r per coordinate, which moves Q by at most
        # 2^-50*G*U^2 + 2*G*U*r and a square of those.  Computing B, C and
        # then C - level in _sublevel rounds by below 2^-48*(G*U^2 + |tf| +
        # delta).  The certified interval is at most 4*G*U*r + 2*r_t plus a
        # few ulps per term of the fixed-point evaluation wide.
        U = np.maximum(np.maximum(np.abs(u1), np.abs(u2)), np.maximum(R + abs(ga), shift)) + r
        E = 2.0 ** -46 * (G * U * U + abs(tf) + delta) + 8 * (r * G * U + r_t) + 2.0 ** (6 - F) * (1 + G)
        return B, C, E

    return A, chord


def count_values_grid(form: TernaryForm, xi: ShiftVector, t, T_grid: Sequence[int], delta: float,
                      cap: int = 300) -> list[OracleCount]:
    """Exact count and minimum over each ball ||v|| <= T of T_grid, from one sweep.

    Returns one OracleCount per grid entry, in grid order (the grid may be
    unsorted and repeat a T): the number of v with |Q(v + xi) - t| <= delta
    (closed comparison), the minimum residual over the ball, and its
    lexicographically least argmin.

    The disc v1^2 + v2^2 <= max(T)^2 is swept once, one (v1, v2) chord at a
    time.  On a chord Q(v + xi) - t is a polynomial A*v3^2 + B*v3 + C in v3,
    with A = g33 on every chord, whose float64 coefficients come with a bound
    E on the distance from their value to the certified one at every point
    of the largest ball's chord (_chord_polynomials), so E holds on every
    smaller ball's chord too.  The sublevel sets at +-delta -+ 2E give in
    closed form the v3 that certainly count and those that certainly do not;
    each T clips them to its own half-length R_T on the chords inside its
    disc.  Only the v3 between them, next to an interval endpoint, are
    resolved in certified fixed point (ambiguous counts as a hit).  Each T
    bounds its least residual from above by a running mu_T, taken at the
    integers next to the roots and the vertex clipped to R_T; the rows come
    centre-out, so every ball's bound is set by the first block.  Every v3 whose
    residual may lie below the mu_T of the smallest T whose disc holds the
    chord, which bounds the minimum of every larger ball too, is resolved the
    same way, and for each T the least exact value (the certified midpoint
    when the value is not known exactly) over the resolved points of its ball
    wins, ties going to the least v.  Each resolved point is evaluated once,
    in one pass per block.
    """
    if not delta >= 0:
        raise ValidationError("delta must be >= 0")
    for T in T_grid:
        if T < 0:
            raise ValidationError("T must be >= 0")
        if T > cap:
            raise ValidationError(f"T={T} exceeds the enumeration cap {cap}")
    if not T_grid:
        return []

    Ts = sorted(set(T_grid))
    sq = [T * T for T in Ts]
    last = len(Ts) - 1
    t_fix = as_fixed(t, xi.precision)
    delta_fr = Fraction(delta)
    A, chord = _chord_polynomials(form, xi, t_fix, delta)
    # per ball Ts[k]: the count, the least (key, v) and a certified upper
    # bound on the minimum residual; a resolved point whose smallest ball is
    # Ts[k] is credited to every k' >= k
    count = [0] * len(Ts)
    best: list[Optional[tuple[Fraction, Vec3]]] = [None] * len(Ts)
    mu = [math.inf] * len(Ts)
    for v1, v2, R in _disc_blocks(Ts[-1]):
        # a shift whose square is past float64 range overflows here; the inf
        # or NaN that results leaves the chord's points to fixed point
        with np.errstate(over="ignore", invalid="ignore"):
            B, C, E = chord(v1, v2, R)
        rho = v1 * v1 + v2 * v2
        # the chords inside each smaller disc and their half-lengths there
        cells = [(last, slice(None), R)]
        for k in range(last):
            idx = np.flatnonzero(rho <= sq[k])
            if len(idx):
                cells.append((k, idx, _isqrt(sq[k] - rho[idx])))

        # certain hits lie in `low` and outside `high`, where every certified
        # value y has -delta < y <= delta: |A*n^2 + B*n + C - y| <= E, and the
        # levels delta - 2E and 2E - delta leave one more E for the rounding
        # of C - level; the unsure points lie within about E / slope of the
        # level crossings
        low = _sublevel(A, B, C, delta - 2 * E, False)
        high = _sublevel(A, B, C, 2 * E - delta, True)
        both = (np.maximum(low[0], high[0]), np.minimum(low[1], high[1]))
        unsure = (_gaps(_sublevel(A, B, C, delta + 2 * E, True), low, R)
                  + _gaps(high, _sublevel(A, B, C, -delta - 2 * E, False), R))

        # the integers next to the roots and the vertex bound the least key
        # from above by mu; a point whose key may be at most mu has
        # |A*n^2 + B*n + C| at most mu + E of its own chord, and the band
        # takes one more E of that chord for the rounding of C - level
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if A:
                mid = -B / (2 * A)
                half = np.sqrt(np.maximum(B * B - 4 * A * C, 0)) / (2 * A)
                marks = (mid - half, mid, mid + half)
            else:
                marks = (np.where(B > 0, -C / B, 0.0),)
            floors = [np.floor(m) + d for m in marks for d in (0.0, 1.0)]
            for k, idx, R_T in cells:
                count[k] += int(_n_between(low[0][idx], low[1][idx], R_T).sum()
                                - _n_between(both[0][idx], both[1][idx], R_T).sum())
                Bk, Ck = B[idx], C[idx]
                near = [np.clip(f[idx], -R_T, R_T) for f in floors]
                at_marks = np.min([np.abs((A * n + Bk) * n + Ck) for n in near], axis=0)
                mu[k] = min(mu[k], float(np.fmin.reduce(at_marks + 2 * E[idx])))
        # each chord's band is taken at the bound of the smallest ball whose
        # disc holds it, which bounds the minimum of every larger ball too
        mu_chord = np.take(mu, np.searchsorted(sq, rho)) if last else mu[0]
        level = mu_chord * (1 + 2 * _EPS) + 2 * E
        band = _gaps(_sublevel(A, B, C, level, True), _sublevel(A, B, C, -level, False), R)
        # a point lies on one chord and a chord in one block, so each
        # resolved point is evaluated once, here
        for i, pts in _gap_points(unsure + band):
            v1i, v2i = int(v1[i]), int(v2[i])
            for n in pts:
                v = (v1i, v2i, n)
                res = abs(evaluate_shifted(form, xi, v) - t_fix)
                balls = range(bisect_left(sq, rho[i] + n * n), len(Ts))
                if _holds(unsure, i, n) and not res.certainly_gt(delta_fr):
                    for k in balls:
                        count[k] += 1
                if _holds(band, i, n):
                    cand = (res.exact if res.exact is not None else res.midpoint(), v)
                    for k in balls:
                        if best[k] is None or cand < best[k]:
                            best[k] = cand

    if None in best:
        raise ValidationError("empty ball; T must admit at least the origin")
    return [OracleCount(count[k], _float(best[k][0]), best[k][1])
            for k in (bisect_left(Ts, T) for T in T_grid)]


def _window_slack(xi: ShiftVector, M2: int, M3: int) -> int:
    """How far, in units of 2^-2F, evaluate_shifted's midpoint of |Q(v + xi) - t| may stray from R.

    With the mantissas M1 = A, M2 = (a<<F) + B, M3 = (v3<<F) + C of the shifted
    point v = (0, a, v3) and the radii h1, h2, h3 of alpha, beta and gamma,
    the midpoint is the sum of the terms x2*x2 and -4*x1*x3, each rounded to
    2^-F either from the mantissas (M2^2 within 1/2 ulp, -4*M1*M3 within 2
    ulps) or from the exact product when both factors are exact (within 1/2
    ulp of it, which is within h2*(2|M2| + h2), resp. 4*(h1*|M3| + h3*|M1| +
    h1*h3), of the mantissa product), less the mantissa of t.  So the
    residual r has |r.mant * 2^F - R| <= s for R = |M2^2 - 4*M1*M3 - (t<<F)|
    and the s returned here, which grows with |M2| and |M3|.
    """
    h1, h2, h3 = xi.alpha.err, xi.beta.err, xi.gamma.err
    return ((5 << (xi.precision - 1)) + h2 * (2 * abs(M2) + h2)
            + 4 * (h1 * abs(M3) + h3 * abs(xi.alpha.mant) + h1 * h3))


def _residual_floors(alpha: float, lift: float, wx: np.ndarray, wy: np.ndarray,
                     x_err: np.ndarray, y_err: np.ndarray) -> np.ndarray:
    """Lower bounds on R / 2^2F = |gx^2 - 4*alpha*gy + lift| for a block of _orbit_blocks words.

    gx, gy are the gaps of _offset_at as reals in [-1/2, 1/2], which the
    words wx, wy fall short of, mod 1, by less than x_err, y_err units of
    2^-64; alpha and lift are float64 values within 2^-52 relative of alpha
    and L / 2^2F.  Each entry is within _floor_error(alpha, lift) of a
    certified lower bound.  A step whose gy lies within its error of the wrap
    at +-1/2 gets -inf: there the fold and the rounding of _offset_at, ties
    to even, may pick gaps of opposite sign.
    """
    # |gx| lies within x_err of the circle norm u of wx
    u = np.minimum(wx, -wx)
    x_lo = np.ldexp(np.where(u > x_err, u - x_err, 0).astype(np.float64), -64)
    x_hi = np.ldexp((u + x_err).astype(np.float64), -64)
    # away from the wrap, gy lies in [y, y + y_err) for the int64 view y of wy
    # (which makes y + y_err below 2^63 too)
    edge = wy ^ np.uint64(1 << 63)
    wrap = np.minimum(edge, -edge) <= y_err
    y = wy.view(np.int64)
    y_lo = np.ldexp(y.astype(np.float64), -64)
    y_hi = np.ldexp((y + y_err.view(np.int64)).astype(np.float64), -64)
    # P = gx^2 - 4*alpha*gy + lift grows with |gx| and is monotone in gy, so
    # the corners bound it: lo <= P <= hi
    c = 4.0 * alpha
    if c < 0:
        y_lo, y_hi = y_hi, y_lo
    lo = x_lo * x_lo - c * y_hi + lift
    hi = x_hi * x_hi - c * y_lo + lift
    return np.where(wrap, -np.inf, np.maximum(lo, -hi))


def _floor_error(alpha: float, lift: float) -> float:
    """A bound on how far _residual_floors may stray above a certified lower bound.

    The terms x^2 <= 0.26, |4*alpha*y| <= 2.05*|alpha| and |lift| each carry
    at most 4 roundings of 2^-53 relative (the conversion of x, y, alpha or
    lift, and the product), and the two sums add 2^-53 of the sum of their
    magnitudes each: at most 6*2^-53*(1 + 3|alpha| + |lift|) in all, which
    2^-48*(1 + 4|alpha| + |lift|) covers with room for the float64 alpha and
    lift in place of the exact ones.  The sum 1 + 4|alpha| + |lift| is at
    least every magnitude _residual_floors forms, c = 4*alpha among them, up
    to a factor 1 + 2^-50.
    """
    return 2.0 ** -48 * (1.0 + 4.0 * abs(alpha) + abs(lift))


def _floor_cut(bound: int, F: int, err: float) -> float:
    """A float at least bound / 2^2F + err, or inf past float64 range.

    _mant_to_float is within 2^-52 relative and the sum and the product
    round by 2^-53 each, which the factor 1 + 2^-48 covers.
    """
    return (_mant_to_float(bound, 2 * F) + err) * (1.0 + 2.0 ** -48)


def _least_midpoint_residual(xi: ShiftVector, t: FixedReal, xi_t: ShiftVector, T: int,
                             scan_c: float) -> tuple[float, bool]:
    """(float, exact zero?) of the solver-mode residual with the least midpoint at T.

    A running best (r, m) holds the least (r.mant, m) evaluated so far, and
    each step that passes the block filter and the norm filter is evaluated
    once.  A step is dropped only when a certified lower bound on its R
    exceeds best.mant * 2^F + s_max, with s_max the _window_slack at the
    largest mantissas the norm filter lets through; its midpoint, within
    s_max of R, then lies strictly above the best's, so it can neither beat
    nor tie it, and the answer is that of a walk over every step, ties going
    to the smallest m.

    The bound comes from the gap (gx, gy) of _offset_at on the lifted shift:
    with M3_t = ((b - m*a)<<F) + C_t, C_t the mantissa of the lifted gamma,
    M2^2 - 4*A*M3_t = gx^2 - 4*A*gy exactly, so R is |gx^2 - 4*A*gy + L| for
    the lift constant L = 4*A*(C_t - C) - (t<<F).

    A zero A with an alpha not known to be nonzero (lifted_shift then keeps
    xi, as t = 0) fixes the midpoint: the term -4*x1*x3 rounds to mantissa 0,
    and M2 = (a<<F) + B, with a = -round(B / 2^F), is the same at every step.
    There the steps go in order of m, and the first that passes the norm
    filter decides.
    """
    m_max = _scan_length(xi_t, T, scan_c)
    F = xi.precision
    A, B, C_t = xi_t.alpha.mant, xi_t.beta.mant, xi_t.gamma.mant
    lift = 4 * A * (C_t - xi.gamma.mant) - (t.mant << F)
    # the slack at the largest |M2| and |M3| the norm filter lets through,
    # |a| <= T and |v3| <= T
    s_max = _window_slack(xi, (T << F) + abs(xi.beta.mant), (T << F) + abs(xi.gamma.mant))
    alpha_f, lift_f = _mant_to_float(A, F), _mant_to_float(lift, 2 * F)
    err = _floor_error(alpha_f, lift_f)
    fixed_midpoint = not A and not xi.alpha.exact
    # below err < 2^960 every magnitude of _residual_floors is under 2^1009,
    # far from float64's 2^1024, so no term overflows (an overflowed c times
    # gy = 0 would be NaN); past it (alpha or t beyond about 1e303) a float
    # bounds nothing and every step takes the per-step path, as with a fixed
    # midpoint, whose equal floors would order nothing
    bounded = err < 2.0 ** 960 and not fixed_midpoint

    # a step is dropped when its floor exceeds cut: a floor is within err of
    # a lower bound on R / 2^2F and cut is at least (best.mant*2^F + s_max) /
    # 2^2F + err, so R exceeds best.mant*2^F + s_max
    cut = math.inf

    def steps() -> Iterator[int]:
        for m0, _, _, _, wx, wy, x_err, y_err in _orbit_blocks(A, B, C_t, 0, 0, F, m_max):
            floors = (_residual_floors(alpha_f, lift_f, wx, wy, x_err, y_err) if bounded
                      else np.zeros(len(wx)))
            cand = np.flatnonzero(floors <= cut)
            # in ascending order of the floor, up to the first floor past the
            # running cut, which the steps before it may lower
            order = cand[np.argsort(floors[cand], kind="stable")].tolist()
            yield from (m0 + j for j in takewhile(lambda j: floors[j] <= cut, order))

    best: Optional[FixedReal] = None
    best_m = 0
    for m, _, v, _, _ in _lattice_steps(xi_t, T, steps()):
        r = abs(evaluate_shifted(standard_form(), xi, v) - t)
        if best is None or (r.mant, m) < (best.mant, best_m):
            best, best_m = r, m
            cut = _floor_cut((r.mant << F) + s_max, F, err)
        if fixed_midpoint:
            break
    if best is None:
        raise ValidationError(f"no step survived the norm filter at T={T}")
    return best.to_float(), best.exact == 0


@dataclass
class ExponentRow:
    T: int
    min_residual: float
    omega_hat: float
    saturated: bool


def estimate_critical_exponent(xi: ShiftVector, t, T_grid: Sequence[int],
                               mode: str = "oracle",
                               form: Optional[TernaryForm] = None,
                               scan_c: float = 1.0,
                               cap: int = 300) -> list[ExponentRow]:
    """Decay exponent -log(min residual)/log(T) along an increasing grid of T >= 2.

    Oracle mode answers the whole grid from one sweep of the largest ball
    (count_values_grid).  Solver mode covers the orbit steps
    1 <= m <= scan_c*sqrt(T) (cut at the norm filter, _scan_length) on the
    same lattice points as find_solutions, with the norm filter still
    enforced, and refuses like find_solutions a nonpositive scan_c and an
    orbit radius at the end of the scan past the reduction tolerance.  It
    reports the certified form evaluation |Q(v + xi) - t| with the least
    midpoint, ties going to the smallest m, from one running minimum.  The
    exact residual of the mantissa inputs lies within a derived slack of
    every step's midpoint (_window_slack).  That residual is
    |gx^2 - 4*alpha*gy| on the step's orbit gap, up to an exact lift
    constant, so a block filter on the top 64 bits of the gaps bounds it from
    below and drops every step whose bound exceeds the least midpoint so far
    plus the slack.  The other steps take the per-step path, in ascending
    order of their bound, and each is evaluated once.  A zero alpha mantissa
    with t = 0 gives every step the same midpoint, so there the first step
    that passes the norm filter decides.  An exactly zero residual is
    reported as a saturated row rather than a number.
    """
    grid = [int(x) for x in T_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])) or not grid:
        raise ValidationError("T grid must be strictly increasing and nonempty")
    if grid[0] < 2:
        # log(T) must be positive for the exponent
        raise ValidationError("T grid entries must be >= 2")
    if mode not in ("oracle", "solver"):
        raise ValidationError("mode must be oracle or solver")
    form = form or standard_form()
    if mode == "oracle":
        # a zero float minimum is saturated below
        minima = [(res.min_residual, False) for res in count_values_grid(form, xi, t, grid, 0.0, cap=cap)]
    else:
        if form != standard_form():
            raise ValidationError(
                "solver mode takes the standard form only; use oracle mode for another form")
        if scan_c <= 0:
            raise ValidationError("scan_c must be positive")
        t = as_fixed(t, xi.precision)
        xi_t = lifted_shift(xi, t)
        minima = [_least_midpoint_residual(xi, t, xi_t, T, scan_c) for T in grid]
    return [ExponentRow(T, 0.0, math.inf, True) if exact_zero or min_resid == 0.0
            else ExponentRow(T, min_resid, -math.log(min_resid) / math.log(T), False)
            for T, (min_resid, exact_zero) in zip(grid, minima)]
