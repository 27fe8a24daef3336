"""Quadratic torus orbits, hit counting and exponential sums.

Everything phase-like is reduced mod 1 in integer mantissa arithmetic before
any floating-point call: for a polynomial phase at m ~ 1e6 a double loses the
entire fractional part, while mantissa addition mod 2**F is exact, so the only
uncertainty is the propagated input radius.  Two closed-form block walks in
uint64 arithmetic, each with a proven truncation bound, read the phase; they
differ on purpose.  _orbit_blocks keeps the top 64 bits of the orbit gaps:
the orbit scan filters on them before its bigint per-step test, and so does
the solver's residual filter.  _phase_limbs keeps the top 96 bits of
n*alpha*m^2 + beta*m mod 1, a word and a 32-bit sub-limb, for the sums.

The Weyl sums of one length T run as lanes, one per (n, alpha, beta), in
blocks of steps x lanes.  Each phase's top 53 bits come from its limbs where
the bound proves them exact, and from the bigint phase elsewhere; numpy's
cos and sin (bit for bit libm's, which a test pins) and one Kahan update per
step over a row of every lane's terms follow, so each sum has the bits of
math.cos, math.sin and one Kahan summation in order of m.  The sum-min
kernel reads each fold off the limb word of the linear phase m*step, and
takes the bigint fold where the word cannot decide the term.

Hit tests against a threshold are three-valued: certainly inside, certainly
outside, or ambiguous within the certified radius.  One orbit scan makes
these decisions for both hit counting and the solver.  Ambiguity at the
working precision is never guessed: counting raises and the solver drops the
step.  With exact rational data ambiguous steps resolve exactly, so boundary
ties are decided (a distance equal to the threshold counts as a hit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .diophantine import dirichlet_approx
from .errors import PrecisionExhausted, ValidationError
from .fixed import DEFAULT_PRECISION, FixedReal, as_fixed, exceeds

TWO_PI = 2.0 * math.pi
REDUCTION_TOL = Fraction(1, 1 << 64)
PHASE_TOL = Fraction(1, 1 << 30)
# Steps per block of the orbit filter, the Weyl sum and the sum-min kernel;
# this caps the size of their numpy temporaries.
_BLOCK_STEPS = 4096
# Steps times lanes in one block of the Weyl lane kernel, which keeps its
# numpy temporaries under about 0.5 MB while a block holds at least one step.
_LANE_ELEMENTS = 1 << 13
# Block offsets k and tri = k(k-1)/2 in uint64, read-only: the closed form of
# a block at offset k is v0 + d*k + dd*tri.
_K = np.arange(_BLOCK_STEPS, dtype=np.uint64)
_TRI = (_K * (_K - np.uint64(1))) >> np.uint64(1)
_K.flags.writeable = _TRI.flags.writeable = False


@dataclass(frozen=True)
class TorusPoint2:
    """Point of the 2-torus with both coordinates reduced into [0, 1)."""

    x: FixedReal
    y: FixedReal

    @classmethod
    def from_values(cls, x, y, F: int = DEFAULT_PRECISION) -> "TorusPoint2":
        return cls(as_fixed(x, F).frac_part(), as_fixed(y, F).frac_part())


@dataclass(frozen=True)
class WeylSumResult:
    """A Weyl sum of length T, one lane of weyl_sum_lanes.

    Its terms are math.cos and math.sin of 2*pi times each phase's top 53
    bits, added by one Kahan summation in order of m.  Its modulus is at most
    T: each term has modulus at most 1 + 2^-52, and the Kahan summation's
    error is far below 1e-9*T.
    """

    re: float
    im: float

    def magnitude(self) -> float:
        return math.hypot(self.re, self.im)


def phi(alpha: FixedReal, beta: FixedReal, gamma: FixedReal, m: int) -> TorusPoint2:
    """Orbit point (2*alpha*m + beta, alpha*m^2 + beta*m + gamma) mod 1.

    Refuses (PrecisionExhausted) when the propagated radius at this m exceeds
    the reduction tolerance REDUCTION_TOL = 2^-64.
    """
    x = alpha.mul_int(2 * m) + beta
    y = alpha.mul_int(m * m) + beta.mul_int(m) + gamma
    if exceeds(max(x.err, y.err), x.F, REDUCTION_TOL):
        raise PrecisionExhausted(
            f"orbit radius at m={m} exceeds the reduction tolerance; raise the precision"
        )
    return TorusPoint2(x.frac_part(), y.frac_part())


def _orbit_radius(alpha: FixedReal, beta: FixedReal, gamma: FixedReal, m: int) -> int:
    """Certified radius of both orbit coordinates at step m, in ulps."""
    return alpha.err * (m * m + 2 * m) + beta.err * (m + 1) + gamma.err


def _top_bits(v: int, F: int, bits: int) -> int:
    """The top `bits` bits of v mod 2^F: floor((v mod 2^F) / 2^(F - bits)), exact for F <= bits."""
    v &= (1 << F) - 1
    s = F - bits
    return v >> s if s >= 0 else v << -s


def _top64(v: int, F: int) -> np.uint64:
    """The top 64 bits of v mod 2^F as a uint64."""
    return np.uint64(_top_bits(v, F, 64))


def _orbit_blocks(A: int, B: int, C: int, rx: int, ry: int, F: int,
                  T: int) -> Iterator[tuple[int, int, int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The gaps of steps 1..T of the orbit of mantissas (A, B, C) from (rx, ry), in closed-form blocks.

    The gap of step m is the orbit point (2*alpha*m + beta, alpha*m^2 +
    beta*m + gamma) less the reference point, folded mod 1 into [-1/2, 1/2).
    Yields, per block of up to _BLOCK_STEPS steps from m0 on,
    (m0, x, y, dy, wx, wy, x_err, y_err):
      - x, y: the exact unreduced gap mantissas at m0 offset by H = 2^(F-1),
        so that (x & (2^F - 1)) - H is the folded gap, and dy the first
        difference of y; the gap at m0 + j is x + j*2A and
        y + j*dy + j(j-1)/2*2A
      - wx, wy: uint64 words of the folded gaps at m0 + k in units of 2^-64,
        two's complement, so their int64 views lie in [-2^63, 2^63)
      - x_err, y_err: each word is short of its exact gap, mod 2^64, by
        less than k + 1 and k(k-1)/2 + k + 1
    """
    S = 1 << F
    H = S >> 1
    # exact integer recurrences on unreduced mantissas, offset by H
    x = 2 * A + B + H - rx      # 2*alpha*m + beta at m = 1
    y = A + B + C + H - ry      # alpha*m^2 + beta*m + gamma at m = 1
    dy = 3 * A + B              # second coordinate first difference
    step = 2 * A                # first coordinate step = second difference

    n = min(_BLOCK_STEPS, T)
    k, tri = _K[:n], _TRI[:n]
    # truncating x0, y0, dy and step to their top 64 bits (_top64) leaves the
    # block values short by less than k + 1 (x) and k(k-1)/2 + k + 1 (y)
    # units of 2^-64
    x_err = k + np.uint64(1)
    y_err = tri + x_err
    # flipping the top bit takes the offset H back off
    half = np.uint64(1 << 63)
    P = _top64(step, F)
    for m0 in range(1, T + 1, _BLOCK_STEPS):
        cnt = min(n, T + 1 - m0)
        wx = (_top64(x, F) + P * k[:cnt]) ^ half
        wy = (_top64(y, F) + _top64(dy, F) * k[:cnt] + P * tri[:cnt]) ^ half
        yield m0, x, y, dy, wx, wy, x_err[:cnt], y_err[:cnt]
        x += cnt * step
        y += cnt * dy + (cnt * (cnt - 1) >> 1) * step
        dy += cnt * step


def _scan_orbit(alpha: FixedReal, beta: FixedReal, gamma: FixedReal,
                vx: FixedReal, vy: FixedReal, T: int, thr: float) -> Iterator[tuple[int, bool]]:
    """Classify 1 <= m <= T by the torus distance from phi(m) to (vx, vy).

    Yields (m, True) for each step certainly within thr (closed comparison)
    and (m, False) for each ambiguous step, in increasing m; certain misses
    are skipped.  A uint64 block filter drops the steps it can prove to be
    certain misses; every other step takes the bigint test.  Steps the
    whole-scan margin cannot decide are redone with the per-m radius, then
    exactly when every input carries its exact value; what is still undecided
    is left to the caller's policy.  The reference point need not be reduced
    mod 1.
    """
    F = alpha.F
    S = 1 << F
    H = S >> 1
    mask = S - 1
    A, B, C = alpha.mant, beta.mant, gamma.mant
    ev = max(vx.err, vy.err)
    # the reference radius only shifts the comparison, so it joins the margins
    E = _orbit_radius(alpha, beta, gamma, T) + ev

    thr_sq = Fraction(thr) ** 2
    # dist^2 <= thr^2  <=>  (gx^2 + gy^2) * den <= num for the folded ulp differences gx, gy
    scaled = thr_sq * S * S
    num, den = scaled.numerator, scaled.denominator
    # margin covers |true^2 - mid^2| for both coordinates at radius E; the
    # integer gx^2 + gy^2 is certainly in at <= hit_lim, certainly out above miss_lim
    margin = 2 * E * S + 2 * E * E
    hit_lim = num // den - margin
    miss_lim = num // den + margin

    exacts = (alpha.exact, beta.exact, gamma.exact, vx.exact, vy.exact)
    all_exact = all(e is not None for e in exacts)

    def exact_hit(m: int) -> bool:
        ae, be, ce, vxe, vye = exacts
        rx = (2 * ae * m + be - vxe) % 1
        ry = (ae * m * m + be * m + ce - vye) % 1
        rx = min(rx, 1 - rx)
        ry = min(ry, 1 - ry)
        return rx * rx + ry * ry <= thr_sq

    # The filter works in units of 2^-64 on the gap words of _orbit_blocks.
    s = F - 64

    # base > miss_lim follows from lo^2 > q for the lower bound lo of the
    # folded differences in units of 2^-64; a lower bound of at most 2^127
    # never passes the cap 2^128, so a threshold past the whole torus drops nothing
    q = min((miss_lim >> 2 * s if s >= 0 else miss_lim << -2 * s) + 1, 1 << 128)
    # lx*lx + ly*ly below overstates lo^2 by a factor under (1 + 2^-53)^4 (a
    # conversion, a square and the sum on each term), and float(q) may round
    # down by 2^-53; the factor 1 + 2^-48 covers both
    cut = float(q) * (1.0 + 2.0 ** -48)

    step = 2 * A
    for m0, x, y, dy, wx, wy, x_err, y_err in _orbit_blocks(A, B, C, vx.mant, vy.mant, F, T):
        # min(w, -w) is the circle norm of a gap word w, and it is
        # 1-Lipschitz, so it stays short by the same error
        u = np.minimum(wx, -wx)
        w = np.minimum(wy, -wy)
        lx = np.where(u > x_err, u - x_err, 0).astype(np.float64)
        ly = np.where(w > y_err, w - y_err, 0).astype(np.float64)
        for j in np.flatnonzero(lx * lx + ly * ly <= cut).tolist():
            m = m0 + j
            gx = ((x + j * step) & mask) - H
            gy = ((y + j * dy + (j * (j - 1) >> 1) * step) & mask) - H
            base = gx * gx + gy * gy
            if base <= hit_lim:
                yield m, True
            elif base <= miss_lim:
                # near the boundary: redo the margin with the per-m radius
                Em = _orbit_radius(alpha, beta, gamma, m) + ev
                gm = 2 * Em * (abs(gx) + abs(gy)) + 2 * Em * Em
                if (base + gm) * den <= num:
                    yield m, True
                elif (base - gm) * den <= num:
                    if not all_exact:
                        yield m, False
                    elif exact_hit(m):
                        yield m, True


def count_orbit_hits(alpha: FixedReal, beta: FixedReal, gamma: FixedReal,
                     v0: TorusPoint2, T: int, delta: float) -> int:
    """Count 1 <= m <= T with the orbit point within delta of v0 on the torus.

    The comparison is closed (distance exactly delta is a hit) and every
    decision is certified against the propagated radius at m = T.  Refuses
    (PrecisionExhausted) when that radius, or an ambiguous step's reference
    radius, exceeds the reduction tolerance REDUCTION_TOL = 2^-64.
    """
    if T < 1:
        raise ValidationError("orbit length T must be >= 1")
    if not (0.0 < delta < 0.5):
        raise ValidationError("delta must lie in (0, 1/2)")
    F = alpha.F
    if any(x.F != F for x in (beta, gamma, v0.x, v0.y)):
        raise ValidationError("orbit parameters must share one precision")
    if exceeds(_orbit_radius(alpha, beta, gamma, T), F, REDUCTION_TOL):
        raise PrecisionExhausted(
            f"orbit radius at m={T} exceeds the reduction tolerance; raise the precision"
        )
    count = 0
    for m, certain in _scan_orbit(alpha, beta, gamma, v0.x, v0.y, T, delta):
        if not certain:
            if exceeds(max(v0.x.err, v0.y.err), F, REDUCTION_TOL):
                # the reference radius is fixed by v0's literals, not by F
                raise PrecisionExhausted(
                    f"hit test ambiguous at m={m}; the radius of the reference point v0 "
                    "exceeds the reduction tolerance, so more precision cannot help"
                )
            raise PrecisionExhausted(f"hit test ambiguous at m={m}; raise the precision")
        count += 1
    return count


def _phase_to_float(x: int, F: int) -> float:
    """The top 53 bits of x mod 2^F as a float in [0, 1)."""
    return math.ldexp(_top_bits(x, F, 53), -53)


def _phase_limbs(PA: list[int], PB: list[int], m0: int, cnt: int, F: int) -> tuple[np.ndarray, np.ndarray]:
    """The top 96 bits of (PA[i]*m*m + PB[i]*m) mod 2^F at [m - m0, i] for m0 <= m < m0 + cnt.

    Each lane's exact phase and its differences at m0, cut to their top 96
    bits, give each phase's top 96 bits in uint64 closed form: a word hi
    wrapping mod 2^64 and a 32-bit sub-limb whose carry joins it, below it in
    lo.  Cutting leaves the phase at offset k short by less than k + tri + 1
    units of 2^-96, tri = k(k-1)/2; a lane with PA = 0 has an exact zero
    second difference, so there by less than k + 1.
    """
    diffs = []
    for a, b in zip(PA, PB):
        diffs += (a * m0 * m0 + b * m0, a * (2 * m0 + 1) + b, 2 * a)   # phase and differences at m0
    tops = [_top_bits(v, F, 96) for v in diffs]
    Xh, Dh, DDh = np.array([t >> 32 for t in tops], dtype=np.uint64).reshape(-1, 3).T
    Xl, Dl, DDl = np.array([t & 0xFFFFFFFF for t in tops], dtype=np.uint64).reshape(-1, 3).T
    k, tri = _K[:cnt, None], _TRI[:cnt, None]
    lo = Xl + Dl * k + DDl * tri
    hi = Xh + Dh * k + DDh * tri
    # the sub-limb stays below 2^32 * (1 + k + tri) < 2^56 in a 4096-step block
    return hi + (lo >> np.uint64(32)), lo


def _weyl_phases(PA: list[int], PB: list[int], m0: int, cnt: int, F: int) -> np.ndarray:
    """_phase_to_float(PA[i]*m*m + PB[i]*m, F) at [m - m0, i] for m0 <= m < m0 + cnt.

    Each phase's top 53 bits are those of its _phase_limbs, which are short
    by less than k + tri + 1 units of 2^-96 at offset k, so they are exact
    unless the 43 bits below them are at least 2^43 - (k + tri); those
    phases are taken from the bigint phase.
    """
    hi, lo = _phase_limbs(PA, PB, m0, cnt, F)
    # the top 53 bits are a float64 integer, so the scaling is exact
    ph = np.ldexp((hi >> np.uint64(11)).astype(np.float64), -53)
    below = ((hi & np.uint64(0x7FF)) << np.uint64(32)) | (lo & np.uint64(0xFFFFFFFF))
    rows, cols = np.nonzero(below >= np.uint64(1 << 43) - (_K[:cnt, None] + _TRI[:cnt, None]))
    for j, i in zip(rows.tolist(), cols.tolist()):
        m = m0 + j
        ph[j, i] = _phase_to_float(PA[i] * m * m + PB[i] * m, F)
    return ph


def weyl_sum_lanes(lanes: Sequence[tuple[int, FixedReal, FixedReal]], T: int) -> list[WeylSumResult]:
    """Sum of e(n*alpha*m^2 + beta*m) for 1 <= m <= T for each lane (n, alpha, beta).

    Each phase is the top 53 bits of the exact mantissa phase mod 1; numpy's
    cos and sin of it, which a test pins bit for bit to math.cos and
    math.sin, are summed by Kahan's method in order of m.  Every lane's alpha
    and beta share one precision.  The lanes' sums are independent, so
    one Kahan update per step runs over a row holding every lane's cos and
    sin; numpy float64 addition and subtraction round like Python floats, so
    each sum has the bits of a per-term loop.  That update costs four numpy
    calls per step whatever the number of lanes, so a call with few lanes is
    slower than a per-term loop.  A block holds max(1, min(_BLOCK_STEPS,
    _LANE_ELEMENTS // lanes)) steps, so past _LANE_ELEMENTS lanes a block is
    one step over every lane.  The first lane refusal, in lane order, is
    raised before any sum starts.
    """
    if T < 1:
        raise ValidationError("sum length T must be >= 1")
    if not lanes:
        return []
    F = lanes[0][1].F
    PA, PB = [], []
    for n, alpha, beta in lanes:
        if alpha.F != F or beta.F != F:
            raise ValidationError("sum coefficients must share one precision")
        if exceeds(abs(n) * alpha.err * T * T + beta.err * T, F, PHASE_TOL):
            raise PrecisionExhausted("phase radius at m=T exceeds the phase tolerance")
        PA.append(n * alpha.mant)
        PB.append(beta.mant)

    sub, add = np.subtract, np.add
    L = len(PA)
    steps = max(1, min(_BLOCK_STEPS, _LANE_ELEMENTS // L))
    # columns 0..L-1 hold the lanes' real parts, L..2L-1 their imaginary parts
    total, comp, t, s = (np.zeros(2 * L) for _ in range(4))  # comp: Kahan compensation
    for m0 in range(1, T + 1, steps):
        ang = TWO_PI * _weyl_phases(PA, PB, m0, min(steps, T + 1 - m0), F)
        for row in np.concatenate((np.cos(ang), np.sin(ang)), axis=1):
            sub(row, comp, t)
            add(total, t, s)
            sub(s, total, comp)
            sub(comp, t, comp)
            total, s = s, total
    return list(map(WeylSumResult, total[:L].tolist(), total[L:].tolist()))


def _sum_min_kernel(step_mant: int, step_err: int, count: int, T_cap: int, F: int) -> float:
    """Sum over m = 1..count of min(1 / ||m*step||, T_cap).

    The circle norm ar of each multiple is folded from the exact mantissa
    m*step mod 2^F; its term is T_cap when ar*T_cap <= 2^F, else
    1 / ldexp(float(ar), -F), the correctly rounded quotient 2^F / float(ar).
    The terms are summed by Kahan's method in order of m.  Refuses
    (PrecisionExhausted) when the radius at m = count exceeds the phase
    tolerance, or when a fold is at most a nonzero radius.  With a zero
    radius a zero fold (rational step hitting an integer) passes the cap
    test, so the term saturates at T_cap.

    The terms come in blocks of _BLOCK_STEPS steps.  The word of the top 96
    bits of m*step mod 2^F comes from _phase_limbs of the linear phase, short
    by less than k + 1 units of 2^-96 at offset k.  So the fold g of the
    word bounds ar strictly between g - 2 and g + 2 units of 2^(F-64).  When
    float64 rounds both ends to one value, float(ar) is that value; when
    both ends clear the cap test and the refusal the same way, so does ar.
    Every other step (a fold below about 2^-11, near a rounding tie, the cap
    or the radius) takes the bigint path.
    """
    E = step_err * count
    if exceeds(E, F, PHASE_TOL):
        raise PrecisionExhausted("linear phase radius exceeds the phase tolerance")
    S = 1 << F
    H = S >> 1
    mask = S - 1
    # the cap test and the refusal in units of 2^(F-64): low >= cap_out gives
    # ar*T_cap > 2^F, up <= cap_in gives ar*T_cap < 2^F, low >= e_out gives ar > E
    word = (1 << 64) - 1
    cap_out = np.uint64(min(-(-(1 << 64) // T_cap), word))
    cap_in = np.uint64(min((1 << 64) // T_cap, word))
    e_out = np.uint64(-((-E << 64) >> F))
    two = np.uint64(2)
    total = 0.0
    comp = 0.0
    for m0 in range(1, count + 1, _BLOCK_STEPS):
        hi = _phase_limbs([0], [step_mant], m0, min(_BLOCK_STEPS, count + 1 - m0), F)[0][:, 0]
        g = np.minimum(hi, -hi)
        low = np.maximum(g, two) - two
        up = g + two
        f_up = up.astype(np.float64)
        capped = up <= cap_in
        fast = (low >= e_out) & (capped | ((low >= cap_out) & (low.astype(np.float64) == f_up)))
        # 2^64 / float(ar / 2^(F-64)) is 2^F / float(ar), correctly rounded
        terms = np.where(capped, float(T_cap), 2.0 ** 64 / f_up)
        for j in np.flatnonzero(~fast).tolist():
            m = m0 + j
            r = ((m * step_mant + H) & mask) - H
            ar = -r if r < 0 else r
            if ar <= E and E:
                raise PrecisionExhausted(f"circle norm at m={m} is below the certified radius")
            # ar / S is float(ar) scaled by 2^-F, without forming a float past 2^1024
            terms[j] = float(T_cap) if ar * T_cap <= S else 1 / (ar / S)
        for term in terms.tolist():
            t = term - comp
            s = total + t
            comp = (s - total) - t
            total = s
    return total


def weyl_differencing_bound(n: int, alpha: FixedReal, T: int) -> float:
    """T + 2 * sum_{m=1}^{T} min(1/||2*n*m*alpha||, T).

    Classical differencing upper bound for the squared modulus of a lane's
    sum in weyl_sum_lanes; independent of the linear coefficient.
    """
    if T < 1:
        raise ValidationError("range T must be >= 1")
    return T + 2.0 * _sum_min_kernel(2 * n * alpha.mant, 2 * abs(n) * alpha.err, T, T, alpha.F)


def sum_min(alpha: FixedReal, M: int, T: int) -> float:
    """Sum over m = 1..M*T of min(1/||m*alpha||, T)."""
    if M < 0:
        raise ValidationError("M must be >= 0")
    if T < 1:
        raise ValidationError("T must be >= 1")
    return _sum_min_kernel(alpha.mant, alpha.err, M * T, T, alpha.F)


def sum_min_explicit_bound(alpha: FixedReal, M: int, T: int) -> float:
    """4*M*T^2/q + 8*(M+1)*T*log(T) with q the best denominator <= T.

    Natural logarithm; the denominator comes from dirichlet_approx so the
    value is reproducible bit for bit.
    """
    if T < 2:
        raise ValidationError("T must be >= 2")
    if M < 0:
        raise ValidationError("M must be >= 0")
    q = dirichlet_approx(alpha, T).q
    return 4.0 * M * T * T / q + 8.0 * (M + 1) * T * math.log(T)
