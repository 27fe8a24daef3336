"""Constructive solutions for |Q(v + xi) - t| <= threshold with ||v|| <= T.

Solving is an orbit hit test, then an exact norm and residual filter.  The
target is lifted to eta = (alpha, y, z) with y^2 - 4*alpha*z = t, and the
certified orbit scan of weyl_sums keeps the steps m whose orbit point lies
within scan_c * delta of (y, z) on the torus.  Only those steps round the
orbit point to the nearest integer offset u = (0, a, b) and pull it back
through the inverse orbit matrix, which lands on v = (0, a, b - m*a).  Kept
solutions are re-filtered unconditionally: certified Euclidean norm at most T
and certified residual at most bound_C * delta, so every reported row is
correct regardless of how the scan constants were chosen.

A vectorized lattice enumeration over the full ball serves as the independent
oracle.  It prefilters in float64 with a conservative guard band and resolves
every near-threshold point in certified fixed point, so counts and minima are
exact up to explicitly ambiguous intervals (which count as hits; with exact
rational data there is no ambiguity at all).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import AlphaZero, CapExceeded, PrecisionExhausted, ValidationError
from .fixed import FixedReal, _mant_to_float, _round_shift, as_fixed
from .forms import ShiftVector, TernaryForm, evaluate_shifted, standard_form
from .weyl_sums import DEFAULT_REDUCTION_TOL, _orbit_radius, _scan_orbit

Vec3 = tuple[int, int, int]


@dataclass(frozen=True)
class TargetLift:
    """eta = (alpha, y, z) with y^2 - 4*alpha*z = t certified at construction."""

    alpha: FixedReal
    y: FixedReal
    z: FixedReal
    t: FixedReal

    def __post_init__(self):
        defect = self.y * self.y - self.alpha.mul_int(4) * self.z - self.t
        if not defect.contains_zero():
            raise ValidationError("target lift does not satisfy its defining identity")


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
    T: int
    delta: float
    scan_c: float
    bound_C: float
    count: int = field(init=False)

    def __post_init__(self):
        self.count = len(self.solutions)

    CSV_HEADER = ("m", "a", "b", "v1", "v2", "v3", "value", "residual", "torus_miss")

    def rows(self) -> list[tuple]:
        return [
            (s.m, s.u[1], s.u[2], s.v[0], s.v[1], s.v[2], s.value, s.residual, s.torus_miss)
            for s in self.solutions
        ]

    def to_dict(self) -> dict:
        """Plain-data record (JSON-serializable) for programmatic use."""
        return {
            "T": self.T,
            "delta": self.delta,
            "scan_c": self.scan_c,
            "bound_C": self.bound_C,
            "count": self.count,
            "solutions": [
                {
                    "m": s.m,
                    "u": list(s.u),
                    "v": list(s.v),
                    "value": s.value,
                    "residual": s.residual,
                    "torus_miss": s.torus_miss,
                }
                for s in self.solutions
            ],
        }


def target_lift(alpha: FixedReal, t) -> TargetLift:
    """Default lift policy y = 0, z = -t/(4*alpha).

    alpha indistinguishable from zero is rejected unless t is exactly zero,
    where (y, z) = (0, 0) satisfies the identity trivially (the degenerate
    rational path).
    """
    t_fix = as_fixed(t, alpha.F)
    zero = FixedReal.zero(alpha.F)
    if alpha.contains_zero():
        if t_fix.exact == 0:
            return TargetLift(alpha, zero, zero, t_fix)
        raise AlphaZero("leading coordinate indistinguishable from zero")
    z = -(t_fix / alpha.mul_int(4))
    return TargetLift(alpha, zero, z, t_fix)


def _offset_at(xi: ShiftVector, m: int, eta: TargetLift) -> tuple[int, int, int, int]:
    """Integer offset (a, b) minimizing ||xi*M_m + u - eta|| and its gap mantissas.

    With u = (0, a, b), the gap is (w2 - y + a, w3 - z + b) for the orbit
    coordinates w2 = 2*alpha*m + beta and w3 = alpha*m^2 + beta*m + gamma; the
    mantissa arithmetic is exact and a, b round the midpoints ties to even.
    """
    F = xi.precision
    A, B, C = xi.alpha.mant, xi.beta.mant, xi.gamma.mant
    d2 = A * (2 * m) + B - eta.y.mant
    d3 = A * (m * m) + B * m + C - eta.z.mant
    a = -_round_shift(d2, F)
    b = -_round_shift(d3, F)
    return a, b, d2 + (a << F), d3 + (b << F)


def _check_orbit_radius(xi: ShiftVector, eta: TargetLift, m_max: int, tol) -> None:
    """Refuse a scan to m_max whose orbit radius, lift radius included, exceeds tol."""
    E = _orbit_radius(xi.alpha, xi.beta, xi.gamma, m_max) + eta.y.err + eta.z.err
    if Fraction(E, 1 << xi.precision) > Fraction(tol):
        raise PrecisionExhausted("orbit radius at the end of the scan exceeds the tolerance")


def nearest_offset(xi: ShiftVector, m: int, eta: TargetLift) -> tuple[Vec3, float]:
    """Nearest integer offset for step m and the achieved distance."""
    a, b, gx, gy = _offset_at(xi, m, eta)
    F = xi.precision
    return (0, a, b), math.hypot(_mant_to_float(gx, F), _mant_to_float(gy, F))


def find_solutions(xi: ShiftVector, t, T: int, delta: float,
                   scan_c: float = 1.0, bound_C: float = 32.0,
                   tol=DEFAULT_REDUCTION_TOL) -> SolveReport:
    """Orbit hit test over 1 <= m <= scan_c*sqrt(T), then exact norm and residual filter.

    A step survives the orbit hit test when the torus distance from the orbit
    point to the lift (eta.y, eta.z), i.e. its gap, is certifiably at most
    scan_c*delta; steps the scan cannot decide are dropped.  The resulting
    v = (0, a, b - m*a) is kept only with certified ||v|| <= T and certified
    |Q(v + xi) - t| <= bound_C*delta, the residual being recomputed through
    the form evaluation rather than the orbit identity.  Identical v from
    different steps are reported once (smallest m).
    """
    if T < 4:
        raise ValidationError("T must be >= 4")
    if not (0.0 < delta < 0.5):
        raise ValidationError("delta must lie in (0, 1/2)")
    if scan_c <= 0:
        raise ValidationError("scan_c must be positive")
    if bound_C < 1:
        raise ValidationError("bound_C must be >= 1")

    eta = target_lift(xi.alpha, t)
    m_max = int(scan_c * math.sqrt(T))
    _check_orbit_radius(xi, eta, m_max, tol)
    F = xi.precision

    residual_cap = Fraction(bound_C * delta)
    form = standard_form()
    T_sq = T * T
    seen: set[Vec3] = set()
    out: list[Solution] = []
    for m, certain in _scan_orbit(xi.alpha, xi.beta, xi.gamma, eta.y, eta.z,
                                  m_max, scan_c * delta):
        if not certain:
            continue
        a, b, gx, gy = _offset_at(xi, m, eta)
        v: Vec3 = (0, a, b - m * a)
        if a * a + v[2] * v[2] > T_sq:
            continue
        qv = evaluate_shifted(form, xi, v)
        resid = abs(qv - eta.t)
        if not resid.certainly_le(residual_cap) or v in seen:
            continue
        seen.add(v)
        miss = math.hypot(_mant_to_float(gx, F), _mant_to_float(gy, F))
        out.append(Solution(m, (0, a, b), v, qv.to_float(), resid.to_float(), miss))
    return SolveReport(out, T, delta, scan_c, bound_C)


@dataclass
class OracleCount:
    count: int
    min_residual: float
    argmin: Vec3


def _float_gram(form: TernaryForm) -> list[list[float]]:
    return [[float(x) for x in row] for row in form.gram]


def count_values_bruteforce(form: TernaryForm, xi: ShiftVector, t, T: int, delta: float,
                            cap: int = 300) -> OracleCount:
    """Exhaustive scan of the ball ||v|| <= T.

    Returns the number of v with |Q(v + xi) - t| <= delta (closed comparison),
    the minimum residual over the ball, and its lexicographically least
    argmin.  The float64 sweep only classifies points far from the threshold;
    anything within the guard band is resolved in certified fixed point.
    """
    if T < 0:
        raise ValidationError("T must be >= 0")
    if delta < 0:
        raise ValidationError("delta must be >= 0")
    if T > cap:
        raise CapExceeded(f"T={T} exceeds the enumeration cap {cap}")

    g = _float_gram(form)
    ax, bx, cx = (xi.alpha.to_float(), xi.beta.to_float(), xi.gamma.to_float())
    t_fix = as_fixed(t, xi.precision)
    tf = t_fix.to_float()
    delta_fr = Fraction(delta)

    scale = sum(abs(x) for row in g for x in row) * (T + abs(ax) + abs(bx) + abs(cx) + 1) ** 2
    band = 1e-11 * (scale + abs(tf) + 1.0)

    rng = np.arange(-T, T + 1, dtype=np.float64)
    u2 = rng + bx
    u3 = rng + cx
    sq = rng * rng
    u2c = u2[:, None]
    u3r = u3[None, :]
    base23 = (
        g[1][1] * (u2c * u2c)
        + g[2][2] * (u3r * u3r)
        + 2.0 * g[1][2] * (u2c * u3r)
    )
    ball23 = sq[:, None] + sq[None, :]

    def exact_resid(v: Vec3) -> FixedReal:
        return abs(evaluate_shifted(form, xi, v) - t_fix)

    count = 0
    gmin = math.inf
    # (float residual, v) of every point within band of the running minimum;
    # the running minimum never rises, so this covers the final band
    kept: list[tuple[float, Vec3]] = []
    lo_cut = delta - band
    hi_cut = delta + band
    for v1 in range(-T, T + 1):
        room = T * T - v1 * v1
        mask = ball23 <= room
        if not mask.any():
            continue
        u1 = v1 + ax
        val = base23 + (
            g[0][0] * (u1 * u1)
            + 2.0 * g[0][1] * (u1 * u2c)
            + 2.0 * g[0][2] * (u1 * u3r)
        )
        resid = np.abs(val - tf)
        resid = np.where(mask, resid, np.inf)
        count += int(np.count_nonzero(resid <= lo_cut))
        near = np.argwhere((resid > lo_cut) & (resid <= hi_cut))
        for i2, i3 in near:
            v = (v1, int(i2) - T, int(i3) - T)
            r = exact_resid(v)
            # ambiguous at the working radius counts as a hit (closed bound)
            if not r.certainly_gt(delta_fr):
                count += 1
        gmin = min(gmin, float(resid.min()))
        for i2, i3 in np.argwhere(resid <= gmin + band):
            kept.append((float(resid[i2, i3]), (v1, int(i2) - T, int(i3) - T)))
        del val, resid, mask

    candidates = [v for r, v in kept if r <= gmin + band]
    if not candidates:
        raise ValidationError("empty ball; T must admit at least the origin")
    mids = {v: exact_resid(v).midpoint() for v in candidates}
    true_min = min(mids.values())
    argmin = min(v for v, r in mids.items() if r == true_min)
    return OracleCount(count, float(true_min), argmin)


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
    """Decay exponent -log(min residual)/log(T) along an increasing T grid.

    Oracle mode enumerates the full ball; solver mode takes the best step of
    the orbit scan with the norm filter still enforced, and refuses like
    find_solutions when the orbit radius at the end of the scan exceeds the
    reduction tolerance.  An exactly zero residual is reported as a saturated
    row rather than a number.
    """
    grid = [int(x) for x in T_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])) or not grid:
        raise ValidationError("T grid must be strictly increasing and nonempty")
    if mode not in ("oracle", "solver"):
        raise ValidationError("mode must be oracle or solver")
    form = form or standard_form()
    eta = target_lift(xi.alpha, t) if mode == "solver" else None
    rows: list[ExponentRow] = []
    for T in grid:
        if mode == "oracle":
            res = count_values_bruteforce(form, xi, t, T, 0.0, cap=cap)
            min_resid = res.min_residual
            exact_zero = min_resid == 0.0
        else:
            best: Optional[FixedReal] = None
            m_max = int(scan_c * math.sqrt(T))
            _check_orbit_radius(xi, eta, m_max, DEFAULT_REDUCTION_TOL)
            for m in range(1, m_max + 1):
                a, b, _, _ = _offset_at(xi, m, eta)
                v = (0, a, b - m * a)
                if a * a + v[2] * v[2] > T * T:
                    continue
                r = abs(evaluate_shifted(standard_form(), xi, v) - eta.t)
                if best is None or r.midpoint() < best.midpoint():
                    best = r
            if best is None:
                raise ValidationError(f"no step survived the norm filter at T={T}")
            min_resid = best.to_float()
            exact_zero = best.exact == 0
        if exact_zero or min_resid == 0.0:
            rows.append(ExponentRow(T, 0.0, math.inf, True))
        else:
            rows.append(ExponentRow(T, min_resid, -math.log(min_resid) / math.log(T), False))
    return rows
