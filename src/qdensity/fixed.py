"""Signed fixed-point reals with certified error bounds.

A :class:`FixedReal` stores an integer mantissa scaled by ``2**-F`` together
with an integer error radius measured in units of ``2**-F`` (ulps).  Every
operation guarantees that the true real number lies inside
``[mant - err, mant + err] * 2**-F``.  When a value is additionally known to
be an exact rational, the :class:`~fractions.Fraction` rides along in the
``exact`` slot; it drives terminating continued fractions, rationality
detection and exact threshold comparisons.

Error propagation is conservative but tight where cheap: mantissa addition is
exact (no extra ulp), multiplication uses the standard interval cross terms
plus two ulps, one for rounding the product and one for flooring the cross
term, and division widens to the exact rational interval endpoints before
re-rounding.  For an inexact value, comparisons against a bound and the
radius test :func:`exceeds` cross-multiply integers with the bound's
numerator and denominator, and build no Fraction.

Quadratic surds ``(u + v*sqrt(d))/w`` are constructed through an integer
square root carried to ``2F`` bits, so the initial radius is a single ulp.

A computation works at one precision F.  Every entry point that combines
FixedReals, here and in the modules that use them, refuses operands at
another precision with a ValidationError; nothing converts between
precisions.  A run that needs a second precision parses its literals again.
The arithmetic operators take FixedReals only and raise TypeError for an
int, Fraction or float on either side; an API boundary lifts such a number
once, with :func:`as_fixed`, and exact integer steps use :meth:`add_int`,
:meth:`mul_int` and :meth:`div_int`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import isqrt

from .errors import PrecisionExhausted, ValidationError

DEFAULT_PRECISION = 256
MIN_PRECISION = 64
MAX_PRECISION = 1 << 16


def _round_div(n: int, d: int) -> int:
    """Nearest integer to n/d (d > 0), ties to even."""
    q, r = divmod(n, d)
    twice = 2 * r
    if twice > d or (twice == d and q & 1):
        q += 1
    return q


def _round_shift(n: int, k: int) -> int:
    """Nearest integer to n / 2**k, ties to even."""
    if k <= 0:
        return n << (-k)
    q = n >> k
    r = n - (q << k)
    half = 1 << (k - 1)
    if r > half or (r == half and q & 1):
        q += 1
    return q


def _ceil_div(n: int, d: int) -> int:
    return -((-n) // d)


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of Fraction(x), without building one for an int or Fraction."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    fr = Fraction(x)
    return fr.numerator, fr.denominator


def _mant_to_float(m: int, F: int) -> float:
    """m / 2**F as a float, taken from the top 54 bits of |m|; +-inf past float64 range."""
    if m == 0:
        return 0.0
    sign = -1.0 if m < 0 else 1.0
    a = abs(m)
    shift = max(a.bit_length() - 54, 0)
    try:
        return sign * math.ldexp(float(a >> shift), shift - F)
    except OverflowError:
        return sign * math.inf


def exceeds(ulps: int, F: int, bound) -> bool:
    """ulps * 2**-F > bound, decided in integers: the one radius-against-tolerance test."""
    num, den = _ratio(bound)
    return ulps * den > num << F


class FixedReal:
    """Fixed-point real with mantissa, ulp error radius and optional exact value."""

    __slots__ = ("mant", "err", "F", "exact")

    def __init__(self, mant: int, err: int, F: int, exact: Fraction | None = None):
        if err < 0:
            raise ValueError("error radius must be nonnegative")
        self.mant = mant
        self.err = err
        self.F = F
        if exact is None and err == 0:
            # a point interval is the exact dyadic rational it sits on
            exact = Fraction(mant, 1 << F)
        self.exact = exact

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_fraction(cls, value: Fraction | int | float, F: int = DEFAULT_PRECISION) -> "FixedReal":
        fr = Fraction(value)
        num, den = fr.numerator, fr.denominator
        scaled = num << F
        mant = _round_div(scaled, den)
        err = 0 if scaled % den == 0 else 1
        return cls(mant, err, F, fr)

    @classmethod
    def sqrt_int(cls, d: int, F: int = DEFAULT_PRECISION) -> "FixedReal":
        """sqrt(d) for a nonnegative integer d, one ulp of certified error."""
        if d < 0:
            raise ValidationError("sqrt of a negative integer")
        r = isqrt(d)
        if r * r == d:
            return cls.from_fraction(r, F)
        mant = isqrt(d << (2 * F))
        return cls(mant, 1, F, None)

    @classmethod
    def from_surd(cls, u: int, v: int, w: int, d: int, F: int = DEFAULT_PRECISION) -> "FixedReal":
        """(u + v*sqrt(d)) / w with w != 0."""
        if w == 0:
            raise ValidationError("surd denominator must be nonzero")
        root = cls.sqrt_int(d, F)
        return root.mul_int(v).add_int(u).div_int(w)

    _DEC_RE = re.compile(r"^[+-]?(\d+)(?:\.(\d*))?$")

    @classmethod
    def from_decimal(cls, text: str, F: int = DEFAULT_PRECISION) -> "FixedReal":
        """Decimal literal; the radius includes half an ulp of the last digit.

        The carried exact value is the written decimal itself, so downstream
        rationality detection treats any finite decimal as rational.
        """
        text = text.strip()
        m = cls._DEC_RE.match(text)
        if not m:
            raise ValidationError(f"bad decimal literal: {text!r}")
        frac_digits = m.group(2) or ""
        value = Fraction(text)
        base = cls.from_fraction(value, F)
        half_ulp = _ceil_div(1 << F, 2 * 10 ** len(frac_digits))
        return cls(base.mant, base.err + half_ulp, F, value)

    @classmethod
    def zero(cls, F: int = DEFAULT_PRECISION) -> "FixedReal":
        return cls.from_fraction(0, F)

    # ------------------------------------------------------------------
    # interval views
    # ------------------------------------------------------------------

    def lo(self) -> Fraction:
        """Certified lower bound on the true value."""
        if self.exact is not None:
            return self.exact
        return Fraction(self.mant - self.err, 1 << self.F)

    def hi(self) -> Fraction:
        """Certified upper bound on the true value."""
        if self.exact is not None:
            return self.exact
        return Fraction(self.mant + self.err, 1 << self.F)

    def midpoint(self) -> Fraction:
        return Fraction(self.mant, 1 << self.F)

    def err_fraction(self) -> Fraction:
        return Fraction(self.err, 1 << self.F)

    def certainly_le(self, bound) -> bool:
        if self.exact is not None:
            return self.exact <= Fraction(bound)
        num, den = _ratio(bound)
        return (self.mant + self.err) * den <= num << self.F

    def certainly_gt(self, bound) -> bool:
        if self.exact is not None:
            return self.exact > Fraction(bound)
        num, den = _ratio(bound)
        return (self.mant - self.err) * den > num << self.F

    def contains_zero(self) -> bool:
        """True when the certified interval straddles or touches zero."""
        if self.exact is not None:
            return self.exact == 0
        return abs(self.mant) <= self.err

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _coerce(self, other) -> "FixedReal":
        """other itself, a FixedReal at this precision; nothing is lifted or converted."""
        if isinstance(other, FixedReal):
            return other if other.F == self.F else as_fixed(other, self.F)
        raise TypeError(f"cannot mix FixedReal with {type(other).__name__}")

    def __add__(self, other) -> "FixedReal":
        o = self._coerce(other)
        exact = self.exact + o.exact if self.exact is not None and o.exact is not None else None
        return FixedReal(self.mant + o.mant, self.err + o.err, self.F, exact)

    def __sub__(self, other) -> "FixedReal":
        o = self._coerce(other)
        exact = self.exact - o.exact if self.exact is not None and o.exact is not None else None
        return FixedReal(self.mant - o.mant, self.err + o.err, self.F, exact)

    def __neg__(self) -> "FixedReal":
        exact = -self.exact if self.exact is not None else None
        return FixedReal(-self.mant, self.err, self.F, exact)

    def __abs__(self) -> "FixedReal":
        exact = abs(self.exact) if self.exact is not None else None
        return FixedReal(abs(self.mant), self.err, self.F, exact)

    def add_int(self, k: int) -> "FixedReal":
        exact = self.exact + k if self.exact is not None else None
        return FixedReal(self.mant + (k << self.F), self.err, self.F, exact)

    def mul_int(self, k: int) -> "FixedReal":
        exact = self.exact * k if self.exact is not None else None
        return FixedReal(self.mant * k, self.err * abs(k), self.F, exact)

    def __mul__(self, other) -> "FixedReal":
        o = self._coerce(other)
        if self.exact is not None and o.exact is not None:
            return FixedReal.from_fraction(self.exact * o.exact, self.F)
        F = self.F
        mant = _round_shift(self.mant * o.mant, F)
        cross = abs(self.mant) * o.err + abs(o.mant) * self.err + self.err * o.err
        err = (cross >> F) + 2
        return FixedReal(mant, err, F, None)

    def __truediv__(self, other) -> "FixedReal":
        o = self._coerce(other)
        if o.contains_zero():
            raise PrecisionExhausted("division by an interval containing zero")
        if self.exact == 0:
            return FixedReal.zero(self.F)
        if self.exact is not None and o.exact is not None:
            return FixedReal.from_fraction(self.exact / o.exact, self.F)
        a_lo, a_hi = self.lo(), self.hi()
        b_lo, b_hi = o.lo(), o.hi()
        corners = (a_lo / b_lo, a_lo / b_hi, a_hi / b_lo, a_hi / b_hi)
        q_lo, q_hi = min(corners), max(corners)
        F = self.F
        mid = (q_lo + q_hi) / 2
        radius = (q_hi - q_lo) / 2
        mant = _round_div(mid.numerator << F, mid.denominator)
        err = _ceil_div(radius.numerator << F, radius.denominator) + 1
        return FixedReal(mant, err, F, None)

    def div_int(self, k: int) -> "FixedReal":
        if k == 0:
            raise ZeroDivisionError("div_int by zero")
        if self.exact is not None:
            # exact value known: only the representation error remains
            return FixedReal.from_fraction(self.exact / k, self.F)
        mant = _round_div(self.mant, k) if k > 0 else _round_div(-self.mant, -k)
        return FixedReal(mant, _ceil_div(self.err, abs(k)) + 1, self.F, None)

    # ------------------------------------------------------------------
    # rounding and reduction mod 1
    # ------------------------------------------------------------------

    def round_nearest(self) -> int:
        """Nearest integer to the midpoint, ties to even."""
        return _round_shift(self.mant, self.F)

    def frac_part(self) -> "FixedReal":
        """Value reduced mod 1 into [0, 1), error radius unchanged.

        The same integer is subtracted from the mantissa and the exact value,
        so circle arithmetic stays consistent; an inexact value whose interval
        straddles an integer keeps its full radius and may sit within err of
        either edge.
        """
        k = self.mant >> self.F
        exact = self.exact - k if self.exact is not None else None
        return FixedReal(self.mant - (k << self.F), self.err, self.F, exact)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    def to_float(self) -> float:
        return _mant_to_float(self.mant, self.F)

    __float__ = to_float

    def __repr__(self) -> str:
        return f"FixedReal({self.to_float():.17g} ± {_mant_to_float(self.err, self.F):.3g}, F={self.F})"


def as_fixed(value, F: int = DEFAULT_PRECISION) -> FixedReal:
    """Lift ints, Fractions and floats to FixedReal at F; parse_real reads literals.

    A FixedReal at another precision is refused, not converted.
    """
    if isinstance(value, FixedReal):
        if value.F != F:
            raise ValidationError(f"mixed precisions {value.F} and {F}")
        return value
    if isinstance(value, (int, Fraction, float)):
        return FixedReal.from_fraction(value, F)
    raise TypeError(f"cannot convert {type(value).__name__} to FixedReal")


def parse_real(text: str, F: int = DEFAULT_PRECISION) -> FixedReal:
    """Parse a real-number literal.

    Grammar:
      ``p/q``            exact rational
      ``sqrt:d``         square root of a nonnegative integer
      ``surd:u,v,w,d``   (u + v*sqrt(d)) / w
      ``dec:<digits>``   decimal string, half an ulp of the last digit of slack
      ``k``              bare integer, same as k/1
    """
    s = text.strip()
    if not s:
        raise ValidationError("empty real literal")
    try:
        if s.startswith("sqrt:"):
            return FixedReal.sqrt_int(int(s[5:]), F)
        if s.startswith("surd:"):
            parts = s[5:].split(",")
            if len(parts) != 4:
                raise ValidationError(f"surd literal needs 4 fields: {text!r}")
            u, v, w, d = (int(p) for p in parts)
            return FixedReal.from_surd(u, v, w, d, F)
        if s.startswith("dec:"):
            return FixedReal.from_decimal(s[4:], F)
        if "/" in s:
            num, den = s.split("/", 1)
            return FixedReal.from_fraction(Fraction(int(num), int(den)), F)
        return FixedReal.from_fraction(int(s), F)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad real literal {text!r}: {exc}") from exc
