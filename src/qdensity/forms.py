"""Ternary quadratic forms over the rationals and the standard isotropic form.

Forms are stored as exact rational Gram matrices with the row-vector
convention ``Q(v) = v * gram * v^T`` and ``B(u, v) = u * gram * v^T``; all
matrix actions elsewhere in the package multiply row vectors on the right, so
the identities for the unipotent orbit hold literally.

A form is accepted when its Gram is symmetric, nondegenerate and indefinite.
The signature needs no elimination: a symmetric matrix has only real
eigenvalues, so Descartes' rule of signs on its characteristic polynomial
counts them by sign exactly, and Sylvester's law of inertia makes those
counts the signature of the form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import ValidationError
from .fixed import DEFAULT_PRECISION, FixedReal, _ceil_div, _round_div, _round_shift, as_fixed

Gram = tuple[tuple[Fraction, Fraction, Fraction], ...]


def _to_gram(rows) -> Gram:
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValidationError("gram matrix must be 3x3")
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _det3(g: Gram) -> Fraction:
    return (
        g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
        - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
        + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
    )


def _signature(g: Gram) -> tuple[int, int, int]:
    """(positives, negatives, zeros) among the eigenvalues of a symmetric Gram.

    By Sylvester's law of inertia these counts are the congruence signature.
    The characteristic polynomial ``x^3 - tr*x^2 + c2*x - det``, with ``c2``
    the sum of the principal 2x2 minors, has only real roots because g is
    symmetric, so Descartes' rule of signs is exact for it: each trailing
    zero coefficient is a zero root, and the sign changes of the other
    coefficients, zeros skipped, count the positive roots.
    """
    c2 = sum(g[i][i] * g[j][j] - g[i][j] * g[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    coeffs = [1, -(g[0][0] + g[1][1] + g[2][2]), c2, -_det3(g)]
    zero = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    nonzero = [c for c in coeffs if c != 0]
    pos = sum(a * b < 0 for a, b in zip(nonzero, nonzero[1:]))
    return pos, 3 - zero - pos, zero


@dataclass(frozen=True)
class TernaryForm:
    """Symmetric rational Gram matrix of a nondegenerate indefinite ternary form.

    The ``from_*`` constructors check symmetry, a nonzero determinant and an
    indefinite signature; ``TernaryForm(gram)`` checks nothing and serves
    probes such as a degenerate form for the isotropic-vector search.
    """

    gram: Gram

    @classmethod
    def from_rows(cls, rows) -> "TernaryForm":
        g = _to_gram(rows)
        if any(g[i][j] != g[j][i] for i, j in ((0, 1), (0, 2), (1, 2))):
            raise ValidationError("gram matrix must be symmetric")
        sig = _signature(g)
        if sig[2]:
            raise ValidationError("gram matrix must be nondegenerate")
        if sig not in ((2, 1, 0), (1, 2, 0)):
            raise ValidationError(f"form must be indefinite ternary, signature {sig}")
        return cls(g)

    @classmethod
    def from_string(cls, text: str) -> "TernaryForm":
        """Parse 'a11 a22 a33 a12 a13 a23' with rational entries."""
        parts = text.split()
        if len(parts) != 6:
            raise ValidationError("form literal needs six rational entries")
        try:
            a11, a22, a33, a12, a13, a23 = (Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad form entry in {text!r}: {exc}") from exc
        return cls.from_rows([[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]])

    @cached_property
    def _coefficients(self) -> tuple[tuple[int, int, int, int], ...]:
        """(i, j, p, q) for each nonzero coefficient p/q of x_i*x_j in Q(x).

        The diagonal g_ii come first, then 2*g_ij for i < j.
        """
        g = self.gram
        pairs = [(i, i, Fraction(g[i][i])) for i in range(3)]
        pairs += [(i, j, 2 * Fraction(g[i][j])) for i, j in ((0, 1), (0, 2), (1, 2))]
        return tuple((i, j, c.numerator, c.denominator) for i, j, c in pairs if c != 0)

    def evaluate_exact(self, v: Sequence) -> Fraction:
        """Q(v) for a rational triple, exact."""
        x = [Fraction(c) for c in v]
        return sum((Fraction(p, q) * x[i] * x[j] for i, j, p, q in self._coefficients), Fraction(0))


# integer Gram rows of the standard form: M*G*M^T stays in integer arithmetic
_STANDARD_ROWS = ((0, 0, -2), (0, 1, 0), (-2, 0, 0))
_STANDARD = TernaryForm.from_rows(_STANDARD_ROWS)


def standard_form() -> TernaryForm:
    """The isotropic form Q(v1, v2, v3) = v2^2 - 4*v1*v3."""
    return _STANDARD


@dataclass(frozen=True)
class ShiftVector:
    """Real shift (alpha, beta, gamma) at a shared fixed-point precision."""

    alpha: FixedReal
    beta: FixedReal
    gamma: FixedReal

    def __post_init__(self):
        if not (self.alpha.F == self.beta.F == self.gamma.F):
            raise ValidationError("shift components must share one precision")

    @property
    def precision(self) -> int:
        return self.alpha.F

    @classmethod
    def from_values(cls, a, b, c, F: int = DEFAULT_PRECISION) -> "ShiftVector":
        return cls(as_fixed(a, F), as_fixed(b, F), as_fixed(c, F))

    def components(self) -> tuple[FixedReal, FixedReal, FixedReal]:
        return (self.alpha, self.beta, self.gamma)


def evaluate_shifted(form: TernaryForm, xi: ShiftVector, v: Sequence[int]) -> FixedReal:
    """Q(v + xi) for an integer triple v, rounded term by term as FixedReal products would be.

    A term with an inexact factor rounds the mantissa product to 2^-F, radius
    the interval cross terms plus two ulps, then scales by the coefficient p/q
    with one more ulp.  A term with two exact factors is its exact value
    rounded once, with radius 0 if that value sits on the 2^-F grid and 1
    otherwise.  The exact sum is kept as an unreduced pair and becomes a
    Fraction only when every term is exact.
    """
    v = tuple(v)
    if any(not isinstance(c, int) for c in v) or len(v) != 3:
        raise ValidationError("shifted evaluation expects an integer triple")
    F = xi.precision
    # (mant, err, num, den) of each xi_i + v_i; num is None when xi_i is not known exactly
    x = [(c.mant + (k << F), c.err, None, 1) if c.exact is None else
         (c.mant + (k << F), c.err, c.exact.numerator + k * c.exact.denominator, c.exact.denominator)
         for c, k in zip(xi.components(), v)]
    mant = err = 0
    num: Optional[int] = 0
    den = 1
    for i, j, p, q in form._coefficients:
        mi, ei, ni, di = x[i]
        mj, ej, nj, dj = x[j]
        if ni is None or nj is None:
            prod = _round_shift(mi * mj, F)
            radius = ((abs(mi) * ej + abs(mj) * ei + ei * ej) >> F) + 2
            mant += _round_div(prod * p, q)
            err += _ceil_div(radius * abs(p), q) + 1
            num = None
        else:
            n, d = ni * nj * p, di * dj * q
            scaled = n << F
            mant += _round_div(scaled, d)
            if scaled % d:
                err += 1
            if num is not None:
                num, den = num * d + n * den, den * d
    return FixedReal(mant, err, F, None if num is None else Fraction(num, den))


def _normalize_primitive(v: tuple[int, int, int]) -> tuple[int, int, int]:
    g = math.gcd(math.gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    w = tuple(c // g for c in v)
    lead = next(c for c in w if c != 0)
    if lead < 0:
        w = tuple(-c for c in w)
    return w  # type: ignore[return-value]


def find_isotropic_vector(form: TernaryForm, B: int) -> Optional[tuple[int, int, int]]:
    """Least primitive integer zero of the form in the box max|v_i| <= B.

    Vectors are reduced to primitive with positive leading coordinate and the
    lexicographically least one is returned; ``None`` proves nothing beyond
    the searched box.
    """
    if B < 1:
        raise ValidationError("search box must have B >= 1")
    best: Optional[tuple[int, int, int]] = None
    for v1 in range(-B, B + 1):
        for v2 in range(-B, B + 1):
            for v3 in range(-B, B + 1):
                if v1 == 0 and v2 == 0 and v3 == 0:
                    continue
                if form.evaluate_exact((v1, v2, v3)) == 0:
                    cand = _normalize_primitive((v1, v2, v3))
                    if best is None or cand < best:
                        best = cand
    return best


def verify_equivalence(form_prime: TernaryForm, m: int, M: Sequence[Sequence[int]]) -> bool:
    """Check m*Q'(v) = Q(v M) for all v, i.e. m*gram(Q') == M*gram(Q)*M^T exactly."""
    if m == 0:
        raise ValidationError("scale factor m must be nonzero")
    rows = [[int(x) for x in row] for row in M]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValidationError("equivalence matrix must be 3x3")
    g = _STANDARD_ROWS
    # rhs = M * G * M^T
    mg = [[sum(rows[i][k] * g[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    rhs = [[sum(mg[i][k] * rows[j][k] for k in range(3)) for j in range(3)] for i in range(3)]
    return all(rhs[i][j] * q.denominator == m * q.numerator
               for i, row in enumerate(form_prime.gram) for j, q in enumerate(row))
