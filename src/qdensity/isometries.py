"""Exact integer isometries of the standard form.

The embedding of 2x2 unimodular matrices into the orthogonal group of
``v2^2 - 4*v1*v3`` acts on row vectors from the right.  All arithmetic is
arbitrary-precision integer; exactness is non-negotiable here because the
entries grow quadratically in the orbit parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .forms import ShiftVector, _det3, standard_form, verify_equivalence

Rows = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class SL2Matrix:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValidationError("determinant must be 1")

    def __matmul__(self, other: "SL2Matrix") -> "SL2Matrix":
        return SL2Matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "SL2Matrix":
        return SL2Matrix(self.d, -self.b, -self.c, self.a)


@dataclass(frozen=True)
class SOQMatrix:
    """Integer 3x3 matrix preserving the standard form, determinant one."""

    rows: Rows

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValidationError("matrix must be 3x3")
        if _det3(rows) != 1:
            raise ValidationError("determinant must be 1")
        if not verify_equivalence(standard_form(), 1, rows):
            raise ValidationError("matrix does not preserve the standard form")

    def __matmul__(self, other: "SOQMatrix") -> "SOQMatrix":
        a, b = self.rows, other.rows
        return SOQMatrix(
            tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
                for i in range(3)
            )
        )

    def inverse(self) -> "SOQMatrix":
        """``G M^T G^-1`` with G the standard Gram, since ``M G M^T = G``.

        The halved entries are exact because M preserves the form, and the
        constructor checks the result again.
        """
        r = self.rows
        return SOQMatrix((
            (r[2][2], -2 * r[1][2], r[0][2]),
            (-(r[2][1] // 2), r[1][1], -(r[0][1] // 2)),
            (r[2][0], -2 * r[1][0], r[0][0]),
        ))

    def apply_int(self, v: tuple[int, int, int]) -> tuple[int, int, int]:
        """Row vector times matrix, exact."""
        r = self.rows
        return tuple(sum(v[i] * r[i][j] for i in range(3)) for j in range(3))  # type: ignore


def iota(g: SL2Matrix) -> SOQMatrix:
    """Standard embedding into the special orthogonal group of the form."""
    a, b, c, d = g.a, g.b, g.c, g.d
    return SOQMatrix(
        (
            (a * a, 2 * a * b, b * b),
            (a * c, a * d + b * c, b * d),
            (c * c, 2 * c * d, d * d),
        )
    )


def unipotent(m: int) -> SOQMatrix:
    """Image of the upper-triangular unipotent with parameter m."""
    return SOQMatrix(((1, 2 * m, m * m), (0, 1, m), (0, 0, 1)))


def apply(xi: ShiftVector, M: SOQMatrix) -> ShiftVector:
    """Row-vector right action xi * M.

    The radius of output component j is sum_i |M_ij| * err_i, so it is at
    most 3 * max|M_ij| times the largest input radius; a component whose
    inputs all carry exact values stays exact.
    """
    comps = xi.components()
    out = []
    for j in range(3):
        acc = comps[0].mul_int(M.rows[0][j])
        acc = acc + comps[1].mul_int(M.rows[1][j])
        acc = acc + comps[2].mul_int(M.rows[2][j])
        out.append(acc)
    return ShiftVector(out[0], out[1], out[2])
