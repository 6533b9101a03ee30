"""Exact linear algebra: integers in the core, Fractions at the boundary.

A subspace is kept as its canonical integer rows: the reduced row echelon
basis, each row scaled to the primitive integer vector with a positive pivot
that `rref_int` returns. Those rows are unique, so equality of subspaces is
equality of the rows, and the next elimination starts from them as they are.
A coordinate subspace (span of some basis vectors) is built straight from
its indices: its canonical rows are the sorted unit rows.
`Matrix` holds `fractions.Fraction` entries (Gram matrices, JSON), and
`Subspace.rows` is a Fraction view of the basis made on demand.

All elimination runs on integers, in the kernels of `quadlie.kernels`:
determinants go through `det_int`, and everything else through the one
Gauss-Jordan elimination, `rref_int`. Spans and intersections read its
canonical rows back in pivot order, and every kernel of a linear system is
`reduced_kernel` of them (`sparse_nullspace`). Rational input is cleared of
denominators row by row (row scaling changes neither the row space nor the
kernel).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import kernels

Vec = tuple[Fraction, ...]
IntRows = tuple[tuple[int, ...], ...]

_ZERO = Fraction(0)


def as_fraction_vector(vec, length: int | None = None) -> Vec:
    out = tuple(Fraction(x) for x in vec)
    if length is not None and len(out) != length:
        raise ValueError(f"expected vector of length {length}, got {len(out)}")
    return out


def _int_rows(rows) -> list[list[int]]:
    """Scale each row by the lcm of its denominators; preserves the row space."""
    out = []
    for row in rows:
        m = lcm(*(x.denominator for x in row)) if row else 1
        out.append([x.numerator * (m // x.denominator) for x in row])
    return out


def _scaled(rows) -> tuple[int, list[list[int]]]:
    """(L, L * rows) for the common denominator L of the entries."""
    scale = lcm(1, *(x.denominator for row in rows for x in row))
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


@dataclass(frozen=True)
class Matrix:
    """Dense exact matrix; rows are tuples of Fractions."""

    rows: tuple[Vec, ...]
    ncols: int

    @classmethod
    def from_rows(cls, rows, ncols: int | None = None) -> "Matrix":
        frozen = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if frozen:
            ncols = len(frozen[0]) if ncols is None else ncols
            if any(len(r) != ncols for r in frozen):
                raise ValueError("ragged rows")
        elif ncols is None:
            raise ValueError("ncols required for empty matrix")
        return cls(frozen, ncols)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        row = (Fraction(0),) * ncols
        return cls((row,) * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
            ),
            n,
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def mul_vec(self, vec) -> Vec:
        v = as_fraction_vector(vec, self.ncols)
        return tuple(sum(r[j] * v[j] for j in range(self.ncols)) for r in self.rows)

    def is_symmetric(self) -> bool:
        # tuple equality skips entries that are the same object
        return self.nrows == self.ncols and self.rows == tuple(zip(*self.rows))


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Unique reduced row echelon form of m (same shape) and its rank."""
    s = _int_span(m.ncols, _int_rows(m.rows))
    zero = (Fraction(0),) * m.ncols
    return Matrix(s.rows + (zero,) * (m.nrows - s.dim), m.ncols), s.dim


def det(m: Matrix) -> Fraction:
    """Exact determinant of a square matrix: det(L m) = L^n det m."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of non-square matrix")
    scale, rows = _scaled(m.rows)
    return Fraction(kernels.det_int(rows), scale ** m.nrows)


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^ambient as its canonical integer basis.

    `ints` are the nonzero RREF rows, each the primitive integer vector with
    a positive pivot (the rows `rref_int` returns), and `pivots` their pivot
    columns. Equality and hashing compare these rows; `rows` is the same
    basis with each row divided by its pivot, in Fractions.
    """

    ambient: int
    ints: IntRows
    pivots: tuple[int, ...]

    @classmethod
    def spanned_by(cls, ambient: int, vectors) -> "Subspace":
        vecs = [as_fraction_vector(v, ambient) for v in vectors]
        return _int_span(ambient, _int_rows(vecs))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, (), ())

    @classmethod
    def coordinate(cls, ambient: int, indices) -> "Subspace":
        """Span of the basis vectors e_i, i in indices (any order, repeats
        allowed): the unit rows in increasing index order are already canonical."""
        pivots = tuple(sorted(set(indices)))
        if pivots and not 0 <= pivots[0] <= pivots[-1] < ambient:
            raise ValueError(f"coordinate index out of range for ambient dimension {ambient}")
        rows = tuple(tuple(int(j == i) for j in range(ambient)) for i in pivots)
        return cls(ambient, rows, pivots)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls.coordinate(ambient, range(ambient))

    @cached_property
    def rows(self) -> tuple[Vec, ...]:
        return tuple(
            tuple(Fraction(x, r[c]) if x else _ZERO for x in r)
            for r, c in zip(self.ints, self.pivots)
        )

    @property
    def dim(self) -> int:
        return len(self.ints)

    def is_zero(self) -> bool:
        return not self.ints

    def contains_vector(self, vec) -> bool:
        return _in_span(self, _int_rows([as_fraction_vector(vec, self.ambient)])[0])


def _in_span(s: Subspace, w) -> bool:
    """Whether the integer vector w lies in s: its scaled residual is zero."""
    for row, p in zip(s.ints, s.pivots):
        c = w[p]
        if c:
            lead = row[p]
            w = [lead * x - c * y for x, y in zip(w, row)]
    return not any(w)


def _sparse(rows) -> list[dict[int, int]]:
    """Dense integer rows as {column: coefficient} maps."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def _read_back(ambient: int, pivot_rows: dict[int, dict[int, int]], offset: int = 0) -> Subspace:
    """The subspace whose canonical rows are `rref_int`'s rows pivoting at
    or right of `offset`, read in pivot order over columns
    offset..offset+ambient-1."""
    pivots = sorted(p for p in pivot_rows if p >= offset)
    cols = range(offset, offset + ambient)
    ints = tuple(tuple(pivot_rows[p].get(c, 0) for c in cols) for p in pivots)
    return Subspace(ambient, ints, tuple(p - offset for p in pivots))


def _int_span(ambient: int, rows) -> Subspace:
    """Canonical span of integer vectors: `rref_int`'s rows in pivot order."""
    return _read_back(ambient, kernels.rref_int(_sparse(rows), ambient))


def span_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_ambient(a, b)
    return _int_span(a.ambient, a.ints + b.ints)


def span_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: row reduce [U|U; W|0]; zero-left rows carry U cap W."""
    _check_ambient(a, b)
    n = a.ambient
    if a.is_zero() or b.is_zero():
        return Subspace.zero(n)
    stacked = [{**row, **{c + n: v for c, v in row.items()}} for row in _sparse(a.ints)]
    stacked += _sparse(b.ints)
    # the rows pivoting right of column n have a zero left half; their right
    # halves are already the canonical rows of the intersection
    return _read_back(n, kernels.rref_int(stacked, 2 * n), offset=n)


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subspace of a."""
    _check_ambient(a, b)
    return all(_in_span(a, row) for row in b.ints)


def _check_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient != b.ambient:
        raise ValueError(f"ambient dimension mismatch: {a.ambient} != {b.ambient}")


def nullspace(m: Matrix) -> Subspace:
    """Kernel {x : m x = 0} as a canonical subspace."""
    return _int_nullspace(_sparse(_int_rows(m.rows)), m.ncols)


def _int_nullspace(rows: list[dict[int, int]], ncols: int) -> Subspace:
    """Kernel of sparse integer rows as a canonical subspace: the span of
    `sparse_nullspace`'s free-column vectors."""
    return _int_span(ncols, sparse_nullspace(rows, ncols)[0])


def sparse_nullspace(rows: list[dict[int, int]], ncols: int) -> tuple[list[list[int]], int]:
    """Kernel basis of a sparse integer system (rows are {col: coeff} maps):
    `reduced_kernel` of its `rref_int` rows. Every kernel in the package
    comes from here."""
    return reduced_kernel(kernels.rref_int(rows, ncols), ncols)


def reduced_kernel(
    pivot_rows: dict[int, dict[int, int]], ncols: int
) -> tuple[list[list[int]], int]:
    """Kernel of mutually reduced sparse integer rows ({pivot: row}, each row
    zero at every other pivot). Returns (vectors, scale): the canonical
    free-column basis, one vector per free column in column order, each times
    `scale`, the common denominator of all their entries, so that the vectors
    are integers.
    """
    scale = 1
    for p, prow in pivot_rows.items():
        scale = lcm(scale, *(prow[p] // gcd(prow[p], v) for v in prow.values()))
    basis = []
    for f in range(ncols):
        if f in pivot_rows:
            continue
        vec = [0] * ncols
        vec[f] = scale
        for p, prow in pivot_rows.items():
            v = prow.get(f)
            if v:
                vec[p] = -v * scale // prow[p]
        basis.append(vec)
    return basis, scale
