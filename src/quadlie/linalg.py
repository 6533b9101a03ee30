"""Exact rational linear algebra: matrices, canonical subspaces, lattice ops.

All coefficients are `fractions.Fraction` (arbitrary precision, always in
lowest terms). Subspaces are kept in reduced row echelon form so equality of
subspaces is structural equality. Elimination funnels through the two
integer kernels `rref_int` and `det_int` in `quadlie.kernels` after clearing
denominators row by row (row scaling does not change the row space, so the
RREF is unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import kernels

Vec = tuple[Fraction, ...]


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
        out.append([int(x * m) for x in row])
    return out


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

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def transpose(self) -> "Matrix":
        cols = tuple(
            tuple(self.rows[i][j] for i in range(self.nrows)) for j in range(self.ncols)
        )
        return Matrix(cols, self.nrows)

    def mul_vec(self, vec) -> Vec:
        v = as_fraction_vector(vec, self.ncols)
        return tuple(sum(r[j] * v[j] for j in range(self.ncols)) for r in self.rows)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        ot = other.transpose()
        rows = tuple(
            tuple(sum(a * b for a, b in zip(r, c)) for c in ot.rows) for r in self.rows
        )
        return Matrix(rows, other.ncols)

    def is_symmetric(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Unique reduced row echelon form of m (same shape) and its rank."""
    int_rows, pivots = kernels.rref_int(_int_rows(m.rows), m.ncols)
    out = []
    for r, c in enumerate(pivots):
        p = int_rows[r][c]
        out.append(tuple(Fraction(x, p) for x in int_rows[r]))
    zero = (Fraction(0),) * m.ncols
    out.extend([zero] * (m.nrows - len(pivots)))
    return Matrix(tuple(out), m.ncols), len(pivots)


def det(m: Matrix) -> Fraction:
    """Exact determinant of a square matrix."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of non-square matrix")
    scale = Fraction(1)
    int_rows = []
    for row in m.rows:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        scale *= mult
        int_rows.append([int(x * mult) for x in row])
    return Fraction(kernels.det_int(int_rows), 1) / scale


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^ambient in canonical (RREF, no zero rows) basis form."""

    ambient: int
    rows: tuple[Vec, ...]
    pivots: tuple[int, ...]

    @classmethod
    def spanned_by(cls, ambient: int, vectors) -> "Subspace":
        vecs = [as_fraction_vector(v, ambient) for v in vectors]
        if not vecs:
            return cls(ambient, (), ())
        int_rows, pivots = kernels.rref_int(_int_rows(vecs), ambient)
        rows = tuple(
            tuple(Fraction(x, int_rows[r][c]) for x in int_rows[r])
            for r, c in enumerate(pivots)
        )
        return cls(ambient, rows, tuple(pivots))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, (), ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        eye = Matrix.identity(ambient)
        return cls(ambient, eye.rows, tuple(range(ambient)))

    @classmethod
    def from_rref_rows(cls, ambient: int, rows, pivots) -> "Subspace":
        return cls(ambient, tuple(tuple(r) for r in rows), tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def basis_matrix(self) -> Matrix:
        return Matrix(self.rows, self.ambient)

    def reduce_vector(self, vec) -> Vec:
        """Residual of vec after reduction against the RREF basis."""
        v = list(as_fraction_vector(vec, self.ambient))
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                for j in range(self.ambient):
                    if row[j]:
                        v[j] -= c * row[j]
        return tuple(v)

    def contains_vector(self, vec) -> bool:
        return not any(self.reduce_vector(vec))


def span_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_ambient(a, b)
    return Subspace.spanned_by(a.ambient, list(a.rows) + list(b.rows))


def span_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: row reduce [U|U; W|0]; zero-left rows carry U cap W."""
    _check_ambient(a, b)
    n = a.ambient
    zero = (Fraction(0),) * n
    stacked = [row + row for row in a.rows] + [row + zero for row in b.rows]
    if not stacked:
        return Subspace.zero(n)
    reduced, rank = rref(Matrix.from_rows(stacked, 2 * n))
    right = [
        row[n:]
        for row in reduced.rows[:rank]
        if not any(row[:n])
    ]
    return Subspace.spanned_by(n, right)


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subspace of a."""
    _check_ambient(a, b)
    return all(not any(a.reduce_vector(row)) for row in b.rows)


def _check_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient != b.ambient:
        raise ValueError(f"ambient dimension mismatch: {a.ambient} != {b.ambient}")


def nullspace(m: Matrix) -> Subspace:
    """Kernel {x : m x = 0} as a canonical subspace."""
    reduced, rank = rref(m)
    pivots = []
    for r in range(rank):
        row = reduced.rows[r]
        pivots.append(next(j for j in range(m.ncols) if row[j]))
    pivot_set = set(pivots)
    basis = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * m.ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced.rows[r][f]
        basis.append(vec)
    return Subspace.spanned_by(m.ncols, basis)


class SpanBuilder:
    """Incremental span with early-exit rank queries (RREF maintained)."""

    def __init__(self, ambient: int):
        self.ambient = ambient
        self._rows: list[list[Fraction]] = []
        self._pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def add(self, vec) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        v = list(as_fraction_vector(vec, self.ambient))
        for row, p in zip(self._rows, self._pivots):
            c = v[p]
            if c:
                for j in range(self.ambient):
                    if row[j]:
                        v[j] -= c * row[j]
        pivot = next((j for j in range(self.ambient) if v[j]), None)
        if pivot is None:
            return False
        inv = v[pivot]
        v = [x / inv for x in v]
        for row in self._rows:
            c = row[pivot]
            if c:
                for j in range(self.ambient):
                    if v[j]:
                        row[j] -= c * v[j]
        idx = next(
            (i for i, p in enumerate(self._pivots) if p > pivot), len(self._pivots)
        )
        self._rows.insert(idx, v)
        self._pivots.insert(idx, pivot)
        return True

    def subspace(self) -> Subspace:
        return Subspace.from_rref_rows(
            self.ambient, [tuple(r) for r in self._rows], self._pivots
        )


def sparse_nullspace(rows: list[dict[int, int]], ncols: int) -> list[Vec]:
    """Kernel basis of a sparse integer system (rows are {col: coeff} maps).

    Built for the invariance systems, which are huge but mostly one- and
    two-term equations. Maintains mutually reduced pivot rows (sparse
    Gauss-Jordan with content reduction); the returned basis is the canonical
    free-column nullspace basis, one vector per free column in column order.
    """

    def reduce_content(row: dict[int, int]) -> None:
        g = 0
        for v in row.values():
            g = gcd(g, v)
            if g == 1:
                return
        if g > 1:
            for c in row:
                row[c] //= g

    pivot_rows: dict[int, dict[int, int]] = {}
    seen = set()
    for raw in rows:
        row = {c: v for c, v in raw.items() if v}
        if not row:
            continue
        reduce_content(row)
        lead = min(row)
        if row[lead] < 0:
            row = {c: -v for c, v in row.items()}
        key = tuple(sorted(row.items()))
        if key in seen:
            continue
        seen.add(key)

        while row:
            hit = [c for c in row if c in pivot_rows]
            if not hit:
                break
            c = min(hit)
            prow = pivot_rows[c]
            p = prow[c]
            q = row[c]
            g = gcd(p, q)
            a, b = p // g, q // g
            if a != 1:
                for cc in row:
                    row[cc] *= a
            for cc, vv in prow.items():
                row[cc] = row.get(cc, 0) - b * vv
            row = {cc: vv for cc, vv in row.items() if vv}
            reduce_content(row)
        if not row:
            continue
        piv = min(row)
        for opiv, orow in list(pivot_rows.items()):
            q = orow.get(piv)
            if q:
                p = row[piv]
                g = gcd(p, q)
                a, b = p // g, q // g
                if a != 1:
                    for cc in orow:
                        orow[cc] *= a
                for cc, vv in row.items():
                    orow[cc] = orow.get(cc, 0) - b * vv
                for cc in [c for c, v in orow.items() if not v]:
                    del orow[cc]
                reduce_content(orow)
        pivot_rows[piv] = row

    free_cols = [c for c in range(ncols) if c not in pivot_rows]
    basis = []
    for f in free_cols:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for p, prow in pivot_rows.items():
            v = prow.get(f)
            if v:
                vec[p] = Fraction(-v, prow[p])
        basis.append(tuple(vec))
    return basis
