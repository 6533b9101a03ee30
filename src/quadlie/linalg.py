"""Exact rational linear algebra: matrices, canonical subspaces, lattice ops.

Matrices and subspace rows hold `fractions.Fraction` coefficients (arbitrary
precision, always in lowest terms). Subspaces are kept in reduced row echelon
form so equality of subspaces is structural equality.

All elimination runs on integers, through the two kernels `rref_int` and
`det_int` in `quadlie.kernels`. Rational input is cleared of denominators row
by row (row scaling changes neither the row space nor the kernel). Every
subspace - spans, sums, intersections, kernels - is built by `_int_span` or
`_subspace` from the canonical integer rows `rref_int` returns; that is the
one place where its Fraction rows are made, and the subspace keeps the
integer rows, so the next elimination starts from them without converting
back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
        # tuple equality skips entries that are the same object
        return self.nrows == self.ncols and self.rows == tuple(zip(*self.rows))


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
    """Subspace of Q^ambient in canonical (RREF, no zero rows) basis form.

    `ints` caches the same rows as primitive integer vectors with positive
    pivots (the form `rref_int` returns); it takes no part in equality.
    """

    ambient: int
    rows: tuple[Vec, ...]
    pivots: tuple[int, ...]
    ints: IntRows | None = field(default=None, compare=False, repr=False)

    @classmethod
    def spanned_by(cls, ambient: int, vectors) -> "Subspace":
        vecs = [as_fraction_vector(v, ambient) for v in vectors]
        return _int_span(ambient, _int_rows(vecs))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, (), (), ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        eye = tuple(tuple(int(i == j) for j in range(ambient)) for i in range(ambient))
        return _subspace(ambient, eye, range(ambient))

    def int_rows(self) -> IntRows:
        """The basis rows as primitive integer vectors (each a positive multiple)."""
        if self.ints is None:
            object.__setattr__(self, "ints", tuple(map(tuple, _int_rows(self.rows))))
        return self.ints

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


def _subspace(ambient: int, rows, pivots) -> Subspace:
    """Subspace from canonical `rref_int` rows (primitive, positive pivot)."""
    ints = tuple(tuple(r) for r in rows)
    fracs = tuple(
        tuple(Fraction(x, r[c]) if x else _ZERO for x in r)
        for r, c in zip(ints, pivots)
    )
    return Subspace(ambient, fracs, tuple(pivots), ints)


def _distinct_nonzero(rows) -> list[tuple[int, ...]]:
    return list(dict.fromkeys(tuple(r) for r in rows if any(r)))


def _int_span(ambient: int, rows) -> Subspace:
    """Canonical span of integer vectors: one `rref_int` call on the nonzero ones."""
    rows = _distinct_nonzero(rows)
    if not rows:
        return Subspace.zero(ambient)
    reduced, pivots = kernels.rref_int(rows, ambient)
    return _subspace(ambient, reduced[: len(pivots)], pivots)


def span_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_ambient(a, b)
    return _int_span(a.ambient, a.int_rows() + b.int_rows())


def span_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: row reduce [U|U; W|0]; zero-left rows carry U cap W."""
    _check_ambient(a, b)
    n = a.ambient
    if a.is_zero() or b.is_zero():
        return Subspace.zero(n)
    zero = (0,) * n
    stacked = [row + row for row in a.int_rows()] + [row + zero for row in b.int_rows()]
    reduced, pivots = kernels.rref_int(stacked, 2 * n)
    # the rows pivoting right of column n have a zero left half; their right
    # halves are already the canonical rows of the intersection
    right = [r for r, c in enumerate(pivots) if c >= n]
    return _subspace(n, [reduced[r][n:] for r in right], [pivots[r] - n for r in right])


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subspace of a."""
    _check_ambient(a, b)
    return all(not any(a.reduce_vector(row)) for row in b.rows)


def _check_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient != b.ambient:
        raise ValueError(f"ambient dimension mismatch: {a.ambient} != {b.ambient}")


def nullspace(m: Matrix) -> Subspace:
    """Kernel {x : m x = 0} as a canonical subspace."""
    return _int_nullspace(_int_rows(m.rows), m.ncols)


def _int_nullspace(rows, ncols: int) -> Subspace:
    """Kernel of an integer system: one `rref_int` call on the system, one on
    its kernel vectors.

    The free-column kernel vector of free column f has 1 at f and
    -R[r][f] / R[r][p_r] at each pivot p_r; it is scaled to integers by the
    lcm of the pivot values it divides by, then the kernel vectors are
    reduced to their canonical span.
    """
    rows = _distinct_nonzero(rows)
    reduced, pivots = kernels.rref_int(rows, ncols) if rows else ([], [])
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        hits = [(r, reduced[r][f]) for r in range(len(pivots)) if reduced[r][f]]
        scale = lcm(1, *(reduced[r][pivots[r]] for r, _ in hits))
        vec = [0] * ncols
        vec[f] = scale
        for r, x in hits:
            vec[pivots[r]] = -x * (scale // reduced[r][pivots[r]])
        basis.append(vec)
    return _int_span(ncols, basis)


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
