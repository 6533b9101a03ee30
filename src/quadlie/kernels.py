"""Exact integer kernels: the hot loops of the whole package.

Fraction-free Gauss-Jordan elimination (`rref_int`) and Bareiss
determinants (`det_int`) over Python's arbitrary-precision integers.
`quadlie.linalg` clears denominators and funnels all elimination through
these two functions.
"""

from __future__ import annotations

from math import gcd

# There is one implementation. The constant stays because the benchmark
# harness records `kernels.BACKEND` with every result, and its tracer wraps
# `quadlie.kernels.det_int` and `rref_int` by module and name.
BACKEND = "pure"


def _content_reduce(row: list[int]) -> None:
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return
    if g > 1:
        for i, x in enumerate(row):
            if x:
                row[i] = x // g


def rref_int(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Reduce integer rows to the canonical integer form of their RREF.

    Returns (rows, pivots). Row r (r < len(pivots)) is the primitive integer
    representative of the r-th RREF row with positive pivot entry; dividing it
    by its pivot value gives the rational RREF row. Remaining rows are zero.
    Input rows are not modified.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        best = -1
        best_abs = 0
        for i in range(r, nrows):
            v = rows[i][c]
            if v:
                a = -v if v < 0 else v
                if best < 0 or a < best_abs:
                    best = i
                    best_abs = a
        if best < 0:
            continue
        if best != r:
            rows[r], rows[best] = rows[best], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            q = row[c]
            if not q:
                continue
            g = gcd(p, q)
            a = p // g
            b = q // g
            for j in range(ncols):
                row[j] = a * row[j] - b * prow[j]
            _content_reduce(row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for r, c in enumerate(pivots):
        row = rows[r]
        _content_reduce(row)
        if row[c] < 0:
            for j in range(ncols):
                row[j] = -row[j]
    return rows, pivots


def det_int(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    rows = [list(r) for r in rows]
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            ri = rows[i]
            rk = rows[k]
            for j in range(k + 1, n):
                ri[j] = (pk * ri[j] - rik * rk[j]) // prev
            ri[k] = 0
        prev = pk
    return sign * rows[n - 1][n - 1]
