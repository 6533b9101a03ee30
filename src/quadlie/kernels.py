"""Exact integer kernels: the hot loops of the whole package.

Sparse fraction-free Gauss-Jordan elimination (`rref_int`) and Bareiss
determinants (`det_int`) over Python's arbitrary-precision integers.
`rref_int` is the one elimination: `quadlie.linalg` clears denominators
and builds every span, intersection and kernel from its canonical rows.
"""

from __future__ import annotations

from math import gcd

# There is one implementation. The constant stays because the benchmark
# harness records `kernels.BACKEND` with every result, and its tracer wraps
# `quadlie.kernels.det_int` and `rref_int` by module and name.
BACKEND = "pure"


def _divide_content(row: dict[int, int]) -> None:
    """Divide a sparse row by the gcd of its entries, in place."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def rref_int(rows: list[dict[int, int]], ncols: int) -> dict[int, dict[int, int]]:
    """Canonical reduced row echelon form of sparse integer rows.

    Rows are {column: coefficient} maps over columns 0..ncols-1; zero rows,
    zero coefficients and repeated rows are allowed, and the input is not
    modified. Returns {pivot: row}: each row is the primitive integer
    representative of an RREF row, with a positive entry at its pivot (its
    first column) and no entry at any other pivot. Those rows are unique
    for the row space; dividing a row by its pivot entry gives the rational
    RREF row. Read them in pivot order with `sorted`.

    Sparse fraction-free Gauss-Jordan: each new row is reduced against the
    pivot rows so far, then cleared from them. The largest systems, the
    invariance equations, are mostly one- and two-term rows.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    seen = set()
    for raw in rows:
        if len(pivot_rows) == ncols:
            break  # full rank: every later row reduces to zero
        row = {c: v for c, v in raw.items() if v}
        if not row:
            continue
        _divide_content(row)
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
            _divide_content(row)
        if not row:
            continue
        piv = min(row)
        for orow in pivot_rows.values():
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
                _divide_content(orow)
        pivot_rows[piv] = row
    for p, row in pivot_rows.items():
        if row[p] < 0:
            for c in row:
                row[c] = -row[c]
    return pivot_rows


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
