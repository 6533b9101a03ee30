"""Invariant symmetric bilinear forms: solver, nondegeneracy decisions, checks.

The invariance condition <[X,Y],Z> + <Y,[X,Z]> = 0 is linear in the form, so
the space of invariant symmetric forms is the kernel of a sparse system over
the n(n+1)/2 upper-triangle unknowns. Nondegeneracy of the pencil is decided
by exact determinant evaluation at deterministic pseudo-random points, with a
symbolic determinant expansion as the certified refutation path at small size
and a Schwartz-Zippel bound reported otherwise.

The trials run on integers: `FormSpace.singular_at` keeps the pencil as
sparse integer entries (every basis form times one common denominator L) and
hands each member straight to the Bareiss kernel. Since det(L F) = L^n det F,
the zero test is exact. Only the accepted witness is built as a Fraction
matrix, by `combine`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import kernels
from .config import RunConfig
from .liealg import LieAlgebra, bracket_space, relative_series
from .linalg import (
    Matrix,
    Subspace,
    contains,
    det,
    nullspace,
    sparse_nullspace,
)

Poly = dict[tuple[int, ...], Fraction]


def sym_pairs(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(a, n)]


@dataclass(frozen=True)
class SymForm:
    """Symmetric bilinear form given by its exact Gram matrix."""

    matrix: Matrix

    def __post_init__(self):
        if not self.matrix.is_symmetric():
            raise ValueError("form matrix must be square and symmetric")

    @property
    def dim(self) -> int:
        return self.matrix.nrows

    @classmethod
    def from_upper_vector(cls, n: int, vec) -> "SymForm":
        zero = Fraction(0)
        entries = [[zero] * n for _ in range(n)]
        for (a, b), val in zip(sym_pairs(n), vec):
            if val:
                entries[a][b] = entries[b][a] = Fraction(val)
        return cls(Matrix(tuple(map(tuple, entries)), n))

    @classmethod
    def identity(cls, n: int) -> "SymForm":
        return cls(Matrix.identity(n))

    def value(self, x, y) -> Fraction:
        return sum(a * b for a, b in zip(self.matrix.mul_vec(x), y))

    def scaled(self, q) -> "SymForm":
        q = Fraction(q)
        rows = tuple(tuple(q * x for x in row) for row in self.matrix.rows)
        return SymForm(Matrix(rows, self.matrix.ncols))


@dataclass(frozen=True)
class FormSpace:
    """Basis of the space of invariant symmetric bilinear forms of an algebra."""

    algebra_dim: int
    basis: tuple[SymForm, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def combine(self, coeffs) -> SymForm:
        n = self.algebra_dim
        rows = [[Fraction(0)] * n for _ in range(n)]
        for c, form in zip(coeffs, self.basis):
            c = Fraction(c)
            if not c:
                continue
            for i in range(n):
                frow = form.matrix.rows[i]
                row = rows[i]
                for j in range(n):
                    if frow[j]:
                        row[j] += c * frow[j]
        return SymForm(Matrix.from_rows(rows, n))

    @cached_property
    def _pencil(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Each basis form's upper triangle times the common denominator L,
        as sparse (i, j, v) entries with i <= j."""
        forms = [
            [
                (i, j, row[j])
                for i, row in enumerate(f.matrix.rows)
                for j in range(i, len(row))
                if row[j]
            ]
            for f in self.basis
        ]
        den = lcm(1, *(x.denominator for entries in forms for _, _, x in entries))
        return tuple(
            tuple((i, j, x.numerator * (den // x.denominator)) for i, j, x in entries)
            for entries in forms
        )

    def singular_at(self, point) -> bool:
        """det(self.combine(point).matrix) == 0 for an integer point, on integers."""
        n = self.algebra_dim
        m = [[0] * n for _ in range(n)]
        for c, entries in zip(point, self._pencil):
            if c:
                for i, j, v in entries:
                    m[i][j] += c * v
        for i in range(1, n):
            for j in range(i):
                m[i][j] = m[j][i]
        return kernels.det_int(m) == 0


def invariant_form_space(g: LieAlgebra) -> FormSpace:
    """Solve <[ei,ej],el> + <ej,[ei,el]> = 0 for all i<j and all l, exactly."""
    n = g.dim
    pairs = sym_pairs(n)
    index = {p: i for i, p in enumerate(pairs)}

    def sym(a: int, b: int) -> int:
        return index[(a, b) if a <= b else (b, a)]

    partners = [set() for _ in range(n)]
    for (i, j) in g.brackets:
        partners[i].add(j)
        partners[j].add(i)

    rows: list[dict[int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            cij = g.bracket_basis(i, j)
            targets = range(n) if cij else sorted(partners[i])
            for l in targets:
                acc: dict[int, Fraction] = {}
                for k, c in cij.items():
                    col = sym(k, l)
                    acc[col] = acc.get(col, Fraction(0)) + c
                for k, c in g.bracket_basis(i, l).items():
                    col = sym(j, k)
                    acc[col] = acc.get(col, Fraction(0)) + c
                acc = {col: v for col, v in acc.items() if v}
                if acc:
                    mult = lcm(*(v.denominator for v in acc.values()))
                    rows.append({col: int(v * mult) for col, v in acc.items()})
    basis_vecs = sparse_nullspace(rows, len(pairs))
    basis = tuple(SymForm.from_upper_vector(n, vec) for vec in basis_vecs)
    return FormSpace(n, basis)


def _invariance_violation(g: LieAlgebra, f: SymForm):
    """First basis triple (i, j, l), i < j, violating invariance, with its value."""
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            cij = g.bracket_basis(i, j)
            for l in range(g.dim):
                val = Fraction(0)
                for k, c in cij.items():
                    val += c * f.matrix.rows[k][l]
                for k, c in g.bracket_basis(i, l).items():
                    val += c * f.matrix.rows[j][k]
                if val:
                    return (i, j, l), val
    return None


def radical(g: LieAlgebra, f: SymForm) -> Subspace:
    """rad = {Y : <X, Y> = 0 for all X}; an ideal whenever f is invariant."""
    if f.dim != g.dim:
        raise ValueError("form size does not match the algebra")
    rad = nullspace(f.matrix)
    if _invariance_violation(g, f) is None:
        assert contains(rad, bracket_space(g, rad)), "radical of invariant form must be an ideal"
    return rad


@dataclass(frozen=True)
class FormCheck:
    ok: bool
    reason: str = ""
    triple: tuple[int, int, int] | None = None
    value: Fraction | None = None
    radical_vector: tuple[Fraction, ...] | None = None


def verify_form(g: LieAlgebra, f: SymForm) -> FormCheck:
    """Exact check: invariance on every basis triple and det != 0."""
    if f.dim != g.dim:
        raise ValueError("form size does not match the algebra")
    bad = _invariance_violation(g, f)
    if bad is not None:
        (i, j, l), val = bad
        return FormCheck(False, "invariance", (i, j, l), val)
    if g.dim and det(f.matrix) == 0:
        rad = nullspace(f.matrix)
        return FormCheck(False, "degenerate", radical_vector=rad.rows[0])
    return FormCheck(True)


@dataclass(frozen=True)
class NondegeneracyVerdict:
    """admits | refuted_symbolic | refuted_monte_carlo | undecided, with certificate data."""

    kind: str
    witness: SymForm | None = None
    trials: int | None = None
    mc_range: int | None = None
    seed: int | None = None
    bound: Fraction | None = None
    notes: str = ""

    @property
    def admits(self) -> bool:
        return self.kind == "admits"


def trial_point(seed: int, trial: int, nvars: int, mc_range: int) -> tuple[int, ...]:
    """Per-trial seed split keeps trials independent and replayable."""
    rng = random.Random(f"{seed}:{trial}")
    return tuple(rng.randint(1, mc_range) for _ in range(nvars))


def normalize_witness(f: SymForm) -> SymForm:
    for row in f.matrix.rows:
        for x in row:
            if x:
                return f.scaled(Fraction(1) / x)
    return f


def _det_polynomial(space: FormSpace) -> Poly:
    """det of the form pencil as a polynomial in the basis coefficients.

    Laplace expansion with memoization on column subsets: O(n * 2^n) poly ops,
    used only inside the configured symbolic limits.
    """
    n = space.algebra_dim
    d = space.dim
    zero_exp = (0,) * d

    def unit_exp(b: int) -> tuple[int, ...]:
        return tuple(1 if i == b else 0 for i in range(d))

    entry: list[list[Poly]] = [[{} for _ in range(n)] for _ in range(n)]
    for b, form in enumerate(space.basis):
        e = unit_exp(b)
        for i in range(n):
            for j in range(n):
                v = form.matrix.rows[i][j]
                if v:
                    entry[i][j].setdefault(e, Fraction(0))
                    entry[i][j][e] += v
    for i in range(n):
        for j in range(n):
            entry[i][j] = {e: c for e, c in entry[i][j].items() if c}

    dp: dict[int, Poly] = {0: {zero_exp: Fraction(1)}}
    for mask in range(1, 1 << n):
        k = bin(mask).count("1")  # expanding along row k-1
        acc: Poly = {}
        pos = 0
        for j in range(n):
            if not mask & (1 << j):
                continue
            sub = dp.get(mask ^ (1 << j))
            ent = entry[k - 1][j]
            if sub and ent:
                sign = 1 if (k - 1 + pos) % 2 == 0 else -1
                for e1, c1 in ent.items():
                    for e2, c2 in sub.items():
                        e = tuple(a + b for a, b in zip(e1, e2))
                        acc[e] = acc.get(e, Fraction(0)) + sign * c1 * c2
            pos += 1
        dp[mask] = {e: c for e, c in acc.items() if c}
    return dp[(1 << n) - 1]


def _poly_eval(poly: Poly, point) -> Fraction:
    total = Fraction(0)
    for exps, c in poly.items():
        term = c
        for e, x in zip(exps, point):
            if e:
                term *= Fraction(x) ** e
        total += term
    return total


def decide_nondegenerate(
    space: FormSpace, config: RunConfig | None = None
) -> NondegeneracyVerdict:
    """Decide whether the pencil of invariant forms has a nondegenerate member.

    Ladder: deterministic random witness search (each hit is verified exactly),
    then symbolic determinant expansion when within the configured limits (zero
    polynomial is a certified refutation), otherwise a Monte Carlo refutation
    with the Schwartz-Zippel failure bound (n / range)^trials; undecided when
    n >= range, where that bound is not below 1.
    """
    config = config or RunConfig()
    n = space.algebra_dim
    d = space.dim
    if n == 0:
        return NondegeneracyVerdict("admits", SymForm(Matrix.from_rows([], 0)), notes="zero-dimensional algebra")
    if d == 0:
        return NondegeneracyVerdict(
            "refuted_symbolic", notes="no nonzero invariant symmetric form exists"
        )

    for t in range(config.mc_trials):
        pt = trial_point(config.seed, t, d, config.mc_range)
        if not space.singular_at(pt):
            return NondegeneracyVerdict(
                "admits",
                normalize_witness(space.combine(pt)),
                trials=t + 1,
                mc_range=config.mc_range,
                seed=config.seed,
            )

    if n <= config.symbolic_max_dim and d <= config.symbolic_max_formspace_dim:
        poly = _det_polynomial(space)
        if not poly:
            return NondegeneracyVerdict(
                "refuted_symbolic",
                notes=f"det of the {d}-parameter pencil expands to the zero polynomial",
            )
        # nonzero polynomial: hunt a nonvanishing point on a growing grid
        span = max(config.mc_range, n + 1)
        t = config.mc_trials
        while True:
            pt = trial_point(config.seed, t, d, span)
            if _poly_eval(poly, pt):
                candidate = space.combine(pt)
                assert det(candidate.matrix) != 0
                return NondegeneracyVerdict(
                    "admits",
                    normalize_witness(candidate),
                    trials=t + 1,
                    mc_range=span,
                    seed=config.seed,
                    notes="witness located via symbolic determinant",
                )
            t += 1
            if t % 64 == 0:
                span *= 2

    if n >= config.mc_range:
        return NondegeneracyVerdict(
            "undecided",
            notes=(
                f"no witness in {config.mc_trials} trials, but with dim {n} >= "
                f"mc_range {config.mc_range} the failure bound (dim/range)^trials "
                "is not below 1, so the trials refute nothing"
            ),
        )
    bound = Fraction(n, config.mc_range) ** config.mc_trials
    return NondegeneracyVerdict(
        "refuted_monte_carlo",
        trials=config.mc_trials,
        mc_range=config.mc_range,
        seed=config.seed,
        bound=bound,
    )


def orthogonal_complement(f: SymForm, w: Subspace) -> Subspace:
    """{Y : f(X, Y) = 0 for all X in W} (f symmetric)."""
    if not w.rows:
        return Subspace.full(w.ambient)
    rows = [f.matrix.mul_vec(b) for b in w.rows]
    return nullspace(Matrix.from_rows(rows, w.ambient))


@dataclass(frozen=True)
class OrthogonalityReport:
    ok: bool
    checked: tuple[dict, ...] = field(default_factory=tuple)


def check_orthogonality_relations(
    g: LieAlgebra, f: SymForm, v: Subspace
) -> OrthogonalityReport:
    """Assert C^j(V)-perp = C_j(V) and the dimension identity for all j >= 1."""
    check = verify_form(g, f)
    if not check.ok:
        raise ValueError(f"form is not an ad-invariant metric: {check.reason}")
    rep = relative_series(g, v)
    records = []
    ok = True
    jmax = max(len(rep.descending), len(rep.ascending))
    for j in range(1, jmax + 1):
        desc = rep.descending_term(j)
        asc = rep.ascending_term(j)
        orth = orthogonal_complement(f, desc)
        good = orth == asc and desc.dim + asc.dim == g.dim
        ok = ok and good
        records.append(
            {
                "j": j,
                "dim_descending": desc.dim,
                "dim_ascending": asc.dim,
                "orthogonal_matches": orth == asc,
                "dims_sum_to_dim": desc.dim + asc.dim == g.dim,
            }
        )
    return OrthogonalityReport(ok, tuple(records))


def signature(f: SymForm) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of an exact symmetric matrix."""
    n = f.dim
    a = [[Fraction(x) for x in row] for row in f.matrix.rows]
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                pair = next(
                    (
                        (i, j)
                        for i in range(k, n)
                        for j in range(i + 1, n)
                        if a[i][j] != 0
                    ),
                    None,
                )
                if pair is None:
                    zero += n - k
                    break
                i, j = pair
                for col in range(n):
                    a[i][col] += a[j][col]
                for row in a:
                    row[i] += row[j]
                if i != k:
                    a[k], a[i] = a[i], a[k]
                    for row in a:
                        row[k], row[i] = row[i], row[k]
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k]:
                fac = a[i][k] / p
                for col in range(n):
                    a[i][col] -= fac * a[k][col]
                for row in a:
                    row[i] -= fac * row[k]
    return pos, neg, zero
