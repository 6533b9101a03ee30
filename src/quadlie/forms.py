"""Invariant symmetric bilinear forms: solver, nondegeneracy decisions, checks.

The invariance condition <[X,Y],Z> + <Y,[X,Z]> = 0 is linear in the form, so
the space of invariant symmetric forms is the kernel of a sparse system over
the n(n+1)/2 upper-triangle unknowns. Nondegeneracy of the pencil is decided
by exact determinant evaluation at deterministic pseudo-random points, with a
symbolic determinant expansion as the certified refutation path at small size
and a Schwartz-Zippel bound reported otherwise.

The solver runs on integers: the system is built from the integer structure
constants, and `FormSpace` keeps its basis as a sparse integer pencil (every
basis form times one common positive integer L). Each trial member goes
straight to the Bareiss kernel; since det(L F) = L^n det F, the zero test is
exact. Fractions are made only at the boundary: the accepted witness, built
by `combine`, and the `basis` accessor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import kernels
from .config import RunConfig
from .liealg import LieAlgebra, bracket_space, relative_series
from .linalg import (
    Matrix,
    Subspace,
    _scaled,
    contains,
    det,
    nullspace,
    sparse_nullspace,
)

Poly = dict[tuple[int, ...], int]


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
    def identity(cls, n: int) -> "SymForm":
        return cls(Matrix.identity(n))

    def scaled(self, q) -> "SymForm":
        q = Fraction(q)
        rows = tuple(tuple(q * x for x in row) for row in self.matrix.rows)
        return SymForm(Matrix(rows, self.matrix.ncols))


@dataclass(frozen=True)
class FormSpace:
    """Basis of the space of invariant symmetric bilinear forms of an algebra.

    `pencil[b]` is basis form b times the common positive integer `scale`,
    as sparse upper-triangle entries (i, j, v) with i <= j. One scale for
    every form scales every member of the pencil by the same positive
    number, so zero tests read the integers directly.
    """

    algebra_dim: int
    pencil: tuple[tuple[tuple[int, int, int], ...], ...]
    scale: int = 1

    @property
    def dim(self) -> int:
        return len(self.pencil)

    @property
    def basis(self) -> tuple[SymForm, ...]:
        """The basis forms in Fractions, built on each access."""
        d = self.dim
        return tuple(self.combine([int(b == c) for c in range(d)]) for b in range(d))

    def _member(self, coeffs) -> list[list[int]]:
        """scale times the member sum_b coeffs[b] basis[b], as a full matrix."""
        n = self.algebra_dim
        m = [[0] * n for _ in range(n)]
        for c, entries in zip(coeffs, self.pencil):
            if c:
                for i, j, v in entries:
                    m[i][j] += c * v
        for i in range(1, n):
            for j in range(i):
                m[i][j] = m[j][i]
        return m

    def combine(self, coeffs) -> SymForm:
        s = self.scale
        rows = tuple(tuple(Fraction(x, s) for x in row) for row in self._member(coeffs))
        return SymForm(Matrix(rows, self.algebra_dim))

    def singular_at(self, point) -> bool:
        """det(self.combine(point).matrix) == 0 for an integer point, on integers."""
        return kernels.det_int(self._member(point)) == 0


def invariant_form_space(g: LieAlgebra) -> FormSpace:
    """Solve <[ei,ej],el> + <ej,[ei,el]> = 0 for all i<j and all l, exactly,
    on the structure constants times D (`g._int_ad`): each row times D."""
    n = g.dim
    pairs = sym_pairs(n)
    index = {p: i for i, p in enumerate(pairs)}

    def sym(a: int, b: int) -> int:
        return index[(a, b) if a <= b else (b, a)]

    rows: list[dict[int, int]] = []
    for i in range(n):
        ad_i = [[] for _ in range(n)]
        for j, k, c in g._int_ad[i]:
            ad_i[j].append((k, c))
        partners = [l for l in range(n) if ad_i[l]]
        for j in range(i + 1, n):
            cij = ad_i[j]
            for l in range(n) if cij else partners:
                acc: dict[int, int] = {}
                for k, c in cij:
                    col = sym(k, l)
                    acc[col] = acc.get(col, 0) + c
                for k, c in ad_i[l]:
                    col = sym(j, k)
                    acc[col] = acc.get(col, 0) + c
                rows.append(acc)
    vecs, scale = sparse_nullspace(rows, len(pairs))
    pencil = tuple(tuple((a, b, v) for (a, b), v in zip(pairs, vec) if v) for vec in vecs)
    return FormSpace(n, pencil, scale)


def _invariance_violation(g: LieAlgebra, f: SymForm):
    """First basis triple (i, j, l), i < j, violating invariance, with its value.

    Runs on integers: the form times the common denominator L of its entries,
    and the structure constants times theirs, D (`g._int_ad`), so each sum
    is D L times <[e_i, e_j], e_l> + <e_j, [e_i, e_l]>.
    """
    scale, rows = _scaled(f.matrix.rows)
    for i in range(g.dim):
        ad_i = [[] for _ in range(g.dim)]
        for j, k, c in g._int_ad[i]:
            ad_i[j].append((k, c))
        for j in range(i + 1, g.dim):
            cij, row_j = ad_i[j], rows[j]
            for l in range(g.dim):
                val = sum(c * rows[k][l] for k, c in cij) + sum(c * row_j[k] for k, c in ad_i[l])
                if val:
                    return (i, j, l), Fraction(val, scale * g._den)
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
    """det of the integer pencil (the forms' pencil times scale^n) as a
    polynomial with integer coefficients in the basis coefficients.

    Laplace expansion with memoization on column subsets: O(n * 2^n) poly ops,
    used only inside the configured symbolic limits.
    """
    n = space.algebra_dim
    d = space.dim
    zero_exp = (0,) * d

    def unit_exp(b: int) -> tuple[int, ...]:
        return tuple(1 if i == b else 0 for i in range(d))

    entry: list[list[Poly]] = [[{} for _ in range(n)] for _ in range(n)]
    for b, entries in enumerate(space.pencil):
        e = unit_exp(b)
        for i, j, v in entries:
            entry[i][j][e] = entry[j][i][e] = v

    dp: dict[int, Poly] = {0: {zero_exp: 1}}
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
                        acc[e] = acc.get(e, 0) + sign * c1 * c2
            pos += 1
        dp[mask] = {e: c for e, c in acc.items() if c}
    return dp[(1 << n) - 1]


def _poly_eval(poly: Poly, point) -> int:
    total = 0
    for exps, c in poly.items():
        term = c
        for e, x in zip(exps, point):
            if e:
                term *= x ** e
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
    if w.is_zero():
        return Subspace.full(w.ambient)
    rows = [f.matrix.mul_vec(b) for b in w.ints]
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
    """(positive, negative, zero) inertia of an exact symmetric matrix.

    Symmetric elimination on integers (the matrix times the common
    denominator of its entries): step k brings a nonzero pivot to (k, k) by a
    congruence, then updates the block below and right of it fraction-free
    (Bareiss), which leaves that block equal to its Schur complement times
    the k-th leading minor of the transformed matrix. That minor is the last
    pivot, so the sign of the true pivot is the sign of the pivot times the
    sign of the one before it. Only the remaining block is read afterwards,
    so only that block is updated.
    """
    n = f.dim
    _, a = _scaled(f.matrix.rows)
    pos = neg = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a[k:]:
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
                    return pos, neg, n - k
                i, j = pair
                for col in range(k, n):
                    a[i][col] += a[j][col]
                for row in a[k:]:
                    row[i] += row[j]
                if i != k:
                    a[k], a[i] = a[i], a[k]
                    for row in a[k:]:
                        row[k], row[i] = row[i], row[k]
        p = a[k][k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        top = a[k]
        for row in a[k + 1:]:
            rk = row[k]
            for col in range(k + 1, n):
                row[col] = (p * row[col] - rk * top[col]) // prev
        prev = p
    return pos, neg, 0
