"""Lie algebras from exact structure constants.

Brackets are stored sparsely for basis pairs (i, j) with i < j only;
antisymmetry is enforced by construction. The Jacobi identity is checked at
construction time, on integers, for every basis triple that has a bracketed
pair. Central-series machinery works for an arbitrary subspace V (the
relative series C^j(V), C_j(V)); V = g gives the ordinary lower and upper
central series.

An algebra is immutable after construction, so its invariants are computed
once and cached on it: C^1(g) (`commutator_subspace`), its central series
(`lower_central_series`) and z(g) = C_1(g) (`center`, read off that series).

Spans and kernels of brackets are computed on integers: `scaled_bracket`
multiplies every structure constant by their common denominator, which
scales each bracket by the same positive number and so changes no span and
no kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .linalg import Subspace, _int_nullspace, _int_span, as_fraction_vector, reduced_kernel

BracketTable = dict[tuple[int, int], dict[int, Fraction]]


@dataclass(frozen=True)
class JacobiViolation:
    triple: tuple[int, int, int]
    coords: dict[int, Fraction]

    def __str__(self) -> str:
        i, j, k = self.triple
        terms = ", ".join(f"e{m + 1}: {c}" for m, c in sorted(self.coords.items()))
        return f"Jacobi fails at basis triple ({i + 1},{j + 1},{k + 1}); jacobiator {terms}"


class JacobiError(ValueError):
    def __init__(self, violation: JacobiViolation):
        super().__init__(str(violation))
        self.violation = violation


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q given by structure constants.

    Nothing changes an algebra after __init__, so its cached properties
    never go stale.
    """

    def __init__(self, dim: int, brackets=None, labels=None, check: bool = True):
        if dim < 0:
            raise ValueError("negative dimension")
        self.dim = dim
        if labels is None:
            labels = [f"e{i + 1}" for i in range(dim)]
        labels = [str(x) for x in labels]
        if len(labels) != dim:
            raise ValueError(f"expected {dim} labels, got {len(labels)}")
        self.labels = tuple(labels)
        table: BracketTable = {}
        for (i, j), terms in (brackets or {}).items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket index pair ({i},{j}) out of range (need 0 <= i < j < {dim})")
            entry = {}
            for k, c in dict(terms).items():
                if not 0 <= k < dim:
                    raise ValueError(f"bracket target index {k} out of range")
                c = Fraction(c)
                if c:
                    entry[k] = c
            if entry:
                table[(i, j)] = entry
        self.brackets = table
        if check:
            bad = validate(self)
            if bad is not None:
                raise JacobiError(bad)

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as a sparse coordinate map (any i, j)."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    @cached_property
    def _den(self) -> int:
        """D, the common denominator of the structure constants."""
        return lcm(1, *(c.denominator for t in self.brackets.values() for c in t.values()))

    @cached_property
    def _int_ad(self) -> list[list[tuple[int, int, int]]]:
        """Entry i lists (j, k, c): D [e_i, e_j] has coordinate c at e_k."""
        den = self._den
        ad: list[list[tuple[int, int, int]]] = [[] for _ in range(self.dim)]
        for (i, j), terms in self.brackets.items():
            for k, c in terms.items():
                v = int(c * den)
                ad[i].append((j, k, v))
                ad[j].append((i, k, -v))
        return ad

    def bracket(self, x, y) -> tuple[Fraction, ...]:
        """Bilinear, antisymmetric extension of the structure constants."""
        xv = as_fraction_vector(x, self.dim)
        yv = as_fraction_vector(y, self.dim)
        out = [Fraction(0)] * self.dim
        for (i, j), terms in self.brackets.items():
            c = xv[i] * yv[j] - xv[j] * yv[i]
            if c:
                for k, s in terms.items():
                    out[k] += c * s
        return tuple(out)

    def basis_vector(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(1 if j == i else 0) for j in range(self.dim))

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    @cached_property
    def _commutator(self) -> Subspace:
        rows = []
        for terms in self.brackets.values():
            den = lcm(*(c.denominator for c in terms.values()))
            row = [0] * self.dim
            for k, c in terms.items():
                row[k] = int(c * den)
            rows.append(row)
        return _int_span(self.dim, rows)

    @cached_property
    def _series(self) -> SeriesReport:
        return relative_series(self, self.full_space())

    def commutator_subspace(self) -> Subspace:
        """C^1(g) = [g, g], the span of the structure-constant rows."""
        return self._commutator

    def center(self) -> Subspace:
        """z(g) = C_1(g), the first ascending term of the central series."""
        return self._series.ascending_term(1)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, brackets={len(self.brackets)} pairs)"


def validate(g: LieAlgebra) -> JacobiViolation | None:
    """Check Jacobi on every basis triple; None when the table is consistent.

    Works on D times the structure constants (`_int_ad`), so a jacobiator
    coordinate v stands for v / D^2. Only triples with a bracketed pair are
    visited, in lexicographic order: every other jacobiator is zero.
    """
    table: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for m, entries in enumerate(g._int_ad):
        for j, k, c in entries:
            table.setdefault((m, j), []).append((k, c))
    triples = {tuple(sorted((i, j, k))) for i, j in g.brackets for k in range(g.dim)}
    for i, j, k in sorted(t for t in triples if t[0] < t[1] < t[2]):
        acc: dict[int, int] = {}
        for a, b, other in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in table.get((a, b), ()):
                for t, s in table.get((m, other), ()):
                    acc[t] = acc.get(t, 0) + c * s
        nonzero = {t: Fraction(v, g._den**2) for t, v in acc.items() if v}
        if nonzero:
            return JacobiViolation((i, j, k), nonzero)
    return None


def scaled_bracket(g: LieAlgebra, x, y) -> list[int]:
    """D [x, y] for integer vectors x, y; D > 0 is the common denominator of
    the structure constants, so spans of these vectors are spans of brackets."""
    out = [0] * g.dim
    for i, a in enumerate(x):
        if a:
            for j, k, c in g._int_ad[i]:
                b = y[j]
                if b:
                    out[k] += a * b * c
    return out


def bracket_space(g: LieAlgebra, v: Subspace) -> Subspace:
    """[g, V]: span of brackets of basis elements with a basis of V."""
    rows = []
    for w in v.ints:
        for entries in g._int_ad:
            row = [0] * g.dim
            for j, k, c in entries:
                b = w[j]
                if b:
                    row[k] += b * c
            if any(row):
                rows.append(row)
    return _int_span(g.dim, rows)


def centralizer(g: LieAlgebra, v: Subspace) -> Subspace:
    """z(V) = {X : [X, V] = 0}."""
    if v.ambient != g.dim:
        raise ValueError("subspace ambient dimension does not match the algebra")
    if v.is_zero() or g.dim == 0:
        return g.full_space()
    rows = []
    for w in v.ints:
        # condition [X, w] = 0: row r sends X to coordinate r of D [X, w]
        block: list[dict[int, int]] = [{} for _ in range(g.dim)]
        for i, entries in enumerate(g._int_ad):
            for j, k, c in entries:
                b = w[j]
                if b:
                    block[k][i] = block[k].get(i, 0) + b * c
        rows.extend(row for row in block if row)
    return _int_nullspace(rows, g.dim)


def _ascending_step(g: LieAlgebra, prev: Subspace) -> Subspace:
    """{X : [X, g] contained in prev}.

    prev is the common kernel of its annihilator, the rows y with y . v = 0
    for every v in prev; these are the kernel vectors of prev's own rows,
    which are already reduced.
    """
    if prev.dim == g.dim:
        return g.full_space()
    pivot_rows = {p: {c: v for c, v in enumerate(r) if v} for p, r in zip(prev.pivots, prev.ints)}
    annihilator = reduced_kernel(pivot_rows, g.dim)[0]
    rows = []
    for entries in g._int_ad:
        # one row per e_i and annihilator row: up to sign, coordinate k of
        # D [X, e_i] is the sum of c x_m over the entries (m, k, c) of e_i
        for rrow in annihilator:
            row: dict[int, int] = {}
            for m, k, c in entries:
                r = rrow[k]
                if r:
                    row[m] = row.get(m, 0) + r * c
            if row:
                rows.append(row)
    return _int_nullspace(rows, g.dim)


@dataclass(frozen=True)
class SeriesReport:
    """Relative series of a subspace V: C^j(V) descending, C_j(V) ascending."""

    descending: tuple[Subspace, ...]
    ascending: tuple[Subspace, ...]
    descending_stable: bool
    ascending_stable: bool

    @property
    def descending_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.descending)

    @property
    def ascending_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.ascending)

    @property
    def descending_stabilized_at(self) -> int:
        """Smallest j with C^j = C^(j+1) (last stored index when stable)."""
        return len(self.descending) - 1

    @property
    def ascending_stabilized_at(self) -> int:
        return len(self.ascending) - 1

    def descending_term(self, j: int) -> Subspace:
        """C^j(V), extending by the stable tail."""
        return self.descending[min(j, len(self.descending) - 1)]

    def ascending_term(self, j: int) -> Subspace:
        return self.ascending[min(j, len(self.ascending) - 1)]

    def nilpotency_class(self) -> int | None:
        """k with C^k(g) = 0, C^(k-1)(g) != 0 (None when not nilpotent)."""
        if not self.descending[-1].is_zero():
            return None
        k = len(self.descending) - 1
        while k > 0 and self.descending[k - 1].is_zero():
            k -= 1
        return k


def relative_series(g: LieAlgebra, v: Subspace, max_steps: int | None = None) -> SeriesReport:
    """Compute both series of V until stabilization.

    The descending series is C^0 = V, C^j = [g, C^(j-1)]; the ascending one is
    C_0 = 0, C_1 = z(V), C_j = {X : [X,g] in C_(j-1)}. Both are iterated until
    two consecutive terms agree (a deterministic fixed point); a safety bound
    of dim+2 steps guards non-nilpotent inputs.
    """
    if v.ambient != g.dim:
        raise ValueError("subspace ambient dimension does not match the algebra")
    bound = max_steps if max_steps is not None else g.dim + 2

    desc = [v]
    desc_stable = False
    for _ in range(bound):
        nxt = bracket_space(g, desc[-1])
        if nxt == desc[-1]:
            desc_stable = True
            break
        desc.append(nxt)

    asc = [Subspace.zero(g.dim), centralizer(g, v)]
    if asc[1] == asc[0]:
        asc = asc[:1]
        asc_stable = True
    else:
        asc_stable = False
        for _ in range(bound):
            nxt = _ascending_step(g, asc[-1])
            if nxt == asc[-1]:
                asc_stable = True
                break
            asc.append(nxt)

    return SeriesReport(tuple(desc), tuple(asc), desc_stable, asc_stable)


def lower_central_series(g: LieAlgebra) -> SeriesReport:
    """Both central series of g, computed once per algebra."""
    return g._series


def nilpotency_class(g: LieAlgebra) -> int | None:
    return lower_central_series(g).nilpotency_class()


def direct_sum(algebras: list[LieAlgebra]) -> LieAlgebra:
    """Block-diagonal direct sum; labels are prefixed only on collision."""
    dim = sum(g.dim for g in algebras)
    labels: list[str] = []
    flat = [lbl for g in algebras for lbl in g.labels]
    collide = len(set(flat)) != len(flat)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    offset = 0
    for bi, g in enumerate(algebras):
        for lbl in g.labels:
            labels.append(f"b{bi + 1}.{lbl}" if collide else lbl)
        for (i, j), terms in g.brackets.items():
            brackets[(i + offset, j + offset)] = {
                k + offset: c for k, c in terms.items()
            }
        offset += g.dim
    return LieAlgebra(dim, brackets, labels, check=False)


def permute_basis(g: LieAlgebra, order: list[int]) -> LieAlgebra:
    """Reindex the basis; order[i] is the old index of new basis element i."""
    if sorted(order) != list(range(g.dim)):
        raise ValueError("order must be a permutation of the basis indices")
    pos = {old: new for new, old in enumerate(order)}
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), terms in g.brackets.items():
        a, b = pos[i], pos[j]
        sign = 1
        if a > b:
            a, b = b, a
            sign = -1
        brackets[(a, b)] = {pos[k]: sign * c for k, c in terms.items()}
    labels = [g.labels[old] for old in order]
    return LieAlgebra(g.dim, brackets, labels, check=False)


def heisenberg() -> LieAlgebra:
    """h3: [e1, e2] = e3."""
    return LieAlgebra(3, {(0, 1): {2: 1}})


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {})
