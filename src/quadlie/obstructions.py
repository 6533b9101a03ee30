"""Structural obstructions to ad-invariant metrics, with re-verifiable certificates.

Three certified refutation mechanisms: the dimension identity of the central
series pair, a nonzero Theta ideal for some decomposition g = V1 + ... + Vs +
C^1(g), and the two-isotropic-parts (Heisenberg-Reiter) configuration. The
Theta search tries registered decompositions first, then the coordinate
lines of the basis-aligned complement of C^1(g). Every certificate
re-verifies from its own payload, independent of the search path that
produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .liealg import (
    LieAlgebra,
    bracket_space,
    centralizer,
    lower_central_series,
    nilpotency_class,
    scaled_bracket,
)
from .linalg import Subspace, _int_span, span_intersect, span_sum


@dataclass(frozen=True)
class Decomposition:
    """Vector space splitting g = V1 + ... + Vs + C^1(g) (direct)."""

    parts: tuple[Subspace, ...]
    description: str = ""


def validate_decomposition(g: LieAlgebra, d: Decomposition) -> None:
    if not d.parts:
        raise ValueError("decomposition needs at least one part")
    if any(p.is_zero() for p in d.parts):
        raise ValueError("decomposition parts must be nonzero")
    total = g.commutator_subspace()
    dims = total.dim
    for p in d.parts:
        total = span_sum(total, p)
        dims += p.dim
    if dims != g.dim or total.dim != g.dim:
        raise ValueError("parts and commutator do not decompose g directly")


def subspace_bracket(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    rows = [scaled_bracket(g, u, w) for u in a.ints for w in b.ints]
    return _int_span(g.dim, rows)


@dataclass(frozen=True)
class DimSeriesCertificate:
    """Smallest j with dim C_j(g) + dim C^j(g) != dim g."""

    j: int
    dim_descending: int
    dim_ascending: int
    dim: int

    kind = "dim_series"

    def verify(self, g: LieAlgebra) -> bool:
        rep = lower_central_series(g)
        desc = rep.descending_term(self.j)
        asc = rep.ascending_term(self.j)
        return (
            g.dim == self.dim
            and desc.dim == self.dim_descending
            and asc.dim == self.dim_ascending
            and desc.dim + asc.dim != g.dim
        )


@dataclass(frozen=True)
class ThetaCertificate:
    """Nonzero Theta = z cap (cap_i [z(Vi), g]) for a stored decomposition."""

    decomposition: Decomposition
    theta: Subspace
    witness: tuple[Fraction, ...]

    kind = "theta"

    def verify(self, g: LieAlgebra) -> bool:
        theta = theta_ideal(g, self.decomposition)
        return (
            theta == self.theta
            and not theta.is_zero()
            and theta.contains_vector(self.witness)
            and any(self.witness)
        )


@dataclass(frozen=True)
class HeisenbergReiterCertificate:
    """g = V1 + V2 + C^1(g) with [Vi,Vi] = 0 and [V1,V2] = C^1(g) != 0 (2-step)."""

    v1: Subspace
    v2: Subspace

    kind = "heisenberg_reiter"

    def verify(self, g: LieAlgebra) -> bool:
        return heisenberg_reiter_obstruction(g, self.v1, self.v2) == self


ObstructionCertificate = DimSeriesCertificate | ThetaCertificate | HeisenbergReiterCertificate


def dim_series_obstruction(g: LieAlgebra) -> DimSeriesCertificate | None:
    """Fail with the smallest j violating dim C_j + dim C^j = dim g."""
    rep = lower_central_series(g)
    for j in range(1, max(len(rep.descending), len(rep.ascending)) + 1):
        desc = rep.descending_term(j)
        asc = rep.ascending_term(j)
        if desc.dim + asc.dim != g.dim:
            return DimSeriesCertificate(j, desc.dim, asc.dim, g.dim)
    return None


def theta_ideal(g: LieAlgebra, d: Decomposition) -> Subspace:
    """Theta = z cap intersection over parts of [z(Vi), g]."""
    validate_decomposition(g, d)
    acc = g.center()
    for part in d.parts:
        if acc.is_zero():
            break
        acc = span_intersect(acc, bracket_space(g, centralizer(g, part)))
    return acc


def coordinate_complement(g: LieAlgebra) -> list[int]:
    """The coordinates spanning the basis-aligned complement of C^1(g): the
    non-pivot ones."""
    pivots = set(g.commutator_subspace().pivots)
    return [i for i in range(g.dim) if i not in pivots]


def default_decompositions(g: LieAlgebra, budget: int = 512):
    """The coordinate lines of the complement of C^1(g), when `budget` >= 1.

    The complement is the basis-aligned one of `coordinate_complement`. No
    coarser grouping of its coordinates is tried, because none can hit where
    the lines miss: a part V_A spanned by coordinates A has z(V_A) =
    cap_{c in A} z(e_c), so [z(V_A), g] lies in [z(e_c), g] for every c in
    A, and on every Lie algebra Theta of any grouping, the whole complement
    included, lies inside Theta of the lines. So only budgets 0 (nothing)
    and >= 1 (the lines) differ.
    """
    coords = coordinate_complement(g)
    if coords and budget >= 1:
        parts = tuple(Subspace.coordinate(g.dim, [c]) for c in coords)
        yield Decomposition(parts, "complement split into coordinate lines")


def theta_search(
    g: LieAlgebra,
    extra_decompositions=(),
    budget: int = 512,
) -> ThetaCertificate | None:
    """First decomposition (registered ones first) with Theta != 0, or None."""
    comm = g.commutator_subspace()
    if comm.dim == g.dim:
        raise ValueError("theta search needs C^1(g) != g")
    if span_intersect(g.center(), comm).is_zero():
        # Theta lies in z cap C^1(g) for every decomposition; still reject
        # invalid registered ones, as the search would
        for d in extra_decompositions:
            validate_decomposition(g, d)
        return None
    for d in chain(extra_decompositions, default_decompositions(g, budget)):
        theta = theta_ideal(g, d)
        if not theta.is_zero():
            return ThetaCertificate(d, theta, theta.rows[0])
    return None


@dataclass(frozen=True)
class HypothesesFail:
    reason: str


def heisenberg_reiter_obstruction(
    g: LieAlgebra, v1: Subspace, v2: Subspace
) -> HeisenbergReiterCertificate | HypothesesFail:
    """Certificate iff [Vi,Vi]=0, [V1,V2]=C^1(g) != 0 and V1+V2+C^1(g) = g."""
    if v1.ambient != g.dim or v2.ambient != g.dim:
        raise ValueError("subspace ambient dimension does not match the algebra")
    if nilpotency_class(g) != 2:
        return HypothesesFail("algebra is not 2-step nilpotent")
    comm = g.commutator_subspace()
    if comm.is_zero():
        return HypothesesFail("commutator is zero")
    for name, part in (("V1", v1), ("V2", v2)):
        if part.is_zero():
            return HypothesesFail(f"{name} is zero")
        if not subspace_bracket(g, part, part).is_zero():
            return HypothesesFail(f"[{name},{name}] != 0")
    if subspace_bracket(g, v1, v2) != comm:
        return HypothesesFail("[V1,V2] != C^1(g)")
    if v1.dim + v2.dim + comm.dim != g.dim:
        return HypothesesFail("dimensions do not add up to dim g")
    if span_sum(span_sum(v1, v2), comm).dim != g.dim:
        return HypothesesFail("V1 + V2 + C^1(g) does not span g")
    return HeisenbergReiterCertificate(v1, v2)
