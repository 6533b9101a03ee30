"""Structural obstructions to ad-invariant metrics, with re-verifiable certificates.

Four certified refutation mechanisms: the dimension identity of the central
series pair, a nonzero Theta ideal for some decomposition g = V1 + ... + Vs +
C^1(g), the two-isotropic-parts (Heisenberg-Reiter) configuration, and - as
heuristic evidence only, never a certificate - the nonsingularity probe for
2-step algebras. Every certificate re-verifies from its own payload,
independent of the search path that produced it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .liealg import (
    LieAlgebra,
    SeriesReport,
    bracket_space,
    centralizer,
    nilpotency_class,
    relative_series,
    scaled_bracket,
)
from .linalg import Subspace, _int_span, rref, span_intersect, span_sum


@dataclass(frozen=True)
class Decomposition:
    """Vector space splitting g = V1 + ... + Vs + C^1(g) (direct)."""

    parts: tuple[Subspace, ...]
    commutator: Subspace
    description: str = ""


def validate_decomposition(g: LieAlgebra, d: Decomposition) -> None:
    if not d.parts:
        raise ValueError("decomposition needs at least one part")
    if any(p.is_zero() for p in d.parts):
        raise ValueError("decomposition parts must be nonzero")
    if d.commutator != bracket_space(g, g.full_space()):
        raise ValueError("decomposition commutator is not C^1(g)")
    total = d.commutator
    dims = d.commutator.dim
    for p in d.parts:
        total = span_sum(total, p)
        dims += p.dim
    if dims != g.dim or total.dim != g.dim:
        raise ValueError("parts and commutator do not decompose g directly")


def subspace_bracket(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    rows = [scaled_bracket(g, u, w) for u in a.int_rows() for w in b.int_rows()]
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
        rep = relative_series(g, g.full_space())
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
        validate_decomposition(g, self.decomposition)
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


def dim_series_obstruction(
    g: LieAlgebra, series: SeriesReport | None = None
) -> DimSeriesCertificate | None:
    """Fail with the smallest j violating dim C_j + dim C^j = dim g.

    `series` is g's own central series when the caller has it already.
    """
    rep = series if series is not None else relative_series(g, g.full_space())
    for j in range(1, max(len(rep.descending), len(rep.ascending)) + 1):
        desc = rep.descending_term(j)
        asc = rep.ascending_term(j)
        if desc.dim + asc.dim != g.dim:
            return DimSeriesCertificate(j, desc.dim, asc.dim, g.dim)
    return None


def theta_ideal(g: LieAlgebra, d: Decomposition) -> Subspace:
    """Theta = z cap intersection over parts of [z(Vi), g]."""
    validate_decomposition(g, d)
    acc = centralizer(g, g.full_space())
    for part in d.parts:
        if acc.is_zero():
            break
        acc = span_intersect(acc, bracket_space(g, centralizer(g, part)))
    return acc


def coordinate_complement(g: LieAlgebra) -> tuple[Subspace, list[int]]:
    """Basis-aligned complement of C^1(g): the non-pivot coordinates."""
    comm = bracket_space(g, g.full_space())
    coords = [i for i in range(g.dim) if i not in comm.pivots]
    vecs = [g.basis_vector(i) for i in coords]
    return Subspace.spanned_by(g.dim, vecs), coords


def _coordinate_decomposition(g: LieAlgebra, groups, commutator, description) -> Decomposition:
    parts = tuple(
        Subspace.spanned_by(g.dim, [g.basis_vector(i) for i in grp]) for grp in groups
    )
    return Decomposition(parts, commutator, description)


def default_decompositions(g: LieAlgebra, budget: int = 512):
    """Coordinate splittings of the complement of C^1(g), in a fixed order.

    Order: the whole complement (s = 1), all singletons, then proper
    bipartitions by binary code. Duplicates (small complements) are skipped.
    """
    comm = bracket_space(g, g.full_space())
    _, coords = coordinate_complement(g)
    m = len(coords)
    if m == 0:
        return
    seen = set()
    emitted = 0

    def emit(groups, description):
        nonlocal emitted
        key = tuple(tuple(grp) for grp in groups)
        if key in seen or emitted >= budget:
            return None
        seen.add(key)
        emitted += 1
        return _coordinate_decomposition(g, groups, comm, description)

    whole = emit([coords], "complement as a single part")
    if whole:
        yield whole
    if m > 1:
        singles = emit([[c] for c in coords], "complement split into coordinate lines")
        if singles:
            yield singles
        for mask in range(1, (1 << m) - 1):
            if not mask & 1:
                continue  # element 0 stays in the first class: each unordered split once
            a = [coords[i] for i in range(m) if mask & (1 << i)]
            b = [coords[i] for i in range(m) if not mask & (1 << i)]
            dec = emit(sorted([a, b]), f"coordinate bipartition {a}|{b}")
            if dec:
                yield dec
            if emitted >= budget:
                return


def theta_search(
    g: LieAlgebra,
    extra_decompositions=(),
    budget: int = 512,
) -> ThetaCertificate | None:
    """First decomposition (registered ones first) with Theta != 0, or None."""
    comm = bracket_space(g, g.full_space())
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
    if nilpotency_class(g) != 2:
        return HypothesesFail("algebra is not 2-step nilpotent")
    comm = bracket_space(g, g.full_space())
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


@dataclass(frozen=True)
class SingularWitness:
    vector: tuple[Fraction, ...]
    rank: int
    center_dim: int

    def verify(self, g: LieAlgebra) -> bool:
        z = centralizer(g, g.full_space())
        if z.contains_vector(self.vector):
            return False
        _, rank = rref(g.ad_matrix(self.vector))
        return rank == self.rank and z.dim == self.center_dim and rank < z.dim


@dataclass(frozen=True)
class ProbablyNonsingular:
    """Heuristic evidence only: ad_X was onto the center for every probe."""

    tested: int


def nonsingular_probe(
    g: LieAlgebra, trials: int = 16, seed: int = 12345
) -> SingularWitness | ProbablyNonsingular:
    """Search for non-central X with ad_X not onto the center (2-step only)."""
    if nilpotency_class(g) != 2:
        raise ValueError("nonsingularity probe requires a 2-step nilpotent algebra")
    z = centralizer(g, g.full_space())
    candidates = []
    for i in range(g.dim):
        candidates.append(g.basis_vector(i))
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            candidates.append(
                tuple(a + b for a, b in zip(g.basis_vector(i), g.basis_vector(j)))
            )
    rng = random.Random(f"{seed}:nonsingular")
    for _ in range(trials):
        candidates.append(tuple(Fraction(rng.randint(-9, 9)) for _ in range(g.dim)))
    tested = 0
    for x in candidates:
        if z.contains_vector(x):
            continue
        tested += 1
        _, rank = rref(g.ad_matrix(x))
        if rank < z.dim:
            return SingularWitness(tuple(Fraction(c) for c in x), rank, z.dim)
    return ProbablyNonsingular(tested)


@dataclass(frozen=True)
class CapReport:
    """Sampled intersection of [z(X), g]; zero certifies the cap condition."""

    holds: bool
    intersection: Subspace
    samples: int


def cap_condition_sample(
    g: LieAlgebra, extra_samples: int = 8, seed: int = 12345
) -> CapReport:
    """Intersect [z(X), g] over basis vectors plus random samples.

    The true intersection over all X is contained in any sampled one, so a
    zero result certifies that the cap condition holds; a nonzero sampled
    intersection is inconclusive and reported as-is.
    """
    acc = g.full_space()
    samples = 0
    rng = random.Random(f"{seed}:cap")
    vectors = [g.basis_vector(i) for i in range(g.dim)]
    for _ in range(extra_samples):
        vectors.append(tuple(Fraction(rng.randint(-9, 9)) for _ in range(g.dim)))
    for x in vectors:
        if not any(x):
            continue
        samples += 1
        zx = centralizer(g, Subspace.spanned_by(g.dim, [x]))
        acc = span_intersect(acc, bracket_space(g, zx))
        if acc.is_zero():
            break
    return CapReport(acc.is_zero(), acc, samples)
