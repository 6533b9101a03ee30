"""Nilradicals of parabolic subalgebras and their grading by marked coordinates.

A nonempty set Pi0 of simple roots marks the parabolic; the nilradical n is
spanned by the root vectors X_gamma with o(gamma) = sum of the Pi0-coordinates
of gamma positive. o grades n, the grading tails are the lower central series,
and o(gamma_max) is the nilpotency class. The module also builds the
construction-natural decompositions that feed the obstruction machinery, the
top-layer root decomposition certificates, and explicit basis-change
certificates onto the small free nilpotent algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from .hall import HallBasis
from .liealg import LieAlgebra, lower_central_series
from .linalg import Matrix, Subspace, contains, rref
from .obstructions import Decomposition, subspace_bracket
from .roots import RootSystem, RootT, build, _add

Q = Fraction


def parse_parabolic_spec(text: str) -> tuple[str, tuple[int, ...]]:
    """Parse a case descriptor like "B3:g3" or "A3:g1,g3" (indices 1-based)."""
    if ":" not in text:
        raise ValueError(f"parabolic spec {text!r} needs the form TYPE:gI[,gJ...]")
    type_part, marks = text.split(":", 1)
    indices = []
    for chunk in marks.split(","):
        chunk = chunk.strip().lower()
        if chunk.startswith("g"):
            chunk = chunk[1:]
        if not chunk.isdigit():
            raise ValueError(f"bad simple-root index {chunk!r} in {text!r}")
        indices.append(int(chunk))
    return type_part.strip(), tuple(sorted(set(indices)))


@dataclass(frozen=True)
class ParabolicNilradical:
    rs: RootSystem
    pi0: tuple[int, ...]  # 0-based marked simple-root indices, sorted
    delta_n: tuple[RootT, ...]
    algebra: LieAlgebra
    k: int

    def o(self, root: RootT) -> int:
        return sum(root[i] for i in self.pi0)

    def layer_indices(self, i: int) -> list[int]:
        return [b for b, r in enumerate(self.delta_n) if self.o(r) == i]

    def grading_layer(self, i: int) -> Subspace:
        return Subspace.coordinate(self.algebra.dim, self.layer_indices(i))

    def grading_tail(self, j: int) -> Subspace:
        """Direct sum of the layers with o > j."""
        tail = [b for b, r in enumerate(self.delta_n) if self.o(r) > j]
        return Subspace.coordinate(self.algebra.dim, tail)

    @property
    def grading_dims(self) -> tuple[int, ...]:
        return tuple(len(self.layer_indices(i)) for i in range(1, self.k + 1))

    def top_layer_roots(self) -> list[RootT]:
        return [r for r in self.delta_n if self.o(r) == self.k]

    def case_name(self) -> str:
        marks = ",".join(f"g{i + 1}" for i in self.pi0)
        return f"{self.rs.ctype}:{marks}"


def build_nilradical(type_string: str, pi0) -> ParabolicNilradical:
    """Nilradical for the marked simple roots pi0 (1-based indices)."""
    rs = build(type_string)
    marks = tuple(sorted(set(int(i) for i in pi0)))
    if not marks:
        raise ValueError("pi0 must be a nonempty set of simple roots")
    if any(i < 1 or i > rs.rank for i in marks):
        raise ValueError(f"pi0 indices must lie in 1..{rs.rank}")
    pi0_zero = tuple(i - 1 for i in marks)

    def o(root: RootT) -> int:
        return sum(root[i] for i in pi0_zero)

    delta_n = tuple(r for r in rs.positive if o(r) > 0)
    index = {r: i for i, r in enumerate(delta_n)}
    brackets = {}
    for i, a in enumerate(delta_n):
        for j in range(i + 1, len(delta_n)):
            b = delta_n[j]
            c = _add(a, b)
            if c in index:
                brackets[(i, j)] = {index[c]: rs.n_constant(a, b)}
    labels = ["x" + "".join(str(x) for x in r) for r in delta_n]
    algebra = LieAlgebra(len(delta_n), brackets, labels)
    k = o(rs.gamma_max)
    return ParabolicNilradical(rs, pi0_zero, delta_n, algebra, k)


@dataclass(frozen=True)
class GradingReport:
    ok: bool
    grading_dims: tuple[int, ...]
    series_dims: tuple[int, ...]
    center_is_top_layer: bool
    layer_generation: bool  # [g_(1), g_(i-1)] = g_(i)
    multiplicative: bool  # [g_(i), g_(j)] inside g_(i+j)


def verify_lcs_grading(pn: ParabolicNilradical) -> GradingReport:
    """Check C^j(n) = sum of layers above j, center = top layer, and Eq-style
    layer generation/multiplicativity, all as exact subspace identities."""
    g = pn.algebra
    rep = lower_central_series(g)
    tails_ok = all(
        rep.descending_term(j) == pn.grading_tail(j) for j in range(pn.k + 1)
    )
    center_ok = g.center() == pn.grading_layer(pn.k)
    layers = {i: pn.grading_layer(i) for i in range(1, pn.k + 1)}
    generation = all(
        subspace_bracket(g, layers[1], layers[i - 1]) == layers[i]
        for i in range(2, pn.k + 1)
    )
    multiplicative = True
    for i in range(1, pn.k + 1):
        for j in range(i, pn.k + 1):
            target = layers[i + j] if i + j <= pn.k else Subspace.zero(g.dim)
            if not contains(target, subspace_bracket(g, layers[i], layers[j])):
                multiplicative = False
    ok = tails_ok and center_ok and generation and multiplicative
    return GradingReport(
        ok,
        pn.grading_dims,
        rep.descending_dims,
        center_ok,
        generation,
        multiplicative,
    )


@dataclass(frozen=True)
class DecompCertificate:
    """gamma = delta + beta_t + ... + beta_1 with all partial sums in Delta_n+.

    betas are stored in the order beta_t, ..., beta_1, so the partial sums
    delta, delta + beta_t, ... are prefixes read left to right.
    """

    gamma: RootT
    alpha: int  # 0-based simple-root index, member of pi0
    delta: RootT
    betas: tuple[RootT, ...]

    @property
    def t(self) -> int:
        return len(self.betas)

    def verify(self, pn: ParabolicNilradical) -> bool:
        if self.alpha not in pn.pi0:
            return False
        if self.delta[self.alpha] != 0:
            return False
        members = set(pn.delta_n)
        if self.delta not in members:
            return False
        if any(b not in members or b[self.alpha] == 0 for b in self.betas):
            return False
        if self.t > self.gamma[self.alpha]:
            return False
        acc = self.delta
        for beta in self.betas:
            acc = _add(acc, beta)
            if acc not in members:
                return False
        return acc == self.gamma


def decompose_root(pn: ParabolicNilradical, gamma: RootT, alpha: int) -> DecompCertificate:
    """Peel coordinate-alpha roots off gamma by breadth-first search.

    alpha is a 1-based marked simple-root index; gamma must be a top-layer
    root. BFS over subtractions of Delta_n+ roots with nonzero alpha
    coordinate finds a minimal-length chain whose tail delta has alpha
    coordinate zero; minimality gives t <= coord_alpha(gamma). Exhausting the
    search would contradict the guaranteed existence, so it raises hard.
    """
    if len(pn.pi0) < 2:
        raise ValueError("decomposition certificates need at least two marked roots")
    a0 = alpha - 1
    if a0 not in pn.pi0:
        raise ValueError(f"alpha g{alpha} is not a marked simple root")
    if pn.o(gamma) != pn.k:
        raise ValueError("gamma must lie in the top layer C^(k-1)(n)")
    members = set(pn.delta_n)
    subtrahends = [b for b in pn.delta_n if b[a0] != 0]
    parent: dict[RootT, tuple[RootT, RootT] | None] = {gamma: None}
    queue = [gamma]
    while queue:
        next_queue = []
        for cur in queue:
            steps = []
            for beta in subtrahends:
                nxt = tuple(x - y for x, y in zip(cur, beta))
                if nxt in members and nxt not in parent:
                    steps.append((nxt[a0] != 0, nxt, beta))
            steps.sort(key=lambda s: s[0])  # goal states (coord zero) first
            for not_goal, nxt, beta in steps:
                if nxt in parent:
                    continue
                parent[nxt] = (cur, beta)
                if not not_goal:
                    chain = []
                    node = nxt
                    while parent[node] is not None:
                        prev, used = parent[node]
                        chain.append(used)
                        node = prev
                    # chain currently beta_t first is built from delta upward:
                    # walking parents from delta to gamma yields beta_t,...,beta_1
                    cert = DecompCertificate(gamma, a0, nxt, tuple(chain))
                    assert cert.verify(pn)
                    return cert
                next_queue.append(nxt)
        queue = next_queue
    raise RuntimeError(
        f"no decomposition of {gamma} along g{alpha}: contradicts the top-layer decomposition property"
    )


# ------------------------------------------------ structured decompositions


def natural_marked_decomposition(pn: ParabolicNilradical) -> Decomposition:
    """V_i = span of first-layer root vectors supported on the i-th marked root."""
    g = pn.algebra
    parts = []
    for a in pn.pi0:
        coords = [b for b, r in enumerate(pn.delta_n) if pn.o(r) == 1 and r[a] == 1]
        parts.append(Subspace.coordinate(g.dim, coords))
    marks = ",".join(f"g{i + 1}" for i in pn.pi0)
    return Decomposition(tuple(parts), f"first layer split by marked roots {marks}")


def epsilon_shape_groups(pn: ParabolicNilradical) -> dict[str, list[int]]:
    """First-layer basis indices grouped by epsilon shape (classical types)."""
    if pn.rs.epsilon is None:
        return {}
    groups: dict[str, list[int]] = {}
    for b in pn.layer_indices(1):
        eps = pn.rs.epsilon[pn.delta_n[b]]
        values = sorted((x for x in eps if x), reverse=True)
        if values == [1, -1]:
            shape = "difference"
        elif values == [1, 1]:
            shape = "sum"
        elif values == [1]:
            shape = "short"
        elif values == [2]:
            shape = "long"
        else:
            shape = "other"
        groups.setdefault(shape, []).append(b)
    return groups


def structured_decompositions(
    pn: ParabolicNilradical,
) -> tuple[list[Decomposition], list[tuple[Subspace, Subspace]]]:
    """Construction-natural theta decompositions and two-isotropic-part splits."""
    g = pn.algebra
    theta_decs = [natural_marked_decomposition(pn)]
    hr_pairs: list[tuple[Subspace, Subspace]] = []
    groups = epsilon_shape_groups(pn)
    if groups and "other" not in groups:
        parts = [
            Subspace.coordinate(g.dim, groups[shape])
            for shape in ("difference", "sum", "short", "long")
            if shape in groups
        ]
        if len(parts) >= 2:
            theta_decs.append(
                Decomposition(tuple(parts), "first layer split by epsilon shape")
            )
        if len(parts) == 2:
            hr_pairs.append((parts[0], parts[1]))
    return theta_decs, hr_pairs


# --------------------------------------------------------- classification


@dataclass(frozen=True)
class NilradicalClassification:
    prediction: str  # abelian | n32 | n23 | refutes
    reason: str

    @property
    def admits(self) -> bool:
        return self.prediction in ("abelian", "n32", "n23")


def classify_nilradical(type_string: str, pi0) -> NilradicalClassification:
    """Predict the metric verdict for (type, Pi0) by the structural case split."""
    rs = build(type_string)
    marks = tuple(sorted(set(int(i) for i in pi0)))
    if not marks:
        raise ValueError("pi0 must be nonempty")
    if len(marks) >= 2:
        return NilradicalClassification(
            "refutes", "two or more marked simple roots force the top layer into every [z(Vi), n]"
        )
    l = marks[0]
    n = rs.rank
    fam = rs.ctype.family
    coord = rs.gamma_max[l - 1]
    if coord == 1:
        return NilradicalClassification("abelian", "highest root has coordinate 1 at the marked root")
    if fam == "B":
        if l == n:
            if n == 3:
                return NilradicalClassification("n32", "free 2-step nilradical on 3 generators")
            return NilradicalClassification(
                "refutes", f"free 2-step algebra on {n} generators fails the dimension identity"
            )
        return NilradicalClassification(
            "refutes", "three-part isotropic split puts the center inside every [z(Vi), n]"
        )
    if fam == "C":
        return NilradicalClassification(
            "refutes", "two isotropic parts with [V1,V2] = C^1(n)"
        )
    if fam == "D":
        return NilradicalClassification(
            "refutes", "two isotropic parts with [V1,V2] = C^1(n)"
        )
    if fam == "G":
        if l == 1:
            return NilradicalClassification("n23", "free 3-step nilradical on 2 generators")
        return NilradicalClassification(
            "refutes", "one-dimensional center fails the dimension identity"
        )
    # E and F families: every nonabelian case overshoots the dimension identity
    return NilradicalClassification(
        "refutes", "dim C^(k-1)(n) + dim C^1(n) exceeds dim n"
    )


def match_free_nilpotent(pn: ParabolicNilradical, p: int, k: int) -> Matrix | None:
    """Explicit bracket-preserving basis change onto the free algebra, or None.

    Generators are matched monomially (signed permutations of the first-layer
    basis); higher Hall elements extend by bracketing. The resulting linear
    map is checked to be invertible and structure-constant preserving, so a
    returned matrix is a genuine isomorphism certificate.
    """
    basis = HallBasis(p, k)
    target = pn.algebra
    if len(basis) != target.dim or pn.k != k:
        return None
    layer1 = pn.layer_indices(1)
    if len(layer1) != p:
        return None
    for perm in permutations(layer1):
        for signs in product((1, -1), repeat=p):
            images: list = [None] * len(basis)
            for i in range(p):
                vec = [Q(0)] * target.dim
                vec[perm[i]] = Q(signs[i])
                images[i] = tuple(vec)
            for idx in range(p, len(basis)):
                images[idx] = target.bracket(
                    images[basis.left[idx]], images[basis.right[idx]]
                )
            mat = Matrix.from_rows(images, target.dim)
            _, rank = rref(mat)
            if rank != target.dim:
                continue
            ok = True
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    lhs = target.bracket(images[i], images[j])
                    rhs = [Q(0)] * target.dim
                    for m, c in basis.expand_bracket(i, j).items():
                        for col in range(target.dim):
                            rhs[col] += c * images[m][col]
                    if tuple(lhs) != tuple(rhs):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return mat
    return None
