"""Reduced root systems: enumeration, pairings, strings, Chevalley constants.

Simple roots follow the standard textbook numbering (chains numbered from the
long end for B/C, branch node 2 attached to node 4 for E types). Roots are
integer coordinate tuples over the simple roots. Positive roots come from the
closure algorithm driven by string arithmetic on the Cartan matrix; the
pairing (a, b) is the symmetrized Cartan form normalized to length^2 = 2 for
long roots. Structure constants N(a, b) for the positive part are fixed by
extraspecial-pair induction over the (height, lex) order: extraspecial pairs
get the positive string value p+1, every other special pair is forced by the
two Chevalley-basis identities (the cyclic relation for a+b+c = 0 and the
four-root Jacobi relation). Classical types carry an epsilon-coordinate
realization and an independent matrix-commutator oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

RootT = tuple[int, ...]

RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


@dataclass(frozen=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in RANK_BOUNDS:
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = RANK_BOUNDS[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise ValueError(f"rank {self.rank} out of range for type {self.family}")

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        text = text.strip().upper()
        if len(text) < 2 or not text[1:].isdigit():
            raise ValueError(f"cannot parse Cartan type {text!r} (expected e.g. B3)")
        return cls(text[0], int(text[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def cartan_matrix(ct: CartanType) -> tuple[tuple[int, ...], ...]:
    n = ct.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if ct.family in ("A", "B", "C"):
        for i in range(n - 1):
            link(i, i + 1)
        if ct.family == "B":
            a[n - 2][n - 1] = -2  # alpha_n short
        elif ct.family == "C":
            a[n - 1][n - 2] = -2  # alpha_n long
    elif ct.family == "D":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 3, n - 1)
    elif ct.family == "E":
        edges = [(1, 3), (3, 4), (4, 5), (2, 4), (5, 6), (6, 7), (7, 8)]
        for u, v in edges:
            if u <= n and v <= n:
                link(u - 1, v - 1)
    elif ct.family == "F":
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    elif ct.family == "G":
        link(0, 1, -1, -3)
    return tuple(tuple(row) for row in a)


def _symmetrizer(ct: CartanType) -> tuple[Fraction, ...]:
    """d_i = (alpha_i, alpha_i)/2 with long roots normalized to length^2 = 2."""
    n = ct.rank
    one = Fraction(1)
    half = Fraction(1, 2)
    if ct.family in ("A", "D", "E"):
        d = [one] * n
    elif ct.family == "B":
        d = [one] * (n - 1) + [half]
    elif ct.family == "C":
        d = [half] * (n - 1) + [one]
    elif ct.family == "F":
        d = [one, one, half, half]
    else:  # G2
        d = [Fraction(1, 3), one]
    return tuple(d)


class RootSystem:
    """Positive roots, pairing and Chevalley constants of a reduced root system."""

    def __init__(self, ctype: CartanType):
        self.ctype = ctype
        self.rank = ctype.rank
        self.cartan = cartan_matrix(ctype)
        self.d = _symmetrizer(ctype)
        for i in range(self.rank):
            for j in range(self.rank):
                assert self.cartan[i][j] * self.d[j] == self.cartan[j][i] * self.d[i]
        self.simple: tuple[RootT, ...] = tuple(
            tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)
        )
        self._enumerate_positive()
        self.epsilon = _epsilon_coords(self) if ctype.family in "ABCD" else None
        self._chevalley: dict[tuple[RootT, RootT], int] = {}
        self._compute_chevalley()

    # ------------------------------------------------------------------ basics

    @staticmethod
    def height(root: RootT) -> int:
        return sum(root)

    def is_positive(self, root: RootT) -> bool:
        return root in self._positive_set

    def is_root(self, root: RootT) -> bool:
        return root in self._root_set

    def pairing(self, a: RootT, b: RootT) -> Fraction:
        """(a, b) via the symmetrized Cartan matrix."""
        total = Fraction(0)
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = self.cartan[i]
            for j, bj in enumerate(b):
                if bj:
                    total += ai * bj * row[j] * self.d[j]
        return total

    def cartan_pair(self, gamma: RootT, alpha: RootT) -> Fraction:
        """<<gamma, alpha>> = 2 (gamma, alpha) / (alpha, alpha)."""
        return self.pairing(gamma, alpha) / self._half_len(alpha)

    def _half_len(self, root: RootT) -> Fraction:
        return self.pairing(root, root) / 2

    # ------------------------------------------------------------- enumeration

    def _enumerate_positive(self) -> None:
        n = self.rank
        posset = set(self.simple)
        frontier = list(self.simple)
        while frontier:
            new = []
            for gamma in frontier:
                for i in range(n):
                    pair = sum(gamma[k] * self.cartan[k][i] for k in range(n))
                    m = 0
                    cur = _sub(gamma, self.simple[i])
                    while cur in posset:
                        m += 1
                        cur = _sub(cur, self.simple[i])
                    if m - pair >= 1:
                        cand = _add(gamma, self.simple[i])
                        if cand not in posset:
                            posset.add(cand)
                            new.append(cand)
            frontier = new
        self.positive: tuple[RootT, ...] = tuple(
            sorted(posset, key=lambda r: (self.height(r), r))
        )
        expected = POSITIVE_COUNTS[self.ctype.family](self.rank)
        assert len(self.positive) == expected, (
            f"{self.ctype}: enumerated {len(self.positive)} positive roots, expected {expected}"
        )
        self._positive_set = frozenset(posset)
        self._root_set = frozenset(posset) | frozenset(_neg(r) for r in posset)
        self.index = {r: i for i, r in enumerate(self.positive)}
        top_height = self.height(self.positive[-1])
        tops = [r for r in self.positive if self.height(r) == top_height]
        assert len(tops) == 1, "maximal root must be unique"
        self.gamma_max: RootT = tops[0]
        for i in range(n):
            assert not self.is_root(_add(self.gamma_max, self.simple[i]))

    # ------------------------------------------------------------------ strings

    def root_string(self, gamma: RootT, alpha: RootT) -> tuple[int, int]:
        """(p, q) with gamma + n*alpha a root exactly for p <= n <= q."""
        if not self.is_root(gamma) or not self.is_root(alpha):
            raise ValueError("root string endpoints must be roots")
        if gamma == alpha or gamma == _neg(alpha):
            raise ValueError("string through +/- alpha itself is not defined")
        down = 0
        cur = _sub(gamma, alpha)
        while cur in self._root_set:
            down += 1
            cur = _sub(cur, alpha)
        up = 0
        cur = _add(gamma, alpha)
        while cur in self._root_set:
            up += 1
            cur = _add(cur, alpha)
        p, q = -down, up
        assert p + q == -self.cartan_pair(gamma, alpha)
        return p, q

    # --------------------------------------------------------------- chevalley

    def special_pairs(self, gamma: RootT) -> list[tuple[RootT, RootT]]:
        """Ordered pairs a < b of positive roots with a + b = gamma."""
        pairs = []
        for a in self.positive:
            if self.height(a) * 2 > self.height(gamma):
                break
            b = _sub(gamma, a)
            if b in self._positive_set and self.index[a] < self.index[b]:
                pairs.append((a, b))
        return pairs

    def _p_value(self, a: RootT, b: RootT) -> int:
        m = 0
        cur = _sub(b, a)
        while cur in self._root_set:
            m += 1
            cur = _sub(cur, a)
        return m

    def _compute_chevalley(self) -> None:
        N = self._chevalley

        def n_of(x: RootT, y: RootT) -> int:
            if self.index[x] < self.index[y]:
                return N[(x, y)]
            return -N[(y, x)]

        for gamma in self.positive:
            if self.height(gamma) < 2:
                continue
            pairs = self.special_pairs(gamma)
            assert pairs, f"non-simple positive root {gamma} admits no positive splitting"
            r, s = pairs[0]
            N[(r, s)] = self._p_value(r, s) + 1
            gg = self.pairing(gamma, gamma)
            ss = self.pairing(s, s)
            for a, b in pairs[1:]:
                t1 = Fraction(0)
                delta = _sub(a, r)
                if delta in self._positive_set:
                    t1 = (
                        self.pairing(delta, delta)
                        / self.pairing(a, a)
                        * n_of(r, delta)
                        * n_of(delta, b)
                    )
                t3 = Fraction(0)
                eta = _sub(b, r)
                if eta in self._positive_set:
                    t3 = (
                        self.pairing(eta, eta)
                        / self.pairing(b, b)
                        * n_of(r, eta)
                        * n_of(eta, a)
                    )
                assert t1 or t3, "one of a-r, b-r must be a root"
                val = gg / (ss * N[(r, s)]) * (t1 - t3)
                assert val.denominator == 1, f"non-integer constant for {a}+{b}={gamma}"
                n_ab = int(val)
                assert abs(n_ab) == self._p_value(a, b) + 1
                N[(a, b)] = n_ab

    def n_constant(self, a: RootT, b: RootT) -> int:
        """N(a, b) for positive a, b; zero when a + b is not a positive root."""
        if _add(a, b) not in self._positive_set:
            return 0
        if self.index[a] < self.index[b]:
            return self._chevalley[(a, b)]
        return -self._chevalley[(b, a)]

    @property
    def chevalley(self) -> dict[tuple[RootT, RootT], int]:
        return dict(self._chevalley)


def _add(a: RootT, b: RootT) -> RootT:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: RootT, b: RootT) -> RootT:
    return tuple(x - y for x, y in zip(a, b))


def _neg(a: RootT) -> RootT:
    return tuple(-x for x in a)


@lru_cache(maxsize=None)
def build(type_string: str) -> RootSystem:
    """Root system from a type string like "B3" (cached: systems are immutable)."""
    return RootSystem(CartanType.parse(type_string))


# ------------------------------------------------------------- lemma check


@dataclass(frozen=True)
class SubtractionLemmaReport:
    """Both clauses of the simple-root subtraction lemma, evaluated directly."""

    gamma: RootT
    alpha: RootT
    sum_is_root: bool
    difference_is_root: bool
    pairing_sign: int
    clause1_consistent: bool  # gamma+alpha not a root: gamma-alpha root iff (gamma,alpha) > 0
    clause2_consistent: bool  # gamma-alpha not a root: gamma+alpha root iff (gamma,alpha) < 0

    @property
    def ok(self) -> bool:
        return self.clause1_consistent and self.clause2_consistent


def lemma_subsroot(rs: RootSystem, gamma: RootT, alpha: RootT) -> SubtractionLemmaReport:
    if alpha not in rs.simple:
        raise ValueError("alpha must be a simple root")
    if not rs.is_positive(gamma) or gamma == alpha:
        raise ValueError("gamma must be a positive root different from alpha")
    up = rs.is_positive(_add(gamma, alpha))
    down = rs.is_positive(_sub(gamma, alpha))
    pairing = rs.pairing(gamma, alpha)
    sign = (pairing > 0) - (pairing < 0)
    clause1 = True if up else (down == (pairing > 0))
    clause2 = True if down else (up == (pairing < 0))
    return SubtractionLemmaReport(gamma, alpha, up, down, sign, clause1, clause2)


# ---------------------------------------------------- epsilon realizations


def _epsilon_coords(rs: RootSystem) -> dict[RootT, tuple[Fraction, ...]]:
    """Classical-type epsilon coordinates for every positive root."""
    n = rs.rank
    fam = rs.ctype.family
    dim = n + 1 if fam == "A" else n

    def unit(i):
        return [Fraction(0)] * i + [Fraction(1)] + [Fraction(0)] * (dim - i - 1)

    simple_eps = []
    for i in range(n - 1):
        e = unit(i)
        e[i + 1] -= 1
        simple_eps.append(e)
    if fam == "A":
        e = unit(n - 1)
        e[n] -= 1
        simple_eps.append(e)
    elif fam == "B":
        simple_eps.append(unit(n - 1))
    elif fam == "C":
        simple_eps.append([2 * x for x in unit(n - 1)])
    elif fam == "D":
        e = unit(n - 2)
        e[n - 1] += 1
        simple_eps.append(e)
    out = {}
    for root in rs.positive:
        acc = [Fraction(0)] * dim
        for i, c in enumerate(root):
            if c:
                for k in range(dim):
                    acc[k] += c * simple_eps[i][k]
        out[root] = tuple(acc)
    return out


def epsilon_to_simple(rs: RootSystem, eps) -> RootT:
    """Invert the epsilon realization (round-trip check helper)."""
    eps = tuple(Fraction(x) for x in eps)
    for root, known in rs.epsilon.items():
        if known == eps:
            return root
    raise ValueError(f"{eps} is not a positive root of {rs.ctype}")


# ------------------------------------------------- classical matrix oracle


def _mat_zero(n):
    return [[0] * n for _ in range(n)]


def _mat_comm(x, y):
    n = len(x)
    out = _mat_zero(n)
    for i in range(n):
        for k in range(n):
            if x[i][k]:
                for j in range(n):
                    if y[k][j]:
                        out[i][j] += x[i][k] * y[k][j]
            if y[i][k]:
                for j in range(n):
                    if x[k][j]:
                        out[i][j] -= y[i][k] * x[k][j]
    return out


def matrix_root_vectors(rs: RootSystem) -> tuple[dict[RootT, list[list[int]]], int]:
    """Explicit sl/so/sp root vectors for every positive root (classical only)."""
    fam = rs.ctype.family
    n = rs.rank
    if fam not in "ABCD":
        raise ValueError("matrix realizations cover classical types only")
    if fam == "A":
        size = n + 1
    elif fam == "B":
        size = 2 * n + 1
    else:
        size = 2 * n

    def E(i, j):
        m = _mat_zero(size)
        m[i][j] = 1
        return m

    def combine(terms):
        m = _mat_zero(size)
        for sign, i, j in terms:
            m[i][j] += sign
        return m

    vectors = {}
    for root, eps in rs.epsilon.items():
        support = [(k, c) for k, c in enumerate(eps) if c]
        if fam == "A":
            (i, ci), (j, cj) = support
            assert ci == 1 and cj == -1
            vectors[root] = E(i, j)
            continue
        # offsets for B: 0 scalar, 1..n plus block, n+1..2n minus block
        off = 1 if fam == "B" else 0
        if fam == "B" and len(support) == 1:
            (i, c) = support[0]
            assert c == 1
            vectors[root] = combine([(1, off + i, 0), (-1, 0, off + n + i)])
        elif fam == "C" and len(support) == 1:
            (i, c) = support[0]
            assert c == 2
            vectors[root] = E(i, n + i)
        else:
            (i, ci), (j, cj) = support
            if ci == 1 and cj == -1:
                vectors[root] = combine(
                    [(1, off + i, off + j), (-1, off + n + j, off + n + i)]
                )
            else:
                assert ci == 1 and cj == 1
                plus_sign = 1 if fam == "C" else -1
                vectors[root] = combine(
                    [(1, off + i, off + n + j), (plus_sign, off + j, off + n + i)]
                )
    return vectors, size


def matrix_constants_agree(rs: RootSystem) -> bool:
    """Cross-check: matrix commutators match N(a,b) up to a diagonal rescaling.

    Scaling factors lambda are forced by the extraspecial pairs (simple roots
    get lambda = 1); every other special pair must then agree exactly.
    """
    vectors, _ = matrix_root_vectors(rs)

    def mconst(a: RootT, b: RootT) -> Fraction:
        comm = _mat_comm(vectors[a], vectors[b])
        target = vectors[_add(a, b)]
        ratio = None
        size = len(comm)
        for i in range(size):
            for j in range(size):
                if bool(comm[i][j]) != bool(target[i][j]):
                    raise AssertionError("commutator not proportional to root vector")
                if target[i][j]:
                    r = Fraction(comm[i][j], target[i][j])
                    if ratio is None:
                        ratio = r
                    elif ratio != r:
                        raise AssertionError("commutator not proportional to root vector")
        assert ratio is not None and ratio != 0
        return ratio

    lam: dict[RootT, Fraction] = {r: Fraction(1) for r in rs.simple}
    for gamma in rs.positive:
        if rs.height(gamma) < 2:
            continue
        pairs = rs.special_pairs(gamma)
        r, s = pairs[0]
        lam[gamma] = mconst(r, s) * lam[r] * lam[s] / rs.n_constant(r, s)
        for a, b in pairs:
            if rs.n_constant(a, b) * lam[gamma] != mconst(a, b) * lam[a] * lam[b]:
                return False
    return True
