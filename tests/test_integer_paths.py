"""The integer paths against plain Fraction references.

Each reference below is the Fraction algorithm the integer code replaced:
Gauss-Jordan over Fractions, free-column kernels, spans of Fraction
brackets, and the witness loop over `combine` and `det`. Subspaces compare
by their canonical RREF rows, so equality here is exact equality of the
computed subspaces.
"""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlie.config import RunConfig
from quadlie.forms import (
    FormSpace,
    _det_polynomial,
    SymForm,
    decide_nondegenerate,
    invariant_form_space,
    normalize_witness,
    trial_point,
)
from quadlie.graphs import build_algebra, cycle, triangle
from quadlie.hall import free_nilpotent
from quadlie.liealg import (
    LieAlgebra,
    abelian,
    bracket_space,
    centralizer,
    heisenberg,
    lower_central_series,
    relative_series,
)
from quadlie.linalg import Matrix, Subspace, det, nullspace, span_intersect, span_sum
from quadlie.parabolic import build_nilradical

Q = Fraction
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

# ------------------------------------------------------- Fraction references


def ref_rref(rows, ncols):
    """Nonzero RREF rows and pivots by Fraction Gauss-Jordan."""
    rows = [[Q(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def ref_span(ambient, vectors):
    """The RREF rows, each scaled to its primitive integer multiple."""
    rows, pivots = ref_rref(vectors, ambient)
    ints = []
    for row in rows:
        m = math.lcm(*(x.denominator for x in row))
        ints.append(tuple(int(x * m) for x in row))
    return Subspace(ambient, tuple(ints), tuple(pivots))


def ref_free_column_basis(rows, ncols):
    """One kernel vector per free column f: 1 at f, -R[r][f] at pivot p_r."""
    reduced, pivots = ref_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Q(0)] * ncols
        vec[f] = Q(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(vec)
    return basis


def ref_nullspace(rows, ncols):
    return ref_span(ncols, ref_free_column_basis(rows, ncols))


def unit(n, i):
    return [Q(int(i == j)) for j in range(n)]


def ref_bracket_space(g, v):
    return ref_span(g.dim, [g.bracket(unit(g.dim, i), w) for w in v.rows for i in range(g.dim)])


def ref_centralizer(g, v):
    if v.is_zero() or g.dim == 0:
        return Subspace.full(g.dim)
    rows = []
    for w in v.rows:
        cols = [g.bracket(unit(g.dim, i), w) for i in range(g.dim)]
        rows.extend([cols[i][r] for i in range(g.dim)] for r in range(g.dim))
    return ref_nullspace(rows, g.dim)


def ref_reduce(s, vec):
    """Residual of vec after reduction against the Fraction RREF basis of s."""
    v = list(vec)
    for row, p in zip(s.rows, s.pivots):
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return v


def ref_ascending_series(g, v):
    """C_0 = 0, C_1 = z(V), C_j = {X : [X, g] in C_(j-1)} until it repeats."""
    terms = [Subspace.zero(g.dim)]
    z = ref_centralizer(g, v)
    if z == terms[0]:
        return terms
    terms.append(z)
    while True:
        prev = terms[-1]
        # X is in the next term iff every [X, e_i] reduces to 0 against prev
        rows = []
        for i in range(g.dim):
            cols = [ref_reduce(prev, g.bracket(unit(g.dim, m), unit(g.dim, i))) for m in range(g.dim)]
            rows.extend([cols[m][r] for m in range(g.dim)] for r in range(g.dim))
        nxt = ref_nullspace(rows, g.dim)
        if nxt == prev:
            return terms
        terms.append(nxt)


def ref_intersect(a, b):
    n = a.ambient
    zero = [Q(0)] * n
    stacked = [list(r) + list(r) for r in a.rows] + [list(r) + zero for r in b.rows]
    reduced, pivots = ref_rref(stacked, 2 * n)
    return ref_span(n, [row[n:] for row, p in zip(reduced, pivots) if p >= n])


# ------------------------------------------------------------ strategies

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def rows_of(ncols, max_rows=6):
    """Rows with zero rows and zero entries mixed in."""
    row = st.one_of(
        st.just([Q(0)] * ncols),
        st.lists(st.one_of(st.just(Q(0)), fractions), min_size=ncols, max_size=ncols),
    )
    return st.lists(row, min_size=1, max_size=max_rows)


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 5))
    return draw(rows_of(ncols)), ncols


@st.composite
def subspace_pairs(draw):
    ncols = draw(st.integers(1, 5))
    return ncols, draw(rows_of(ncols)), draw(rows_of(ncols))


@st.composite
def two_step_algebras(draw):
    """Random 2-step algebras: generators e_0..e_(p-1), center after them.

    Any antisymmetric map into a central part satisfies Jacobi.
    """
    p = draw(st.integers(1, 4))
    q = draw(st.integers(0, 3))
    brackets = {}
    for i in range(p):
        for j in range(i + 1, p):
            terms = {p + k: draw(st.one_of(st.just(Q(0)), fractions)) for k in range(q)}
            brackets[(i, j)] = terms
    return LieAlgebra(p + q, brackets)


@st.composite
def rescaled_algebras(draw):
    """Known algebras in a rescaled basis f_i = s_i e_i (rational constants)."""
    g = draw(st.sampled_from([heisenberg(), free_nilpotent(2, 3), free_nilpotent(3, 2), abelian(2)]))
    scale = [draw(st.sampled_from([Q(1), Q(-2), Q(1, 2), Q(2, 3), Q(-3, 5)])) for _ in range(g.dim)]
    brackets = {
        (i, j): {k: c * scale[i] * scale[j] / scale[k] for k, c in terms.items()}
        for (i, j), terms in g.brackets.items()
    }
    return LieAlgebra(g.dim, brackets)


@st.composite
def changed_basis_algebras(draw):
    """An algebra in a unitriangular change of basis (`change_basis`), so
    that its central series terms are not coordinate subspaces."""
    g = draw(st.one_of(two_step_algebras(), rescaled_algebras()))
    n = g.dim
    upper = [[Q(int(a == b)) if a >= b else draw(fractions) for b in range(n)] for a in range(n)]
    lower = [[Q(int(a == b)) if a <= b else draw(fractions) for b in range(n)] for a in range(n)]
    return change_basis(g, upper, lower)


def change_basis(g, upper, lower):
    """g in the basis f_i = sum_a P[a][i] e_a, P = upper * lower, for upper
    and lower unitriangular matrices."""
    n = g.dim
    p = [[sum(upper[a][k] * lower[k][b] for k in range(n)) for b in range(n)] for a in range(n)]
    augmented, _ = ref_rref([p[a] + unit(n, a) for a in range(n)], 2 * n)
    inverse = [row[n:] for row in augmented]
    cols = [[p[a][i] for a in range(n)] for i in range(n)]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = g.bracket(cols[i], cols[j])
            brackets[(i, j)] = {k: sum(inverse[k][a] * v[a] for a in range(n)) for k in range(n)}
    return LieAlgebra(n, brackets)


algebras = st.one_of(two_step_algebras(), rescaled_algebras(), changed_basis_algebras())


@st.composite
def algebra_and_subspace(draw):
    g = draw(algebras)
    k = draw(st.integers(0, g.dim))
    vecs = draw(st.lists(st.lists(fractions, min_size=g.dim, max_size=g.dim), min_size=k, max_size=k))
    return g, Subspace.spanned_by(g.dim, vecs)


# ----------------------------------------------------------- linear algebra


@SETTINGS
@given(matrices())
def test_nullspace_matches_fraction_reference(data):
    rows, ncols = data
    assert nullspace(Matrix.from_rows(rows, ncols)) == ref_nullspace(rows, ncols)


def test_nullspace_of_zero_and_empty_systems():
    assert nullspace(Matrix.zero(3, 4)) == Subspace.full(4) == ref_nullspace([[0] * 4] * 3, 4)
    assert nullspace(Matrix.from_rows([], 3)) == Subspace.full(3)
    assert nullspace(Matrix.from_rows([[Q(1, 2), Q(-2, 3)]])) == ref_nullspace([[Q(1, 2), Q(-2, 3)]], 2)


@SETTINGS
@given(subspace_pairs())
def test_span_sum_and_intersect_match_fraction_reference(data):
    n, rows_a, rows_b = data
    u, w = Subspace.spanned_by(n, rows_a), Subspace.spanned_by(n, rows_b)
    assert u == ref_span(n, rows_a)
    assert span_sum(u, w) == ref_span(n, list(u.rows) + list(w.rows))
    assert span_intersect(u, w) == ref_intersect(u, w)


# --------------------------------------------------------------- algebras


@SETTINGS
@given(algebra_and_subspace())
def test_bracket_space_and_centralizer_match_fraction_reference(data):
    g, v = data
    assert bracket_space(g, v) == ref_bracket_space(g, v)
    assert centralizer(g, v) == ref_centralizer(g, v)


@SETTINGS
@given(algebras)
def test_commutator_and_series_match_fraction_reference(g):
    full = Subspace.full(g.dim)
    structure = [[terms.get(k, Q(0)) for k in range(g.dim)] for terms in g.brackets.values()]
    assert g.commutator_subspace() == ref_span(g.dim, structure)
    assert g.commutator_subspace() == ref_bracket_space(g, full)
    assert g.center() == ref_centralizer(g, full)
    assert lower_central_series(g).ascending == tuple(ref_ascending_series(g, full))


def ref_descending_series(g, v):
    """C^0 = V, C^j = [g, C^(j-1)] until it repeats."""
    terms = [v]
    while len(terms) <= g.dim + 2:
        nxt = ref_bracket_space(g, terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return terms


@SETTINGS
@given(algebras)
def test_cached_invariants_match_fraction_reference(g):
    """C^1, z(g) and the central series are computed once per algebra."""
    full = Subspace.full(g.dim)
    series = lower_central_series(g)
    assert series is lower_central_series(g)
    assert g.commutator_subspace() is g.commutator_subspace()
    assert g.commutator_subspace() == ref_bracket_space(g, full) == series.descending_term(1)
    assert g.center() == ref_centralizer(g, full)
    assert series.descending == tuple(ref_descending_series(g, full))
    assert series.ascending == tuple(ref_ascending_series(g, full))


@st.composite
def coordinate_indices(draw):
    n = draw(st.integers(0, 6))
    if n == 0:
        return n, []
    return n, draw(st.lists(st.integers(0, n - 1), max_size=2 * n))


@SETTINGS
@given(coordinate_indices())
def test_coordinate_subspace_matches_spanned_unit_vectors(data):
    n, idx = data
    s = Subspace.coordinate(n, idx)
    ref = Subspace.spanned_by(n, [unit(n, i) for i in idx])
    assert s == ref and s.rows == ref.rows


def test_coordinate_subspace_unsorted_duplicate_and_empty_indices():
    for idx in ([3, 0, 2], [4, 1, 4, 1, 0], [], range(5)):
        assert Subspace.coordinate(5, idx) == Subspace.spanned_by(5, [unit(5, i) for i in idx])
    assert Subspace.coordinate(5, range(5)) == Subspace.full(5)
    assert Subspace.coordinate(5, []) == Subspace.zero(5)
    for bad in ([5], [-1, 2]):
        with pytest.raises(ValueError):
            Subspace.coordinate(5, bad)


@SETTINGS
@given(algebra_and_subspace())
def test_relative_series_matches_fraction_reference(data):
    g, v = data
    rep = relative_series(g, v)
    assert rep.ascending == tuple(ref_ascending_series(g, v))
    desc = [v]
    while len(desc) <= g.dim + 2:
        nxt = ref_bracket_space(g, desc[-1])
        if nxt == desc[-1]:
            break
        desc.append(nxt)
    assert rep.descending == tuple(desc)


# ----------------------------------------------------------------- pencil


@functools.cache
def pencil_spaces():
    hand_built = FormSpace(
        2,
        (
            ((0, 0, 9), (0, 1, 6), (1, 1, 4)),  # 18 [[1/2, 1/3], [1/3, 2/9]], singular
            ((0, 0, 9), (1, 1, 12)),  # 18 diag(1/2, 2/3)
        ),
        18,
    )
    algebras_ = {
        "h3": heisenberg(),
        "n(3,2)": free_nilpotent(3, 2),
        "C4": build_algebra(cycle(4)).algebra,
        "abelian(3)": abelian(3),
        "B3:g3": build_nilradical("B3", (3,)).algebra,
        "G2:g1": build_nilradical("G2", (1,)).algebra,
    }
    spaces = {name: invariant_form_space(g) for name, g in algebras_.items()}
    spaces["hand-built"] = hand_built
    return spaces


def test_g2_g1_pencil_has_a_denominator():
    basis = pencil_spaces()["G2:g1"].basis
    assert any(x.denominator == 3 for f in basis for row in f.matrix.rows for x in row)


def test_pencil_singularity_matches_combine_and_det():
    rng = random.Random(2024)
    seen = set()
    for name, space in pencil_spaces().items():
        points = [tuple(int(i == b) for i in range(space.dim)) for b in range(space.dim)]
        points += [tuple(rng.randint(-2, 3) for _ in range(space.dim)) for _ in range(12)]
        for pt in points:
            want = det(space.combine(pt).matrix) == 0
            assert space.singular_at(pt) == want, (name, pt)
            seen.add(want)
    assert seen == {True, False}


def test_hand_built_pencil_at_fixed_points():
    space = pencil_spaces()["hand-built"]
    assert space.singular_at((1, 0))
    assert not space.singular_at((0, 1))
    assert not space.singular_at((1, 1))
    assert not space.singular_at((3, -2))


def ref_invariant_basis(g):
    """The Fraction solve: the invariance rows accumulated from the Fraction
    structure constants, their free-column kernel basis by Fraction
    Gauss-Jordan, and one form per kernel vector, in column order."""
    n = g.dim
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    index = {p: i for i, p in enumerate(pairs)}
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(n):
                row = [Q(0)] * len(pairs)
                for k, c in g.bracket_basis(i, j).items():
                    row[index[min(k, l), max(k, l)]] += c
                for k, c in g.bracket_basis(i, l).items():
                    row[index[min(j, k), max(j, k)]] += c
                rows.append(row)
    forms = []
    for vec in ref_free_column_basis(rows, len(pairs)):
        m = [[Q(0)] * n for _ in range(n)]
        for (a, b), x in zip(pairs, vec):
            m[a][b] = m[b][a] = x
        forms.append(SymForm(Matrix.from_rows(m, n)))
    return tuple(forms)


def ref_det_polynomial(forms, n):
    """det of sum_b x_b forms[b] over Fractions: Laplace expansion along the
    rows, memoized on the set of columns still free."""
    d = len(forms)
    entry = [[{} for _ in range(n)] for _ in range(n)]
    for b, f in enumerate(forms):
        e = tuple(int(i == b) for i in range(d))
        for i, row in enumerate(f.matrix.rows):
            for j, x in enumerate(row):
                if x:
                    entry[i][j][e] = x
    dp = {0: {(0,) * d: Q(1)}}
    for mask in range(1, 1 << n):
        k = bin(mask).count("1") - 1
        acc = {}
        for pos, j in enumerate(c for c in range(n) if mask >> c & 1):
            sign, sub = (-1) ** (k + pos), dp[mask ^ (1 << j)]
            for e1, c1 in entry[k][j].items():
                for e2, c2 in sub.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    acc[e] = acc.get(e, Q(0)) + sign * c1 * c2
        dp[mask] = {e: c for e, c in acc.items() if c}
    return dp[(1 << n) - 1]


def check_form_solve(g):
    space = invariant_form_space(g)
    forms = ref_invariant_basis(g)
    assert space.basis == forms
    if g.dim <= 5 and space.dim <= RunConfig().symbolic_max_formspace_dim:
        # the Fraction expansion is slow on the dim-6 changed-basis algebras
        ref = ref_det_polynomial(forms, g.dim)
        poly = _det_polynomial(space)
        assert poly == {e: c * space.scale ** g.dim for e, c in ref.items()}
        assert bool(poly) == bool(ref)


@SETTINGS
@given(algebras)
def test_form_solve_matches_fraction_reference(g):
    check_form_solve(g)


def test_form_solve_with_basis_denominator_matches_fraction_reference():
    g = build_nilradical("G2", (1,)).algebra
    assert invariant_form_space(g).scale > 1
    check_form_solve(g)


def reference_witness(space, config):
    """The witness loop over combine and det: (trials, normalized witness) or None."""
    for t in range(config.mc_trials):
        candidate = space.combine(trial_point(config.seed, t, space.dim, config.mc_range))
        if det(candidate.matrix) != 0:
            return t + 1, normalize_witness(candidate)
    return None


def test_decide_nondegenerate_matches_reference_loop():
    spaces = {
        "abelian(2)": invariant_form_space(abelian(2)),
        "abelian(3)": invariant_form_space(abelian(3)),
        "h3": invariant_form_space(heisenberg()),
        "n(3,2)": invariant_form_space(free_nilpotent(3, 2)),
        "K3": invariant_form_space(build_algebra(triangle()).algebra),
        **{k: v for k, v in pencil_spaces().items() if k in ("G2:g1", "hand-built")},
    }
    counts = set()
    for name, space in spaces.items():
        for seed in range(6):
            for mc_range in (2, 3, 65536):
                config = RunConfig(seed=seed, mc_trials=4, mc_range=mc_range, symbolic_max_dim=0)
                verdict = decide_nondegenerate(space, config)
                ref = reference_witness(space, config)
                if ref is None:
                    assert verdict.kind != "admits", (name, seed, mc_range)
                    continue
                trials, witness = ref
                assert verdict.kind == "admits", (name, seed, mc_range)
                assert verdict.trials == trials
                assert verdict.witness.matrix == witness.matrix
                counts.add(trials)
    assert len(counts) > 1  # some witnesses were not found on the first trial
