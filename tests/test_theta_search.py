"""The theta search tries only the decompositions that can hit first.

`default_decompositions` yields the whole coordinate complement of C^1(g)
and then its coordinate lines. An earlier version went on to every
bipartition of the complement's coordinates. For a part V_A spanned by the
coordinates A, z(V_A) is the intersection of the z(e_c) over c in A, so
Theta of a bipartition lies inside Theta of the lines, and the lines come
first. The tests below check that inclusion on random algebras and keep the
old enumeration as a reference: the search must return the same certificate
at every budget.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from quadlie.graphs import Graph, build_algebra
from quadlie.liealg import LieAlgebra, bracket_space, heisenberg
from quadlie.linalg import Subspace, contains
from quadlie.obstructions import (
    Decomposition,
    ThetaCertificate,
    coordinate_complement,
    default_decompositions,
    theta_ideal,
    theta_search,
)

BUDGETS = (0, 1, 2, 3, 512)


def coordinate_decomposition(g, groups, description):
    parts = tuple(Subspace.spanned_by(g.dim, [g.basis_vector(i) for i in grp]) for grp in groups)
    return Decomposition(parts, bracket_space(g, g.full_space()), description)


def bipartitions(coords):
    """Each unordered split of coords into two nonempty classes, once."""
    m = len(coords)
    for mask in range(1, (1 << m) - 1):
        if mask & 1:  # coords[0] stays in the first class
            a = [coords[i] for i in range(m) if mask & (1 << i)]
            b = [coords[i] for i in range(m) if not mask & (1 << i)]
            yield sorted([a, b])


def reference_decompositions(g, budget):
    """The old enumeration: whole, lines, then bipartitions, without repeats."""
    _, coords = coordinate_complement(g)
    if not coords:
        return
    candidates = [([coords], "complement as a single part")]
    if len(coords) > 1:
        candidates.append(([[c] for c in coords], "complement split into coordinate lines"))
        candidates.extend((groups, f"bipartition {groups}") for groups in bipartitions(coords))
    seen = set()
    for groups, description in candidates:
        key = tuple(map(tuple, groups))
        if key in seen:
            continue
        if len(seen) >= budget:
            return
        seen.add(key)
        yield coordinate_decomposition(g, groups, description)


def reference_theta_search(g, budget):
    for d in reference_decompositions(g, budget):
        theta = theta_ideal(g, d)
        if not theta.is_zero():
            return ThetaCertificate(d, theta, theta.rows[0])
    return None


@st.composite
def two_step_algebras(draw):
    """[x_i, x_j] = sum_k c_ijk y_k with small integer c: always 2-step (or abelian)."""
    p = draw(st.integers(2, 4))
    q = draw(st.integers(1, 3))
    brackets = {}
    for i in range(p):
        for j in range(i + 1, p):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=q, max_size=q))
            brackets[(i, j)] = {p + k: c for k, c in enumerate(coeffs)}
    return LieAlgebra(p + q, brackets)


@st.composite
def graph_algebras(draw):
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = Graph.build(range(n), [e for e, k in zip(pairs, keep) if k])
    return build_algebra(graph).algebra


algebras = st.one_of(two_step_algebras(), graph_algebras())


@settings(max_examples=30)
@given(algebras)
def test_bipartition_theta_lies_inside_lines_theta(g):
    _, coords = coordinate_complement(g)
    if len(coords) < 2:
        return
    lines = theta_ideal(g, coordinate_decomposition(g, [[c] for c in coords], "lines"))
    for groups in bipartitions(coords):
        theta = theta_ideal(g, coordinate_decomposition(g, groups, "bipartition"))
        assert contains(lines, theta)


@settings(max_examples=30)
@given(algebras)
def test_search_matches_the_old_enumeration_at_every_budget(g):
    for budget in BUDGETS:
        assert theta_search(g, budget=budget) == reference_theta_search(g, budget)


def test_only_budgets_zero_one_and_two_differ():
    g = heisenberg()
    counts = {b: len(list(default_decompositions(g, b))) for b in BUDGETS}
    assert counts == {0: 0, 1: 1, 2: 2, 3: 2, 512: 2}
    assert theta_search(g, budget=1) is None
    found = theta_search(g, budget=2)
    assert found.decomposition.description == "complement split into coordinate lines"


def test_reference_enumerates_every_bipartition():
    # guards the reference itself: 2^(m-1) - 1 bipartitions after whole and lines
    g = LieAlgebra(5, {(0, 1): {4: 1}, (2, 3): {4: 1}})
    assert len(coordinate_complement(g)[1]) == 4
    assert len(list(reference_decompositions(g, 512))) == 2 + 7
    assert len(list(reference_decompositions(g, 3))) == 3
