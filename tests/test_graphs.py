import pytest

from quadlie.graphs import (
    Graph,
    GraphError,
    build_algebra,
    centralizer_lemma_check,
    classify_graph,
    complete,
    cycle,
    disjoint_union,
    parse_graph,
    parse_graph_text,
    path,
    triangle,
)
from quadlie.hall import free_nilpotent
from quadlie.liealg import centralizer, direct_sum, permute_basis
from quadlie.linalg import Subspace
from quadlie.obstructions import (
    Decomposition,
    heisenberg_reiter_obstruction,
    theta_ideal,
)


def test_parse_edge_list_path():
    g = parse_graph("a b\nb c\n")
    assert g.vertices == ("a", "b", "c")
    assert g.edges == ((0, 1), (1, 2))


def test_parse_json_cycle():
    text = '{"vertices": ["v1", "v2", "v3"], "edges": [["v1","v2"],["v2","v3"],["v3","v1"]]}'
    g = parse_graph(text)
    assert len(g.edges) == 3
    assert classify_graph(g).admits


def test_parse_rejects_loops_and_duplicates():
    with pytest.raises(GraphError):
        parse_graph("a a\n")
    with pytest.raises(GraphError):
        parse_graph("a b\nb a\n")
    with pytest.raises(GraphError):
        parse_graph_text("vertex\n")
    with pytest.raises(GraphError):
        parse_graph('{"vertices": ["a"], "edges": [["a","b"]]}')


def test_parse_isolated_vertices():
    g = parse_graph("vertex z\na b\n")
    assert g.vertices == ("z", "a", "b")
    assert g.isolated == (0,)


def test_build_algebra_k2_is_heisenberg():
    ga = build_algebra(parse_graph("a b\n"))
    assert ga.algebra.dim == 3
    assert ga.algebra.brackets == free_nilpotent(2, 2).brackets


def test_build_algebra_triangle_matches_free_three_two():
    ga = build_algebra(triangle())
    free = free_nilpotent(3, 2)
    assert ga.algebra.dim == 6
    assert ga.algebra.center().dim == 3
    assert ga.algebra.brackets == free.brackets


def test_build_algebra_c4_dims():
    ga = build_algebra(cycle(4))
    assert ga.algebra.dim == 8
    assert ga.algebra.center().dim == 4


def test_graph_dim_identities():
    for g in (path(3), cycle(4), complete(4), disjoint_union([triangle(), path(2)])):
        ga = build_algebra(g)
        assert ga.algebra.dim == len(g.vertices) + len(g.edges)
        assert ga.algebra.commutator_subspace().dim == len(g.edges)
        assert ga.algebra.center().dim == len(g.isolated) + len(g.edges)


def test_union_algebra_equals_direct_sum_under_canonical_order():
    parts = [triangle(), path(2)]
    union = disjoint_union(parts)
    ga = build_algebra(union)
    summed = direct_sum([build_algebra(p).algebra for p in parts])
    assert ga.algebra.dim == summed.dim
    # rearrange the block order (v1 e1 v2 e2) into vertices-then-edges
    order = [0, 1, 2, 6, 7, 3, 4, 5, 8]
    rearranged = permute_basis(summed, order)
    assert ga.algebra.brackets == rearranged.brackets


def test_centralizer_lemma_triangle():
    ga = build_algebra(triangle())
    for v in ga.graph.vertices:
        rep = centralizer_lemma_check(ga, v)
        assert rep.centralizer_matches
        assert rep.in_3cycle
        assert rep.covering is None and rep.bracket_identity is None


def test_centralizer_lemma_path_end_vertex():
    ga = build_algebra(path(3))
    rep = centralizer_lemma_check(ga, "v1")
    assert rep.ok
    assert not rep.in_3cycle
    assert rep.covering and rep.bracket_identity


def test_centralizer_lemma_isolated_vertex():
    ga = build_algebra(parse_graph("vertex z\na b\n"))
    rep = centralizer_lemma_check(ga, "z")
    assert rep.ok
    zv = centralizer(ga.algebra, ga.vertex_space([0]))
    assert zv == Subspace.full(ga.algebra.dim)


def test_centralizer_matches_lemma_formula_degree_two():
    # path v1-v2-v3, middle vertex: z(v2) = z + span(V minus N(v2))
    ga = build_algebra(path(3))
    g = ga.algebra
    zv = centralizer(g, ga.vertex_space([1]))
    expected = Subspace.spanned_by(
        g.dim,
        [g.basis_vector(3), g.basis_vector(4), g.basis_vector(ga.vertex_basis[1])],
    )
    assert zv == expected


def test_classify_graphs():
    c = classify_graph(disjoint_union([triangle(), triangle(), Graph.build(["z"], [])]))
    assert c.admits and c.triangles == 2 and c.isolated == 1

    c4 = classify_graph(cycle(4))
    assert not c4.admits
    assert "3-cycle" in c4.reason

    p3 = classify_graph(path(3))
    assert not p3.admits
    assert "edge count 2 != 3" in p3.reason


def test_c4_theta_via_bipartition_and_heisenberg_reiter():
    ga = build_algebra(cycle(4))
    g = ga.algebra
    even, odd = (0, 2), (1, 3)
    v1 = ga.vertex_space(even)
    v2 = ga.vertex_space(odd)
    theta = theta_ideal(g, Decomposition((v1, v2), "bipartition classes"))
    assert not theta.is_zero()
    cert = heisenberg_reiter_obstruction(g, v1, v2)
    assert cert.verify(g)
