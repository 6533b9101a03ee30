"""Simple graphs and their 2-step nilpotent Lie algebras.

A graph G = (V, E) yields the algebra on basis V + E with [v, w] = (vw) when
vw is an edge and zero otherwise; edge vectors are central. Canonical basis
order: vertices in input order, then edges sorted by their (index, index)
pair, which makes the algebra of a disjoint union literally block-diagonal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .liealg import LieAlgebra, bracket_space, centralizer
from .linalg import Subspace, span_sum


class GraphError(ValueError):
    """Malformed graph input (loops, duplicate edges, unknown labels)."""


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def build(cls, vertices, edge_pairs) -> "Graph":
        verts = [str(v) for v in vertices]
        if len(set(verts)) != len(verts):
            raise GraphError("duplicate vertex labels")
        index = {v: i for i, v in enumerate(verts)}
        edges = set()
        for pair in edge_pairs:
            u, w = (str(x) for x in pair)
            if u not in index or w not in index:
                raise GraphError(f"edge ({u},{w}) references an undeclared vertex")
            if u == w:
                raise GraphError(f"loop at vertex {u}")
            e = (min(index[u], index[w]), max(index[u], index[w]))
            if e in edges:
                raise GraphError(f"duplicate edge ({u},{w})")
            edges.add(e)
        return cls(tuple(verts), tuple(sorted(edges)))

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        neigh = [set() for _ in self.vertices]
        for i, j in self.edges:
            neigh[i].add(j)
            neigh[j].add(i)
        return tuple(frozenset(s) for s in neigh)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def isolated(self) -> tuple[int, ...]:
        return tuple(v for v in range(len(self.vertices)) if self.degree(v) == 0)

    @property
    def supported(self) -> tuple[int, ...]:
        """V1: vertices of degree >= 1."""
        return tuple(v for v in range(len(self.vertices)) if self.degree(v) >= 1)

    def connected_components(self) -> list[tuple[int, ...]]:
        seen = set()
        comps = []
        for start in range(len(self.vertices)):
            if start in seen:
                continue
            stack = [start]
            comp = []
            seen.add(start)
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self.adjacency[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return comps

    def in_3cycle(self, v: int) -> bool:
        neigh = self.adjacency[v]
        return any(
            b in self.adjacency[a] for a in neigh for b in neigh if a < b
        )

    def is_bipartite(self) -> tuple[bool, tuple[int, ...], tuple[int, ...]]:
        color: dict[int, int] = {}
        for start in range(len(self.vertices)):
            if start in color:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                v = stack.pop()
                for w in self.adjacency[v]:
                    if w not in color:
                        color[w] = 1 - color[v]
                        stack.append(w)
                    elif color[w] == color[v]:
                        return False, (), ()
        a = tuple(v for v in range(len(self.vertices)) if color[v] == 0)
        b = tuple(v for v in range(len(self.vertices)) if color[v] == 1)
        return True, a, b


def parse_graph_text(text: str) -> Graph:
    vertices: list[str] = []
    seen = set()
    edge_pairs = []

    def declare(v: str):
        if v not in seen:
            seen.add(v)
            vertices.append(v)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise GraphError(f"line {lineno}: vertex declaration needs one label")
            declare(parts[1])
        elif len(parts) == 2:
            declare(parts[0])
            declare(parts[1])
            edge_pairs.append((parts[0], parts[1]))
        else:
            raise GraphError(f"line {lineno}: expected 'u v' or 'vertex u'")
    return Graph.build(vertices, edge_pairs)


def parse_graph_json(obj) -> Graph:
    if not isinstance(obj, dict) or "edges" not in obj:
        raise GraphError("graph JSON needs an 'edges' list")
    if "vertices" in obj:
        vertices = list(obj["vertices"])
    else:
        vertices = []
        seen = set()
        for pair in obj["edges"]:
            for v in pair:
                if v not in seen:
                    seen.add(v)
                    vertices.append(v)
    return Graph.build(vertices, [tuple(p) for p in obj["edges"]])


def parse_graph(text: str) -> Graph:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"invalid graph JSON: {exc}") from exc
        return parse_graph_json(obj)
    return parse_graph_text(text)


@dataclass(frozen=True)
class GraphAlgebra:
    graph: Graph
    algebra: LieAlgebra
    vertex_basis: tuple[int, ...]
    edge_basis: dict[tuple[int, int], int]

    def vertex_space(self, vertices) -> Subspace:
        """Span of the basis vectors of the given vertex indices."""
        return Subspace.coordinate(self.algebra.dim, [self.vertex_basis[v] for v in vertices])

    def vertex_vector(self, v: int):
        return self.vertex_space([v]).rows[0]


def build_algebra(graph: Graph) -> GraphAlgebra:
    """n_G on basis V + E; checks dim |V|+|E|, center V0+E and C^1 = E."""
    nv = len(graph.vertices)
    ne = len(graph.edges)
    dim = nv + ne
    labels = list(graph.vertices)
    edge_basis = {}
    for pos, (i, j) in enumerate(graph.edges):
        edge_basis[(i, j)] = nv + pos
        labels.append(f"{graph.vertices[i]}^{graph.vertices[j]}")
    brackets = {
        (i, j): {edge_basis[(i, j)]: 1} for (i, j) in graph.edges
    }
    algebra = LieAlgebra(dim, brackets, labels)
    ga = GraphAlgebra(graph, algebra, tuple(range(nv)), edge_basis)

    center_expected = Subspace.coordinate(dim, [*graph.isolated, *range(nv, dim)])
    assert algebra.center() == center_expected, "center of n_G must be V0 + edges"
    comm_expected = Subspace.coordinate(dim, range(nv, dim))
    assert algebra.commutator_subspace() == comm_expected, "C^1(n_G) must be the edge span"
    return ga


@dataclass(frozen=True)
class CentralizerLemmaReport:
    vertex: str
    centralizer_matches: bool
    in_3cycle: bool
    covering: bool | None
    bracket_identity: bool | None

    @property
    def ok(self) -> bool:
        checks = [self.centralizer_matches]
        if not self.in_3cycle:
            checks += [bool(self.covering), bool(self.bracket_identity)]
        return all(checks)


def centralizer_lemma_check(ga: GraphAlgebra, vertex) -> CentralizerLemmaReport:
    """z(v) = z + span(V minus N(v)); plus the covering/bracket clause off 3-cycles."""
    graph = ga.graph
    g = ga.algebra
    if isinstance(vertex, str):
        v = graph.vertices.index(vertex)
    else:
        v = int(vertex)
    zv = centralizer(g, ga.vertex_space([v]))
    outside = [w for w in range(len(graph.vertices)) if w not in graph.adjacency[v]]
    matches = zv == span_sum(g.center(), ga.vertex_space(outside))
    in_cycle = graph.in_3cycle(v)
    covering = None
    bracket_identity = None
    if not in_cycle:
        covering = all(i in outside or j in outside for (i, j) in graph.edges)
        bracket_identity = bracket_space(g, zv) == g.commutator_subspace()
    return CentralizerLemmaReport(graph.vertices[v], matches, in_cycle, covering, bracket_identity)


@dataclass(frozen=True)
class GraphClassification:
    admits: bool
    reason: str
    isolated: int = 0
    triangles: int = 0
    offending_vertex: str | None = None

    @property
    def prediction(self) -> str:
        return "admits" if self.admits else "refutes"


def classify_graph(graph: Graph) -> GraphClassification:
    """Admits iff every connected component is a 3-cycle or an isolated vertex."""
    comps = graph.connected_components()
    isolated = 0
    triangles = 0
    other = []
    for comp in comps:
        if len(comp) == 1 and graph.degree(comp[0]) == 0:
            isolated += 1
        elif len(comp) == 3 and all(graph.degree(v) == 2 for v in comp):
            triangles += 1
        else:
            other.append(comp)
    if not other:
        return GraphClassification(
            True,
            f"every component is a 3-cycle ({triangles}) or an isolated vertex ({isolated})",
            isolated,
            triangles,
        )
    v1 = graph.supported
    ne = len(graph.edges)
    if ne != len(v1):
        return GraphClassification(
            False,
            f"edge count {ne} != {len(v1)} supported vertices",
            isolated,
            triangles,
        )
    for v in v1:
        if not graph.in_3cycle(v):
            return GraphClassification(
                False,
                f"vertex {graph.vertices[v]} lies in no 3-cycle",
                isolated,
                triangles,
                offending_vertex=graph.vertices[v],
            )
    return GraphClassification(
        False,
        "a component is neither a 3-cycle nor an isolated vertex",
        isolated,
        triangles,
    )


def disjoint_union(graphs: list[Graph]) -> Graph:
    """Union with label collisions resolved by a per-block prefix."""
    flat = [v for g in graphs for v in g.vertices]
    collide = len(set(flat)) != len(flat)
    vertices = []
    edge_pairs = []
    for bi, g in enumerate(graphs):
        names = [f"c{bi + 1}.{v}" if collide else v for v in g.vertices]
        vertices.extend(names)
        edge_pairs.extend((names[i], names[j]) for (i, j) in g.edges)
    return Graph.build(vertices, edge_pairs)


def triangle() -> Graph:
    return Graph.build(["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3"), ("v3", "v1")])


def path(n: int) -> Graph:
    verts = [f"v{i + 1}" for i in range(n)]
    return Graph.build(verts, [(verts[i], verts[i + 1]) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    verts = [f"v{i + 1}" for i in range(n)]
    return Graph.build(
        verts, [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    )


def complete(n: int) -> Graph:
    verts = [f"v{i + 1}" for i in range(n)]
    return Graph.build(
        verts, [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    )
