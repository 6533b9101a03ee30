"""Known-answer admits corpus: algebras built together with an invariant metric.

- T*-extensions h + h* with the canonical pairing B(x + a, y + b) = a(y) + b(x)
  (Bordemann, Acta Math. Univ. Comenianae 66, 1997). h* is the coadjoint
  module: [e_i, f^k] = -sum_j c_ij^k f^j when [e_i, e_j] = sum_k c_ij^k e_k.
  h runs over h3, n(3,2), n(2,3) and the 27 connected graph algebras on 4-5
  vertices, so the dims run from 6 to 30.
- Double extensions (Medina-Revoy, Ann. Sci. ENS 18, 1985) of an abelian
  quadratic space (W, B_W) by a nilpotent skew map D: R e + W + R e*, with
  [e, x] = Dx, [x, y] = B_W(Dx, y) e* and B(e, e*) = 1.

Each defining metric must pass `verify_form`, each algebra must decide
`admits`, and `verify` must accept each report.
"""

import time

import pytest

from quadlie.config import RunConfig
from quadlie.forms import SymForm, verify_form
from quadlie.graphs import build_algebra
from quadlie.hall import free_nilpotent
from quadlie.liealg import LieAlgebra, heisenberg, nilpotency_class
from quadlie.linalg import Matrix
from quadlie.scans import connected_graphs_upto
from quadlie.verdicts import build_report, decide, reverify_report

CONFIG = RunConfig()


def t_star(h: LieAlgebra) -> tuple[LieAlgebra, Matrix]:
    """h + h* (e_i first, then f^i) and its canonical pairing."""
    n = h.dim
    brackets = {pair: dict(terms) for pair, terms in h.brackets.items()}
    for i in range(n):
        for j in range(n):
            for k, c in h.bracket_basis(i, j).items():
                coadjoint = brackets.setdefault((i, n + k), {})
                coadjoint[n + j] = coadjoint.get(n + j, 0) - c
    pairing = [[int(abs(r - c) == n) for c in range(2 * n)] for r in range(2 * n)]
    return LieAlgebra(2 * n, brackets), Matrix.from_rows(pairing)


def double_extension(m: int) -> tuple[LieAlgebra, Matrix]:
    """Double extension of Q^m (m odd) by the shift D w_i = w_(i+1).

    B_W(w_i, w_j) = (-1)^(i+1) when i + j = m + 1 (1-based) makes D skew.
    Basis e, w_1..w_m, e*; the algebra is nilpotent of class m.
    """
    sign = [(-1) ** i for i in range(m)]  # 0-based: B_W(w_i, w_(m-1-i)) = sign[i]
    star = m + 1
    brackets = {(0, i + 1): {i + 2: 1} for i in range(m - 1)}
    for i in range(m):
        for j in range(i + 1, m):
            if i + 1 + j == m - 1:  # B_W(D w_i, w_j) = B_W(w_(i+1), w_j)
                brackets[(i + 1, j + 1)] = {star: sign[i + 1]}
    form = [[0] * (m + 2) for _ in range(m + 2)]
    form[0][star] = form[star][0] = 1
    for i in range(m):
        form[i + 1][m - i] = sign[i]
    return LieAlgebra(m + 2, brackets), Matrix.from_rows(form)


def corpus():
    cases = [("T*h3", *t_star(heisenberg()))]
    cases += [(f"T*n({p},{k})", *t_star(free_nilpotent(p, k))) for p, k in ((3, 2), (2, 3))]
    graphs = [g for g in connected_graphs_upto(5) if len(g.vertices) >= 4]
    cases += [
        (f"T*graph{i}", *t_star(build_algebra(graph).algebra)) for i, graph in enumerate(graphs)
    ]
    cases += [(f"D{m}", *double_extension(m)) for m in (3, 5)]
    return cases


CASES = corpus()


def test_corpus_shape():
    t_stars = [name for name, _, _ in CASES if name.startswith("T*")]
    assert len(t_stars) == 30
    assert min(g.dim for _, g, _ in CASES) == 5
    assert max(g.dim for _, g, _ in CASES) == 30
    d5 = next(g for name, g, _ in CASES if name == "D5")
    assert (d5.dim, nilpotency_class(d5)) == (7, 5)


@pytest.mark.parametrize("name, g, metric", CASES, ids=[c[0] for c in CASES])
def test_defining_metric_is_invariant_and_nondegenerate(name, g, metric):
    assert verify_form(g, SymForm(metric)).ok


def test_corpus_decides_admits_and_reverifies():
    start = time.process_time()
    results = [(name, decide(g, CONFIG)) for name, g, _ in CASES]
    elapsed = time.process_time() - start
    for name, result in results:
        assert result.kind == "admits", name
        ok, details = reverify_report(build_report(result, CONFIG, {"case": name}))
        assert ok, (name, details)
    assert elapsed <= 5.0, f"corpus took {elapsed:.1f} s to decide"

