import json
import random

import pytest
from test_admits_corpus import CASES as ADMITS_CORPUS
from test_integer_paths import change_basis

from quadlie.config import RunConfig
from quadlie.graphs import Graph, build_algebra, cycle, disjoint_union, triangle
from quadlie.hall import free_nilpotent
from quadlie.liealg import abelian, heisenberg, permute_basis
from quadlie.parabolic import build_nilradical
from quadlie.scans import _graph_registered_splits
from quadlie.verdicts import build_report, certificate_payload, decide, reverify_report


def report_for(g, config=None, **kw):
    config = config or RunConfig()
    result = decide(g, config, **kw)
    return build_report(result, config, {"kind": "test"}), result


def test_ladder_prefers_obstruction():
    result = decide(heisenberg(), RunConfig())
    assert result.kind == "refuted_obstruction"
    assert result.obstruction.kind == "dim_series"
    assert result.solver is None  # auto mode stops at the certificate


def test_ladder_solver_always_cross_checks():
    result = decide(heisenberg(), RunConfig(), solver="always")
    assert result.obstruction is not None
    assert result.solver is not None
    assert not result.solver.admits


def test_ladder_admits_free_three_two():
    result = decide(free_nilpotent(3, 2), RunConfig())
    assert result.kind == "admits"
    assert result.solver.trials is not None


def test_ladder_obstructions_only_gives_undecided_without_certificate():
    result = decide(abelian(3), RunConfig(), solver="never")
    assert result.kind == "undecided"
    assert not result.decided


def test_ladder_respects_dim_cap():
    result = decide(abelian(4), RunConfig(solver_dim_cap=3))
    assert result.kind == "undecided"


def test_report_round_trip_and_reverify_admits():
    report, result = report_for(free_nilpotent(3, 2))
    blob = json.dumps(report, sort_keys=True)
    ok, details = reverify_report(json.loads(blob))
    assert ok, details
    assert report["verdict"]["kind"] == "admits"
    assert report["verdict"]["certificate"]["signature"] == [3, 3, 0]


def test_reverify_dim_series():
    report, _ = report_for(heisenberg())
    ok, details = reverify_report(report)
    assert ok, details


def test_reverify_theta():
    report, result = report_for(free_nilpotent(2, 3))
    # n_{2,3} admits, so force a theta case instead: the 4-cycle graph algebra
    ga = build_algebra(cycle(4))
    cfg = RunConfig()
    result = decide(ga.algebra, cfg, hr_pairs=_graph_registered_splits(ga))
    assert result.obstruction is not None
    report = build_report(result, cfg, {"kind": "test"})
    ok, details = reverify_report(report)
    assert ok, details


def test_reverify_monte_carlo():
    cfg = RunConfig(symbolic_max_dim=0, mc_trials=6)
    result = decide(heisenberg(), cfg, solver="always")
    assert result.solver.kind == "refuted_monte_carlo"
    # drop the obstruction so the Monte Carlo branch drives the report
    from quadlie.verdicts import AnalysisResult

    stripped = AnalysisResult(
        result.algebra,
        result.lower_dims,
        result.upper_dims,
        result.nilpotency_class,
        None,
        result.solver,
    )
    report = build_report(stripped, cfg, {"kind": "test"})
    assert report["verdict"]["kind"] == "refuted_monte_carlo"
    ok, details = reverify_report(report)
    assert ok, details


def test_reverify_symbolic():
    cfg = RunConfig()
    from quadlie.forms import decide_nondegenerate, invariant_form_space
    from quadlie.verdicts import AnalysisResult
    from quadlie.liealg import lower_central_series

    g = heisenberg()
    verdict = decide_nondegenerate(invariant_form_space(g), cfg)
    rep = lower_central_series(g)
    result = AnalysisResult(
        g, rep.descending_dims, rep.ascending_dims, 2, None, verdict
    )
    report = build_report(result, cfg, {"kind": "test"})
    assert report["verdict"]["kind"] == "refuted_symbolic"
    ok, details = reverify_report(report)
    assert ok, details


def test_reverify_detects_tampered_witness():
    # degenerate tamper: zero witness fails the determinant check
    report, _ = report_for(free_nilpotent(3, 2))
    n = report["algebra"]["dim"]
    report["verdict"]["certificate"]["witness"] = [["0"] * n for _ in range(n)]
    ok, details = reverify_report(report)
    assert not ok and "verification" in details

    # invariance-breaking tamper: perturb a generator/commutator pairing entry
    report2, _ = report_for(free_nilpotent(3, 2))
    w = report2["verdict"]["certificate"]["witness"]
    w[0][3] = w[3][0] = "17"
    assert not reverify_report(report2)[0]

    # asymmetric tamper is malformed and must be rejected, not crash
    report3, _ = report_for(free_nilpotent(3, 2))
    report3["verdict"]["certificate"]["witness"][0][5] = "17"
    ok3, details3 = reverify_report(report3)
    assert not ok3 and "malformed" in details3


def test_reverify_detects_tampered_theta():
    ga = build_algebra(cycle(4))
    cfg = RunConfig()
    result = decide(ga.algebra, cfg, hr_pairs=[])
    report = build_report(result, cfg, {"kind": "test"})
    assert report["verdict"]["certificate"]["kind"] == "theta"
    report["verdict"]["certificate"]["witness_vector"] = ["0"] * ga.algebra.dim
    ok, _ = reverify_report(report)
    assert not ok


def test_zero_dimensional_algebra_trivially_admits():
    result = decide(abelian(0), RunConfig())
    assert result.kind == "admits"
    report = build_report(result, RunConfig(), {"kind": "test"})
    ok, _ = reverify_report(report)
    assert ok


def test_byte_identical_reports():
    cfg = RunConfig()
    a = json.dumps(report_for(free_nilpotent(3, 2), cfg)[0], sort_keys=True)
    b = json.dumps(report_for(free_nilpotent(3, 2), cfg)[0], sort_keys=True)
    assert a == b


# ------------------------------------------------- basis permutations

PAW = Graph.build("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
PERMUTED_CASES = [
    ("C4", build_algebra(cycle(4)).algebra),
    ("C6", build_algebra(cycle(6)).algebra),
    ("paw", build_algebra(PAW).algebra),
    ("C4+K3", build_algebra(disjoint_union([cycle(4), triangle()])).algebra),
    ("B3:g2", build_nilradical("B3", [2]).algebra),
    ("C3:g1", build_nilradical("C3", [1]).algebra),
    ("G2:g2", build_nilradical("G2", [2]).algebra),
] + [(name, g) for name, g, _ in ADMITS_CORPUS if name.startswith("T*")]


def ladder_invariants(g):
    result = decide(g, RunConfig())
    ok, details = reverify_report(build_report(result, RunConfig(), {"kind": "test"}))
    assert ok, details
    return (
        result.kind,
        certificate_payload(result)["kind"],
        result.nilpotency_class,
        result.lower_dims,
        result.upper_dims,
    )


@pytest.mark.parametrize("name, g", PERMUTED_CASES, ids=[c[0] for c in PERMUTED_CASES])
def test_permuted_basis_keeps_verdict_certificate_and_series(name, g):
    """Renumbering the basis changes no verdict, certificate kind or series.

    The central series terms of these algebras are coordinate subspaces, so
    the permuted algebra meets them with its coordinates out of order.
    """
    order = list(range(g.dim))
    random.Random(f"permute:{name}").shuffle(order)
    assert ladder_invariants(permute_basis(g, order)) == ladder_invariants(g)


# ------------------------------------------- unimodular changes of basis


def unimodular_change(g, seed):
    """g in a seeded integer unitriangular basis (`change_basis`): det P = 1,
    so P^-1 is integral too."""
    rng = random.Random(seed)
    n = g.dim
    upper = [[int(a == b) if a >= b else rng.randint(-2, 2) for b in range(n)] for a in range(n)]
    lower = [[int(a == b) if a <= b else rng.randint(-2, 2) for b in range(n)] for a in range(n)]
    return change_basis(g, upper, lower)


CHANGED_BASIS_CASES = [
    c for c in PERMUTED_CASES if c[0] in ("C4", "paw", "B3:g2", "C3:g1", "G2:g2", "T*h3", "T*n(2,3)")
]


@pytest.mark.parametrize(
    "name, g", CHANGED_BASIS_CASES, ids=[c[0] for c in CHANGED_BASIS_CASES]
)
def test_unimodular_change_of_basis_keeps_verdict_and_series(name, g):
    """A unimodular change of basis keeps the verdict, the nilpotency class
    and both series' dimensions, and the new report re-verifies.

    Unlike a permutation, it moves the series terms off the coordinate axes,
    so every span, intersection and kernel on the way goes through the
    elimination. Certificate kinds may differ: the isotropic splits and the
    theta decompositions are searched along the basis (C4 is refuted by a
    theta decomposition, its changed basis by Monte Carlo trials).
    """
    h = unimodular_change(g, f"unimodular:{name}")
    # C^1(h) is off the coordinate axes: some canonical row has two entries
    assert any(sum(1 for x in row if x) > 1 for row in h.commutator_subspace().ints)
    got, want = decide(h, RunConfig()), decide(g, RunConfig())
    ok, details = reverify_report(build_report(got, RunConfig(), {"kind": "test"}))
    assert ok, details
    assert got.decided and want.decided
    assert (got.admits, got.nilpotency_class, got.lower_dims, got.upper_dims) == (
        want.admits,
        want.nilpotency_class,
        want.lower_dims,
        want.upper_dims,
    )
