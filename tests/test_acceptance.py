"""Acceptance suite: the nine verification criteria, one test each.

Each test prints one [PASS]/[FAIL] line (run with -s to stream them). The
scans are shared module-scoped fixtures so the corpus is built once.

Note on criterion 3: the pinned table value for the E6 mark g5 is provably
inconsistent (the diagram automorphism swapping nodes 3 and 5 forces the g3
and g5 top layers to have equal dimension, and enumeration gives 5 for both).
The test asserts the pinned table as stated and therefore fails loudly on
that entry; this is intentional, not a regression. All other criteria pass.
"""

import random
import time

import pytest

from quadlie.config import RunConfig
from quadlie.forms import check_orthogonality_relations, verify_form
from quadlie.hall import free_nilpotent
from quadlie.liealg import LieAlgebra, relative_series, validate
from quadlie.linalg import Subspace
from quadlie.parabolic import build_nilradical, decompose_root
from quadlie.roots import build, matrix_constants_agree
from quadlie.scans import scan_graphs, scan_parabolics
from quadlie.verdicts import build_report, decide, reverify_report

CONFIG = RunConfig()

GRAPH_MAX_VERTICES = 6
UNION_VERTICES = 8
UNION_SAMPLES = 500

PARABOLIC_TYPES = ["A", "B", "C", "D", "G2", "F4", "E6"]
PARABOLIC_MAX_RANK = 5
PARABOLIC_PAIR_RANK = 4


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


@pytest.fixture(scope="module")
def graph_scan():
    start = time.perf_counter()
    records = scan_graphs(GRAPH_MAX_VERTICES, UNION_VERTICES, UNION_SAMPLES, CONFIG)
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def parabolic_scan():
    start = time.perf_counter()
    records = scan_parabolics(
        PARABOLIC_TYPES, PARABOLIC_MAX_RANK, PARABOLIC_PAIR_RANK, CONFIG
    )
    return records, time.perf_counter() - start


def test_criterion_1_graph_classification_oracle_equivalence(graph_scan):
    records, elapsed = graph_scan
    six_vertex_connected = [
        r for r in records if r.vertices == 6 and len(r.graph.connected_components()) == 1
    ]
    connected = [r for r in records if len(r.graph.connected_components()) == 1]
    unions = [r for r in records if len(r.graph.connected_components()) >= 2]
    disagreements = [r.name for r in records if not r.agree]
    ok = (
        len(six_vertex_connected) == 112
        and len(connected) == 143
        and len(unions) >= 500
        and not disagreements
    )
    _report(
        1,
        ok,
        f"{len(records)} graph cases ({len(connected)} connected <=6 incl. "
        f"{len(six_vertex_connected)} on 6 vertices, {len(unions)} unions), "
        f"100% solver/classification agreement, {elapsed:.1f}s",
    )
    assert len(six_vertex_connected) == 112
    assert len(connected) == 143
    assert len(unions) >= 500
    assert not disagreements, f"disagreements: {disagreements[:5]}"


def test_criterion_2_free_nilpotent_benchmarks():
    admits_cases = [(3, 2), (2, 3)]
    refuted_cases = [(2, 2), (4, 2), (5, 2)]
    details = []
    for p, k in admits_cases:
        g = free_nilpotent(p, k)
        result = decide(g, CONFIG)
        assert result.kind == "admits", (p, k)
        check = verify_form(g, result.solver.witness)
        assert check.ok, (p, k)
        report = build_report(result, CONFIG, {"case": f"n({p},{k})"})
        ok, msg = reverify_report(report)
        assert ok, ((p, k), msg)
        details.append(f"n({p},{k}) admits (witness re-verified)")
    for p, k in refuted_cases:
        g = free_nilpotent(p, k)
        result = decide(g, CONFIG)
        assert result.kind == "refuted_obstruction", (p, k)
        assert result.obstruction.verify(g), (p, k)
        details.append(f"n({p},{k}) refuted ({result.obstruction.kind})")
    _report(2, True, "; ".join(details))


def test_criterion_3_e6_dimension_table():
    stated = {2: 1, 4: 2, 3: 5, 5: 4}
    computed = {
        l: build_nilradical("E6", [l]).grading_dims[-1] for l in sorted(stated)
    }
    mismatches = {l: (stated[l], computed[l]) for l in stated if stated[l] != computed[l]}
    ok = not mismatches
    _report(
        3,
        ok,
        f"top-layer dims computed {computed} vs pinned {dict(sorted(stated.items()))}"
        + ("" if ok else f"; mismatch at {sorted(mismatches)}"),
    )
    assert ok, (
        f"pinned table disagrees with exact enumeration at marks {mismatches} "
        "(stated, computed). The pinned value cannot be attained: the E6 diagram "
        "automorphism exchanging nodes 3 and 5 maps the positive system to itself "
        "and fixes the highest root, so the g3 and g5 top layers have equal "
        "dimension, and enumeration (independently cross-checked by the positive "
        "root count, the highest-root pairing and the matrix oracle) gives 5."
    )


def test_criterion_4_parabolic_scan_matches_classification(parabolic_scan):
    records, elapsed = parabolic_scan
    disagreements = [r.name for r in records if not r.agree]
    singles = [r for r in records if "," not in r.name]
    pairs = [r for r in records if "," in r.name]
    admits = {r.name for r in records if r.verdict == "admits"}
    expected_special = {"B3:g3", "G2:g1"}
    special_ok = expected_special <= admits
    nonabelian_admits = {
        r.name for r in records if r.verdict == "admits" and r.prediction not in ("abelian",)
    }
    pair_ok = all(r.verdict.startswith("refuted") for r in pairs)
    ok = not disagreements and special_ok and nonabelian_admits == expected_special and pair_ok
    _report(
        4,
        ok,
        f"{len(singles)} single-mark + {len(pairs)} two-mark cases, "
        f"{len(admits)} admit (non-abelian: {sorted(nonabelian_admits)}), {elapsed:.1f}s",
    )
    assert not disagreements, f"disagreements: {disagreements[:5]}"
    assert special_ok and nonabelian_admits == expected_special
    assert pair_ok


def test_criterion_5_top_layer_decomposition_certificates():
    cases = []
    for family, lo in (("A", 2), ("B", 2), ("C", 3), ("D", 4)):
        for rank in range(lo, 5):
            for i in range(1, rank + 1):
                for j in range(i + 1, rank + 1):
                    cases.append((f"{family}{rank}", (i, j)))
    total = 0
    for type_string, pi0 in cases:
        pn = build_nilradical(type_string, pi0)
        for gamma in pn.top_layer_roots():
            for alpha in pi0:
                cert = decompose_root(pn, gamma, alpha)
                assert cert.verify(pn), (type_string, pi0, gamma, alpha)
                assert 1 <= cert.t <= gamma[alpha - 1]
                total += 1
    _report(
        5,
        True,
        f"{total} decomposition certificates across {len(cases)} two-mark cases, all re-verified",
    )


def _random_subspace(rng: random.Random, dim: int) -> Subspace:
    k = rng.randint(1, dim)
    vecs = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(k)]
    return Subspace.spanned_by(dim, vecs)


def test_criterion_6_orthogonality_for_every_witness(graph_scan, parabolic_scan):
    graph_records, _ = graph_scan
    parabolic_records, _ = parabolic_scan
    witnessed = []
    for r in graph_records + parabolic_records:
        result = r.result
        if result.kind == "admits":
            witnessed.append((r.name, result.algebra, result.solver.witness))
    assert witnessed
    checked = 0
    for name, g, witness in witnessed:
        rep = check_orthogonality_relations(g, witness, g.full_space())
        assert rep.ok, name
        rng = random.Random(f"{CONFIG.seed}:orth:{name}")
        for _ in range(20):
            v = _random_subspace(rng, g.dim)
            rep = check_orthogonality_relations(g, witness, v)
            assert rep.ok, (name, v)
            checked += 1
    _report(
        6,
        True,
        f"{len(witnessed)} witnessed algebras x (full space + 20 random subspaces); "
        f"{checked} random-subspace checks, all exact equalities",
    )


def test_criterion_7_eight_dimensional_counterexample():
    g = LieAlgebra(
        8, {(0, 1): {6: 1}, (1, 2): {7: 1}, (2, 3): {4: 1}, (0, 3): {5: 1}}
    )
    v = Subspace.spanned_by(8, [g.basis_vector(0), g.basis_vector(1)])
    rep = relative_series(g, v)
    partial = rep.descending[1].dim + rep.ascending[1].dim
    full = relative_series(g, g.full_space())
    full_sum = full.descending[1].dim + full.ascending[1].dim
    ok = partial == 7 and full_sum == 8
    _report(
        7,
        ok,
        f"dim C^1(V) + dim C_1(V) = {rep.descending[1].dim} + {rep.ascending[1].dim} = {partial} != 8; "
        f"for V = g the identity holds ({full_sum} = 8)",
    )
    assert rep.descending[1].dim == 3
    assert rep.ascending[1].dim == 4
    assert partial == 7
    assert full_sum == 8


def test_criterion_8_soundness_across_corpus(graph_scan, parabolic_scan):
    graph_records, _ = graph_scan
    parabolic_records, _ = parabolic_scan
    offenders = []
    solver_ran = 0
    for r in graph_records + parabolic_records:
        result = r.result
        if result.solver is not None:
            solver_ran += 1
        if result.obstruction is not None and result.solver is not None:
            if result.solver.admits:
                offenders.append(r.name)
        if result.obstruction is not None:
            assert result.obstruction.verify(result.algebra), r.name
    ok = not offenders
    _report(
        8,
        ok,
        f"{len(graph_records) + len(parabolic_records)} corpus cases, solver cross-ran on "
        f"{solver_ran}; no algebra holds both an obstruction certificate and a witness",
    )
    assert not offenders, offenders


def test_criterion_9_root_system_goldens(parabolic_scan):
    counts = {
        "A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15,
        "B2": 4, "B3": 9, "B4": 16, "B5": 25,
        "C3": 9, "C4": 16, "C5": 25,
        "D4": 12, "D5": 20,
        "E6": 36, "E7": 63, "E8": 120,
        "F4": 24, "G2": 6,
    }
    gamma_max = {
        "A5": (1, 1, 1, 1, 1),
        "B5": (1, 2, 2, 2, 2),
        "C5": (2, 2, 2, 2, 1),
        "D5": (1, 2, 2, 1, 1),
        "E6": (1, 2, 2, 3, 2, 1),
        "E7": (2, 2, 3, 4, 3, 2, 1),
        "E8": (2, 3, 4, 6, 5, 4, 3, 2),
        "F4": (2, 3, 4, 2),
        "G2": (3, 2),
    }
    for name, count in counts.items():
        rs = build(name)
        assert len(rs.positive) == count, name
    for name, coords in gamma_max.items():
        assert build(name).gamma_max == coords, name

    # Jacobi on every constructed nilradical of the scan (validate re-runs it)
    records, _ = parabolic_scan
    for r in records:
        assert validate(r.nilradical.algebra) is None, r.name
    # plus the full positive parts of the scanned families
    for name in ("A3", "B3", "C3", "D4", "G2", "F4", "E6"):
        build_nilradical(name, range(1, build(name).rank + 1))

    # classical-type matrix realization cross-check
    classical = ["A3", "A4", "B3", "B4", "B5", "C3", "C4", "C5", "D4", "D5"]
    for name in classical:
        assert matrix_constants_agree(build(name)), name

    _report(
        9,
        True,
        f"{len(counts)} positive-root counts, {len(gamma_max)} highest-root coordinate "
        f"vectors, Jacobi on {len(records)} nilradicals + 7 full positive parts, "
        f"matrix oracle agreement on {len(classical)} classical types",
    )
