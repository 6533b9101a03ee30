import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quadlie import scans
from quadlie.cli import main
from quadlie.config import RunConfig
from quadlie.hall import free_nilpotent
from quadlie.jsonio import algebra_to_json
from quadlie.liealg import direct_sum, heisenberg


@pytest.fixture()
def h3_file(tmp_path):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(algebra_to_json(heisenberg())))
    return path


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("a b\nb c\nc a\n")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_analyze_heisenberg(capsys, h3_file):
    code, out = run(capsys, "analyze", h3_file, "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["kind"] == "refuted_obstruction"
    assert report["verdict"]["certificate"]["kind"] == "dim_series"
    assert report["verdict"]["certificate"]["j"] == 1


def test_graph_triangle_admits(capsys, triangle_file):
    code, out = run(capsys, "graph", triangle_file, "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["kind"] == "admits"
    assert report["prediction"] == "admits"
    assert report["agree"] is True


def test_graph_json_input(capsys, tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(
        json.dumps(
            {
                "vertices": ["a", "b", "c", "d"],
                "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
            }
        )
    )
    code, out = run(capsys, "graph", path, "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["kind"] == "refuted_obstruction"
    assert report["agree"] is True


def test_free_two_two_refuted_with_dim_series(capsys):
    code, out = run(capsys, "free", "2", "2", "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["certificate"]["kind"] == "dim_series"
    assert report["verdict"]["certificate"]["j"] == 1


def test_parabolic_case(capsys):
    code, out = run(capsys, "parabolic", "B3:g3", "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["kind"] == "admits"
    assert report["prediction"] == "n32"
    assert report["grading_dims"] == [3, 3]


def test_parabolic_obstructions_only(capsys):
    code, out = run(capsys, "parabolic", "E6:g3", "--obstructions-only", "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["kind"] == "refuted_obstruction"
    # top layer of the grading is recorded
    assert report["grading_dims"][-1] == 5


def test_failed_grading_is_one_disagreement(capsys, monkeypatch):
    """A grading that contradicts the central series makes the scan record
    disagree instead of raising, and `quadlie parabolic` exit 1."""
    real = scans.verify_lcs_grading
    monkeypatch.setattr(
        scans, "verify_lcs_grading", lambda pn: dataclasses.replace(real(pn), ok=False)
    )
    record = scans.scan_parabolic_case("B3", (3,), RunConfig())
    assert record.agree is False and record.grading_ok is False
    assert main(["parabolic", "B3:g3", "--output", "json"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["agree"] is False and report["grading_consistent"] is False
    assert captured.err == "DISAGREEMENT: grading does not match the central series\n"
    # the scan names each disagreeing case and why
    assert main(["scan-parabolics", "--types", "B", "--max-rank", "2", "--pair-rank", "0"]) == 1
    why = "grading does not match the central series"
    err = capsys.readouterr().err.splitlines()
    assert err == [f"DISAGREEMENT: B2:g1: {why}", f"DISAGREEMENT: B2:g2: {why}"]


def test_missing_free_match_is_one_disagreement(capsys, monkeypatch):
    """An n32 prediction whose free-algebra match fails disagrees, with its
    own reason, even though the verdict agrees with the prediction."""
    monkeypatch.setattr(scans, "match_free_nilpotent", lambda pn, p, k: None)
    record = scans.scan_parabolic_case("B3", (3,), RunConfig())
    assert record.result.admits and record.free_match == "missing" and record.agree is False
    assert main(["parabolic", "B3:g3", "--output", "json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["agree"] is False
    assert captured.err == "DISAGREEMENT: free-algebra match missing\n"


def test_series_subcommand(capsys, h3_file, tmp_path):
    code, out = run(capsys, "series", h3_file, "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["descending_dims"] == [3, 1, 0]
    assert report["ascending_dims"] == [0, 1, 3]

    sub = tmp_path / "v.json"
    sub.write_text(json.dumps({"ambient_dim": 3, "vectors": [["1", "0", "0"]]}))
    code, out = run(capsys, "series", h3_file, "--subspace", sub, "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["subspace_dim"] == 1


def test_verify_round_trip(capsys, tmp_path, triangle_file):
    code, out = run(capsys, "graph", triangle_file, "--output", "json")
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    code, out = run(capsys, "verify", report_path)
    assert code == 0
    assert out.startswith("OK:")

    tampered = json.loads(report_path.read_text())
    n = tampered["algebra"]["dim"]
    tampered["verdict"]["certificate"]["witness"] = [["0"] * n for _ in range(n)]
    report_path.write_text(json.dumps(tampered))
    code, out = run(capsys, "verify", report_path)
    assert code == 1
    assert out.startswith("FAIL:")


def test_exit_code_2_on_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["analyze", str(missing)]) == 2
    loop = tmp_path / "loop.txt"
    loop.write_text("a a\n")
    assert main(["graph", str(loop)]) == 2
    assert main(["parabolic", "B3"]) == 2
    assert main(["parabolic", "Z9:g1"]) == 2
    assert main(["free", "0", "2"]) == 2
    capsys.readouterr()
    # ill-typed JSON fields: one error line each, never a traceback
    h3 = {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}
    algebras = [
        {"dim": 3, "brackets": [{**h3, "i": 1.0}]},
        {"dim": 3, "brackets": [{**h3, "terms": {"k": 3}}]},
        {"dim": True, "brackets": []},
        {"dim": 3, "brackets": [{**h3, "terms": [{"k": True, "c": "1"}]}]},
    ]
    for algebra in algebras:
        bad.write_text(json.dumps(algebra))
        assert main(["analyze", str(bad)]) == 2
    good = tmp_path / "h3.json"
    good.write_text(json.dumps({"dim": 3, "brackets": [h3]}))
    sub = tmp_path / "v.json"
    sub.write_text(json.dumps({"ambient_dim": True, "vectors": [["1"]]}))
    assert main(["series", str(good), "--subspace", str(sub)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 5 and all(line.startswith("error: ") for line in err)


@pytest.mark.parametrize("types", ["X", "E", "A,X3"])
def test_scan_parabolics_rejects_an_unparsable_type(capsys, types):
    assert main(["scan-parabolics", "--types", types]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert repr(types.split(",")[-1][0]) in err


def test_scan_parabolics_rank_one_type_has_no_pair_case(capsys):
    assert main(["scan-parabolics", "--types", "A1"]) == 0
    assert "A1:g1" in capsys.readouterr().out


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_deterministic_reports(capsys, h3_file):
    _, out1 = run(capsys, "analyze", h3_file, "--output", "json")
    _, out2 = run(capsys, "analyze", h3_file, "--output", "json")
    assert out1 == out2


def test_timings_flag_adds_block(capsys, h3_file):
    code, out = run(capsys, "analyze", h3_file, "--output", "json", "--timings")
    assert code == 0
    assert "timings" in json.loads(out)


def test_env_override(capsys, h3_file, monkeypatch):
    monkeypatch.setenv("QUADLIE_SEED", "777")
    code, out = run(capsys, "analyze", h3_file, "--output", "json")
    assert json.loads(out)["config"]["seed"] == 777
    # CLI flag wins over the environment
    code, out = run(capsys, "analyze", h3_file, "--output", "json", "--seed", "9")
    assert json.loads(out)["config"]["seed"] == 9


def test_text_output_mentions_verdict(capsys, h3_file):
    code, out = run(capsys, "analyze", h3_file)
    assert code == 0
    assert "verdict: refuted_obstruction" in out


GOLDEN = Path(__file__).resolve().parent / "golden"

# every RunConfig integer field: (environment variable, CLI flag, echo key)
CONFIG_NAMES = [
    ("QUADLIE_SEED", "--seed", "seed"),
    ("QUADLIE_MC_TRIALS", "--mc-trials", "mc_trials"),
    ("QUADLIE_MC_RANGE", "--mc-range", "mc_range"),
    ("QUADLIE_SYMBOLIC_MAX_DIM", "--symbolic-max-dim", "symbolic_max_dim"),
    ("QUADLIE_SYMBOLIC_MAX_FORMSPACE", "--symbolic-max-formspace", "symbolic_max_formspace_dim"),
    ("QUADLIE_SOLVER_DIM_CAP", "--solver-dim-cap", "solver_dim_cap"),
    ("QUADLIE_THETA_BUDGET", "--theta-budget", "theta_budget"),
]


@pytest.mark.parametrize("env,flag,key", CONFIG_NAMES)
def test_every_config_env_var_and_flag(capsys, monkeypatch, env, flag, key):
    echo = RunConfig().echo()
    assert sorted(echo) == sorted(k for _, _, k in CONFIG_NAMES)
    base = echo[key]
    monkeypatch.setenv(env, str(base + 3))
    code, out = run(capsys, "free", "2", "2", "--output", "json")
    assert code == 0
    assert json.loads(out)["config"] == {**echo, key: base + 3}
    code, out = run(capsys, "free", "2", "2", "--output", "json", flag, base + 5)
    assert code == 0
    assert json.loads(out)["config"] == {**echo, key: base + 5}


def test_mc_range_below_one_is_a_usage_error(capsys, monkeypatch):
    assert main(["free", "2", "2", "--mc-range", "0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: mc_range must be at least 1\n"
    monkeypatch.setenv("QUADLIE_MC_RANGE", "0")
    assert main(["free", "3", "2"]) == 2
    assert capsys.readouterr().err == "error: mc_range must be at least 1\n"


def test_mc_trials_below_one_is_a_usage_error(capsys, monkeypatch):
    # no trial refutes nothing: zero trials would give a bound of 1
    assert main(["free", "2", "2", "--mc-trials", "0"]) == 2
    assert capsys.readouterr().err == "error: mc_trials must be at least 1\n"
    monkeypatch.setenv("QUADLIE_MC_TRIALS", "0")
    assert main(["free", "3", "2"]) == 2
    assert capsys.readouterr().err == "error: mc_trials must be at least 1\n"


def test_monte_carlo_range_not_above_dim_is_undecided(capsys, tmp_path):
    # the C4 algebra has dim 8: with mc_range 8 the bound (8/8)^40 is 1
    code, out = run(
        capsys, "analyze", GOLDEN / "inputs" / "c4_algebra.json",
        "--theta-budget", "0", "--mc-range", "8", "--output", "json",
    )
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["kind"] == "undecided"
    assert verdict["certificate"]["kind"] == "undecided"
    assert "is not below 1" in verdict["certificate"]["notes"]
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out = run(capsys, "verify", path)
    assert code == 0
    assert out.startswith("OK")


def test_python_dash_m_runs_the_command():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "quadlie", "free", "2", "2", "--output", "json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"]["kind"] == "refuted_obstruction"


def test_verify_fails_a_forged_symbolic_refutation_within_seconds(tmp_path):
    # n(3,2)^4 admits a metric; re-expanding its dim-24 determinant would take
    # far longer than the timeout, one nonsingular probe member takes a moment
    report = {
        "algebra": algebra_to_json(direct_sum([free_nilpotent(3, 2)] * 4)),
        "verdict": {
            "kind": "refuted_symbolic",
            "certificate": {"kind": "refuted_symbolic", "notes": "forged"},
        },
    }
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "quadlie", "verify", str(path)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith("FAIL:")


def verify_tampered(capsys, tmp_path, golden: str, tamper) -> tuple[int, str]:
    report = json.loads((GOLDEN / golden).read_text())
    tamper(report)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report))
    return run(capsys, "verify", path)


def test_verify_rejects_verdict_certificate_mismatch(capsys, tmp_path):
    def claim_admits(report):
        assert report["verdict"]["certificate"]["kind"] == "dim_series"
        report["verdict"]["kind"] = "admits"

    code, out = verify_tampered(capsys, tmp_path, "free_2_2.json", claim_admits)
    assert code == 1
    assert out.startswith("FAIL:")


def test_verify_rejects_vacuous_monte_carlo_bound(capsys, tmp_path):
    def no_trials(report):
        cert = report["verdict"]["certificate"]
        assert cert["kind"] == "refuted_monte_carlo"
        cert["trials"] = 0
        cert["bound"] = "1"

    code, out = verify_tampered(capsys, tmp_path, "analyze_C4_theta_budget_0.json", no_trials)
    assert code == 1
    assert out.startswith("FAIL:")


def test_verify_rejects_zero_mc_range_as_malformed(capsys, tmp_path):
    def zero_range(report):
        cert = report["verdict"]["certificate"]
        cert["trials"] = 0
        cert["mc_range"] = 0

    code, out = verify_tampered(capsys, tmp_path, "analyze_C4_theta_budget_0.json", zero_range)
    assert code == 1
    assert out.startswith("FAIL: malformed report payload")
    assert out.count("\n") == 1


def set_dim_series(field, value):
    def tamper(report):
        cert = report["verdict"]["certificate"]
        assert cert["kind"] == "dim_series"
        cert[field] = value

    return tamper


def resize_part(name, ambient):
    def tamper(report):
        part = report["verdict"]["certificate"][name]
        part["ambient_dim"] = ambient
        part["vectors"] = [(v + ["0"] * ambient)[:ambient] for v in part["vectors"]]

    return tamper


def set_monte_carlo(field, value):
    def tamper(report):
        cert = report["verdict"]["certificate"]
        assert cert["kind"] == "refuted_monte_carlo"
        cert[field] = value

    return tamper


MC_REPORT = "analyze_C4_theta_budget_0.json"


def set_at(path, value):
    """Replace the report entry at a path of keys and list indices."""

    def tamper(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return tamper


BRACKET = ("algebra", "brackets", 0)


def set_signature(value):
    def tamper(report):
        cert = report["verdict"]["certificate"]
        assert cert["kind"] == "admits"
        cert["signature"] = value

    return tamper


@pytest.mark.parametrize(
    "golden, tamper",
    [
        ("free_3_3.json", set_dim_series("j", -5)),
        ("free_3_3.json", set_dim_series("j", 0)),
        ("free_3_3.json", set_dim_series("j", True)),
        ("free_2_2.json", set_dim_series("dim_ascending", True)),
        ("free_2_2.json", set_dim_series("dim_descending", 1.0)),
        ("graph_C4.json", resize_part("v1", 2)),
        ("graph_C4.json", resize_part("v2", 3)),
        (MC_REPORT, set_monte_carlo("seed", [1])),
        (MC_REPORT, set_monte_carlo("seed", True)),
        (MC_REPORT, set_monte_carlo("trials", "40")),
        (MC_REPORT, set_monte_carlo("trials", 40.0)),
        (MC_REPORT, set_monte_carlo("mc_range", True)),
        ("analyze_abelian3.json", set_signature([3.0, False, 0])),
        ("analyze_abelian3.json", set_signature("300")),
        ("analyze_h3.json", set_at(("algebra", "dim"), True)),
        ("analyze_h3.json", set_at(BRACKET + ("i",), 1.0)),
        ("analyze_h3.json", set_at(BRACKET + ("terms",), {"k": 3})),
        ("analyze_h3.json", set_at(BRACKET + ("terms", 0, "k"), True)),
        ("graph_C4.json", set_at(("verdict", "certificate", "v1", "ambient_dim"), True)),
    ],
    ids=[
        "j=-5",
        "j=0",
        "j=true",
        "dim_ascending=true",
        "dim_descending=1.0",
        "v1-ambient-2",
        "v2-ambient-3",
        "seed=[1]",
        "seed=true",
        "trials='40'",
        "trials=40.0",
        "mc_range=true",
        "signature=[3.0,false,0]",
        "signature='300'",
        "algebra-dim=true",
        "bracket-i=1.0",
        "bracket-terms-object",
        "bracket-k=true",
        "v1-ambient_dim=true",
    ],
)
def test_verify_rejects_forged_certificate_fields_as_malformed(capsys, tmp_path, golden, tamper):
    code, out = verify_tampered(capsys, tmp_path, golden, tamper)
    assert code == 1
    assert out.startswith("FAIL: malformed report payload")
    assert out.count("\n") == 1
