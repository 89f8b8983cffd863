import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qkgr.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_product_human(capsys):
    code, out, _ = run_cli(
        capsys, "product", "-k", "4", "-n", "9", "--lhs", "4,0,0,0", "--rhs", "4,3,2,1"
    )
    assert code == 0
    assert "O(5,4,3,2)" in out
    assert "- 3*q*O(3,2,1,0)" in out


def test_product_json_and_csv(capsys):
    code, out, _ = run_cli(
        capsys, "product", "-k", "2", "-n", "4", "--lhs", "2,2", "--rhs", "2,2", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"terms": [{"q": 2, "partition": [0, 0], "coeff": 1}]}
    code, out, _ = run_cli(
        capsys, "product", "-k", "2", "-n", "4", "--lhs", "[2,2]", "--rhs", "[2, 2]", "--csv"
    )
    assert code == 0
    assert out.splitlines() == ["q,partition,coeff", "2,0,0,1"]


def test_product_unit(capsys):
    for unit in ("0,0", "[]", "[0, 0]"):
        code, out, _ = run_cli(capsys, "product", "-k", "2", "-n", "4", "--lhs", unit, "--rhs", "2,1")
        assert code == 0
        assert out.strip().endswith("= O(2,1)"), unit


def test_malformed_partition_is_usage_error(capsys):
    cases = [("4", lhs) for lhs in ("3,0", "[3,[2]]", "[null]", "[3.5,1]", "[true,1]", "[3,1")]
    # int() would read these as 10, 1 and 3, all inside the 2x12 rectangle
    cases += [("14", lhs) for lhs in ("1_0", "+1", "\u0663")]
    for n, lhs in cases:
        code, _, err = run_cli(capsys, "product", "-k", "2", "-n", n, "--lhs", lhs, "--rhs", "1,0")
        assert code == 2, lhs
        assert err.startswith("error:"), lhs


def test_json_and_csv_are_exclusive(capsys):
    for command in (
        ["product", "-k", "2", "-n", "4", "--lhs", "1", "--rhs", "1"],
        ["verify", "seidel", "-k", "2", "-n", "4"],
        ["reduce", "-k", "2", "-n", "4", "--lhs", "1", "--rhs", "1", "--nu", "1,1", "--deg", "0"],
    ):
        with pytest.raises(SystemExit) as info:
            main([*command, "--json", "--csv"])
        assert info.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


def test_unknown_suite_rejected():
    with pytest.raises(SystemExit) as info:
        main(["verify", "nope", "-k", "2", "-n", "4"])
    assert info.value.code == 2


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "seidel", "-k", "3", "-n", "6", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["failures"] == 0
    assert report["suite"] == "seidel"


def test_verify_jobs_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "verify", "curve-nbhd", "-k", "2", "-n", "6", "--json")
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "verify", "curve-nbhd", "-k", "2", "-n", "6", "--json", "--jobs", "2"
    )
    assert code == 0
    assert out1 == out2


def test_verify_seidel_trunc_zero_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "seidel", "-k", "2", "-n", "4", "--trunc", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_jobs_below_one_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "seidel", "-k", "2", "-n", "4", "--jobs", "0")
    assert code == 2
    assert "jobs" in err


def test_verify_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("qkgr.verify.qlr_gr3", lambda lam, mu, nu, d, ctx: 7)
    code, out, err = run_cli(capsys, "verify", "gr3n-rule", "-n", "6", "--sample", "3")
    assert code == 1
    assert err == ""
    head, failure = out.splitlines()
    assert head.startswith("gr3n-rule on Gr(3,6): FAIL (")
    assert failure.startswith("first failure: rule 7 != oracle ")


def test_internal_inconsistency_exits_one(capsys, monkeypatch):
    # an ArithmeticError from the engine (a shifted q-power leaving 0..trunc,
    # a Pieri step failing its checks) is not a usage error
    def overflow(lam, mu, ctx):
        raise OverflowError("q-degree 5 exceeds truncation 3; widen the context")

    monkeypatch.setattr("qkgr.cli.product_basis", overflow)
    code, out, err = run_cli(capsys, "product", "-k", "2", "-n", "4", "--lhs", "1", "--rhs", "1")
    assert code == 1
    assert out == ""
    assert err == "internal inconsistency: q-degree 5 exceeds truncation 3; widen the context\n"


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "dmin", "-k", "2", "-n", "4", "--csv")
    assert code == 0
    header, row = out.splitlines()
    assert header == "suite,k,n,items,checks,failures,ok"
    assert row.startswith("dmin,2,4,")


def test_reduce_trace_gr6_17(capsys):
    code, out, _ = run_cli(
        capsys,
        "reduce",
        "-k", "6", "-n", "17",
        "--lhs", "10,8,6,4,2,0",
        "--rhs", "10,8,6,4,2,0",
        "--nu", "6,2,2,1,0,0",
        "--deg", "3",
        "--json",
    )
    assert code == 0
    trace = json.loads(out)
    assert [s["deg"] for s in trace["steps"]] == [2, 1, 0]
    assert trace["final"]["lhs"] == [9, 7, 5, 4, 2, 0]
    assert trace["final"]["nu"] == [11, 11, 10, 9, 9, 4]
    assert trace["value"] is None  # ring too large for the oracle


def test_reduce_attaches_value_when_small(capsys):
    # no rule applies to the diagonal tuple, so the oracle value rides along
    code, out, _ = run_cli(
        capsys,
        "reduce",
        "-k", "3", "-n", "6",
        "--lhs", "2,1,0", "--rhs", "2,1,0", "--nu", "2,1,0", "--deg", "1",
        "--json",
    )
    assert code == 0
    trace = json.loads(out)
    assert trace["steps"] == []
    assert trace["final"]["deg"] == 1
    assert trace["value"] == -1


def test_reduce_reaches_classical(capsys):
    code, out, _ = run_cli(
        capsys,
        "reduce",
        "-k", "3", "-n", "6",
        "--lhs", "2,1,0", "--rhs", "1,1,0", "--nu", "1,1,0", "--deg", "1",
        "--json",
    )
    assert code == 0
    trace = json.loads(out)
    assert trace["final"]["deg"] == 0
    from qkgr.partitions import context
    from qkgr.qk_engine import structure_constant

    want = structure_constant((2, 1, 0), (1, 1, 0), (1, 1, 0), 1, context(3, 6))
    assert trace["value"] == want


def test_reduce_degree_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "reduce",
        "-k", "2", "-n", "4",
        "--lhs", "1,0", "--rhs", "1,0", "--nu", "1,1", "--deg", "0",
    )
    assert code == 0
    assert "already degree 0" in out
    assert "classical value: 1" in out


def test_trunc_env_override(capsys, monkeypatch):
    # --trunc is the one way to set the truncation; QKGR_TRUNC is ignored
    product = ["product", "-k", "2", "-n", "4", "--lhs", "2,2", "--rhs", "2,2", "--json"]
    code, out, _ = run_cli(capsys, *product, "--trunc", "5")
    assert code == 0
    assert json.loads(out)["terms"][0]["q"] == 2
    # degree 4 lies above the default truncation 3 of Gr(2,4), not above 5
    reduce = ["reduce", "-k", "2", "-n", "4", "--lhs", "2,2", "--rhs", "2,2", "--nu", "0,0", "--deg", "4"]
    assert run_cli(capsys, *reduce, "--trunc", "5")[0] == 0
    plain = run_cli(capsys, *reduce)
    monkeypatch.setenv("QKGR_TRUNC", "5")
    assert run_cli(capsys, *reduce) == plain
    code, _, err = plain
    assert code == 2
    assert "outside 0..3" in err


def test_usage_errors_share_one_prefix(capsys):
    cases = [
        ("reduce -k 2 -n 4 --lhs 2,2 --rhs 2,2 --nu 0,0 --deg 4", "degree 4 outside 0..3"),
        ("verify dmin -k 2 -n 5 --sample 0", "sample must be at least 1, got 0"),
        ("verify gr3n-rule -n 6 --sample -3", "sample must be at least 1, got -3"),
        ("verify reductions -k 2 -n 5 --sample 0", "sample must be at least 1, got 0"),
        ("verify seidel -k 2 -n 6 --trunc 3", "the seidel suite needs trunc >= max(k, n-k) = 4, got 3"),
    ]
    for argv, message in cases:
        assert run_cli(capsys, *argv.split()) == (2, "", f"error: {message}\n"), argv


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "qkgr.cli", "product", "-k", "2", "-n", "5", "--lhs", "1,1", "--rhs", "2,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "O(" in proc.stdout


def test_product_needs_no_array_libraries():
    # the package declares no runtime dependencies; a cold product must not
    # pull in numpy or scipy, whose import alone costs more than the product,
    # nor multiprocessing, which only a verify pool needs
    script = (
        "import sys\n"
        "from qkgr.cli import main\n"
        "code = main(['product', '-k', '4', '-n', '8', '--lhs', '3,2,1', '--rhs', '2,2,1', '--json'])\n"
        "print(code, sorted(m for m in ('numpy', 'scipy', 'multiprocessing') if m in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[0])["terms"]
    assert lines[-1] == "0 []"
