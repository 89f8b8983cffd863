"""Tests of the benchmark itself, on the seconds-long smoke sizes.

    python3 -m pytest bench -q

They are outside the repository's own test suite (``testpaths`` names only
``tests``) because they time real runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _run(tmp_path, workload, trace=0, seed=7, reference=None):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--size", "smoke", "--out", str(tmp_path / "out")]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_workloads_match_the_benchmark():
    sys.path.insert(0, str(BENCH))
    from worker import SPECS

    assert sorted(SPECS) == sorted(WORKLOADS)
    assert DECLARED["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(tmp_path, workload, trace):
    proc = _run(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in proc.stdout.splitlines())
        if not trace:
            assert value > 0, m["name"]


def test_corrupted_reference_digest_fails_the_run(tmp_path):
    ref = json.loads((BENCH / "reference.json").read_text())
    digest = ref["lift-table"]["smoke"]["sha256"]
    ref["lift-table"]["smoke"]["sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref))
    proc = _run(tmp_path, "lift-table", reference=bad)
    assert proc.returncode == 1
    result = _result(proc)
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1


def test_pinned_sweep_counts_fail_the_run(tmp_path):
    ref = json.loads((BENCH / "reference.json").read_text())
    ref["verify-sweeps"]["smoke"]["reductions"]["checks"] += 1
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref))
    proc = _run(tmp_path, "verify-sweeps", reference=bad)
    assert proc.returncode == 1 and _result(proc)["correct"] is False


def test_traced_counts_repeat_exactly(tmp_path):
    runs = [_result(_run(tmp_path, "verify-sweeps", trace=1)) for _ in range(2)]
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"} for r in runs
    ]
    assert counts[0] == counts[1]
    pinned = json.loads((BENCH / "reference.json").read_text())["verify-sweeps"]["smoke"]
    assert counts[0]["verify.checks"] == sum(suite["checks"] for suite in pinned.values())


def test_seed_draws_another_query_stream_of_the_same_shape():
    sys.path.insert(0, str(BENCH))
    from worker import cli_stream

    pool = json.loads((BENCH / "reference.json").read_text())["cli-cold-products"]["full"]
    one, two = cli_stream(pool, 1, 0), cli_stream(pool, 2, 0)
    assert one != two and one == cli_stream(pool, 1, 0) and one != cli_stream(pool, 1, 1)
    assert sorted(one) == sorted(two) and len(one) == sum(map(len, pool.values()))
    assert [q[0][:5] for q in one] == [q[0][:5] for q in two]  # same ring rotation


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lift-table", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=170,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
