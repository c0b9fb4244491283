"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The smoke runs take about a minute in total.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from rabi_lab import cli  # noqa: E402
from workloads import WORKLOADS, parity_dense  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_benchmark_json_matches_run_py():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_tampered_pair_parity_sum_fails_and_counts(tmp_path):
    inputs = replace(parity_dense(0), n_trunc=200, points=2)

    def tampering_cli(argv):
        code = cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        lines = (out / "parity.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[8] = "0.001"  # pair_parity_sum
        lines[1] = ",".join(cells)
        data = ("\n".join(lines) + "\n").encode()
        (out / "parity.csv").write_bytes(data)
        # keep the digest consistent, so only the invariant check can notice
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["files"][0].update(sha256=hashlib.sha256(data).hexdigest(), bytes=len(data))
        (out / "manifest.json").write_text(json.dumps(manifest))
        return code

    good = run.run_job(inputs, tmp_path / "good", 0, cli.main)
    bad = run.run_job(inputs, tmp_path / "bad", 0, tampering_cli)
    assert good.problems == []
    assert any("pair_parity_sum" in problem for problem in bad.problems)
    assert run.error_rate([good, good]) == 0.0
    assert run.error_rate([good, bad]) == 0.5


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "parity_dense", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _session_members(sid: int) -> list:
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:  # fields after the name: state, ppid, pgrp, session
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_pool_run_leaves_no_process_behind():
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "converge_pool", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert json.loads(out.splitlines()[-1])["correct"]
    assert _session_members(proc.pid) == []
