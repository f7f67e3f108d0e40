"""Self-tests of the benchmark at tiny sizes: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--seed", "5", "--seconds", "0.3", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@functools.cache
def tiny_run(workload: str, trace: int, fault: bool = False):
    extra = ["--workload", workload, "--trace", str(trace), "--size", "tiny"]
    done = run_bench(ROOT, *extra, *(["--inject-fault"] if fault else []))
    lines = done.stdout.splitlines()
    return done.returncode, json.loads(lines[-2])["summary"], json.loads(lines[-1])


def test_workloads_match_the_spec():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_workload_completes_with_every_metric(workload, trace):
    rc, summary, result = tiny_run(workload, trace)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert summary["fail_ratio"] == 0
    kind = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in kind]
    for m in kind:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    if trace:
        assert summary["repetitions"] >= 2
        assert result["metrics"]["trace.top_level_share"]["value"] > 0.9
    else:
        assert len(summary["setup_s_samples"]) == 5
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in kind)
    prov = summary["provenance"]
    assert set(prov) >= {"git_sha", "seed", "python", "numpy", "backend", "numba_imports", "nproc"}


@pytest.mark.parametrize("workload", NAMES)
def test_traced_outputs_equal_untraced(workload):
    # Within the traced run every repetition must match the first, untraced
    # one (failed == 0 above); across runs the digests must match too.
    assert tiny_run(workload, 1)[1]["output_digests"] == tiny_run(workload, 0)[1]["output_digests"]


@pytest.mark.parametrize("workload", NAMES)
def test_injected_wrong_value_fails(workload):
    rc, summary, result = tiny_run(workload, 0, fault=True)
    assert rc == 1
    assert result["correct"] is False and result["failed"] > 0
    assert summary["fail_ratio"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_seed_fixes_the_inputs(workload, tmp_path):
    def inputs(seed):
        w = workloads.WORKLOADS[workload](seed, True, tmp_path)
        return {k: v for k, v in vars(w).items() if k != "out"}

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", NAMES[0], "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_rebinds_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import arithring
        from arithring import classical, ring

        import tracer

        original = ring.make
        tr = tracer.Tracer()
        tr.install()
        try:
            assert ring.make is not original
            assert classical.make is ring.make and arithring.make is ring.make
            classical.build("mobius", 30, ring.Domain.Z)
        finally:
            tr.uninstall()
        assert ring.make is original and classical.make is original
        names = {span[0] for span in tr.take()}
        assert {"classical.build", "ring.make", "kernels.sieve"} <= names
    finally:
        sys.path.remove(str(ROOT / "src"))


@pytest.mark.parametrize("work", ["python_work", "mixed_work"])
def test_probed_ops_normalize_every_operation(work):
    ops = workloads.Ops(getattr(workloads.probe, work))
    ops("sum", sum, range(10**5))
    ops("bad", int, "x")
    assert set(ops.norm) == {"sum", "bad"} and all(v > 0 for v in ops.norm.values())
    assert isinstance(ops.results["bad"], workloads.Raised)
    assert ops.probe_s > 0
    plain = workloads.Ops()
    plain("sum", sum, range(10))
    assert plain.norm == {} and plain.probe_s == 0
