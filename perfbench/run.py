#!/usr/bin/env python3
"""End-to-end benchmark of arithring, one workload per process.

    python3 perfbench/run.py --workload identity_q --seed 1 --seconds 24 --trace 0

Run it from anywhere inside a source checkout; arithring is imported from
the checkout's ``src/`` and from nowhere else.  Without ``src/arithring``
the run exits with code 2 and prints no result.  The workloads and every
metric's name, unit and direction are listed in ``BENCHMARK.json`` at the
root of the checkout.

* ``setup_s`` is the median of five set-ups: this process's own and four in
  fresh interpreters.  Each is timed from before ``import arithring`` until
  one tiny call on every route of the workload has returned.
* The timed loop repeats the workload's calls back to back, one caller in
  one thread (a closed loop), until ``--seconds`` have passed.
  ``gc.collect()`` runs before each repetition and the collector stays on.
  The first repetition is a warm-up: its outputs are checked, its times
  are not kept.  A repetition's wall time without its probes (see
  ``probe.py``) is one ``run_s`` sample; each operation's time over the
  mean of the workload's probes just before and after it, scaled by
  ``probe.REF_S``, is that operation's normalized time.  ``run_norm_s`` is the sum over operations of each
  one's median normalized time.  The median ``run_s`` and all samples are
  on the summary line.
* ``peak_rss_mb`` is ``ru_maxrss`` of this process when the loop ends,
  before any oracle imports sympy.
* Then every output of every repetition is checked.  An operation fails
  when it raised, when its output differs from the first repetition's, or
  when the oracle rejects that first output.

With ``--trace 1`` repetitions alternate between untraced and traced (see
``tracer.py``).  The per-layer metrics are medians over the traced
repetitions; ``trace.overhead_ratio`` is ``run_norm_s`` of the traced
repetitions over that of the untraced ones, and ``trace.top_level_share``
is the share of the traced ``run_s`` that top-level spans cover.

Standard output ends with a summary line (provenance, samples, fail ratio,
output digests) and the result line ``{"correct", "attempted", "failed",
"metrics"}``.  Both, and the spans of a traced run, are also written to
``.bench_out/`` in the checkout.  The exit code is 0 only when every output
was correct.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the run writes only under .bench_out/

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
BYTES_PER_PAIR = 24  # two int64 loads and one int64 store per multiply-add


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the benchmark's self-tests")
    p.add_argument("--inject-fault", action="store_true",
                   help="alter one output before it is checked (self-test of the oracles)")
    p.add_argument("--setup-only", action="store_true",
                   help="print one set-up time and exit (used for the set-up samples)")
    return p.parse_args(argv)


def set_up(workload):
    """Import arithring from the checkout and warm every route the workload uses."""
    start = perf_counter()
    import arithring

    for module in workload.modules:
        importlib.import_module(module)
    workload.warm(arithring)
    elapsed = perf_counter() - start
    if not Path(arithring.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: arithring imported from {arithring.__file__}, not {SRC}")
    return elapsed, arithring


def setup_in_fresh_interpreter(args) -> float:
    cmd = [sys.executable, "-B", str(Path(__file__).resolve()), "--workload", args.workload,
           "--size", args.size, "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def git_sha():
    """HEAD of the checkout's own .git, or None (the benchmark may run outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(ar, seed: int) -> dict:
    import numpy

    source = hashlib.sha256()
    for path in sorted((SRC / "arithring").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": ar.active_backend(),
        "numba_imports": ar.kernels.HAVE_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
    }


def observe(workload, op, result):
    if isinstance(result, workloads.Raised):
        return result
    try:
        return workload.observe(op, result)
    except Exception as exc:  # an output the harness cannot read is a wrong output
        return workloads.Raised(exc)


def perturb(x):
    """The same record with its first value changed (see --inject-fault)."""
    if isinstance(x, dict):
        key = next(iter(x))
        return {**x, key: perturb(x[key])}
    return x + ("x" if isinstance(x, str) else 1)


def layer_metrics(names, spans, run_s) -> dict:
    """Per-layer metrics of one traced repetition; ``trace.overhead_ratio`` is
    filled in from all repetitions."""
    totals = tracer.layer_totals(spans)
    out = {}
    for name in names:
        layer, field = name.rsplit(".", 1)
        t = totals.get(layer, {"self_s": 0.0, "calls": 0, "count": 0})
        if name == "ring.convolve.i64_share":
            out[name] = tracer.i64_share(spans)
        elif name == "trace.top_level_share":
            out[name] = tracer.top_level_s(spans) / run_s
        elif name == "trace.overhead_ratio":
            continue
        elif field in ("self_s", "calls"):
            out[name] = t[field]
        elif field in ("values", "pairs"):
            out[name] = t["count"]
        elif field == "bytes_computed":
            out[name] = BYTES_PER_PAIR * t["count"]
        else:
            raise ValueError(f"no rule for per-layer metric {name}")
    return out


def norm_s(rows: list[dict]) -> float:
    """``run_norm_s``: the sum over operations of each one's median
    normalized time over the repetitions in `rows`."""
    return sum(statistics.median(row[op] for row in rows) for op in rows[0])


def timed_loop(workload, ar, args, layer_names) -> dict:
    tr = tracer.Tracer() if args.trace else None
    times = {False: [], True: []}
    norms = {False: [], True: []}
    layer_rows, span_log = [], []
    first, first_fp, differs, reps = None, {}, Counter(), 0
    end = perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and reps % 2 == 1
        if traced:
            tr.install()
        ops = workloads.Ops(workload.probe_work)
        gc.collect()
        start = perf_counter()
        results = workload.run(ar, ops)
        run_s = perf_counter() - start - ops.probe_s
        if traced:
            tr.uninstall()
            spans = tr.take()
            layer_rows.append(layer_metrics(layer_names, spans, run_s))
            span_log.append(spans)
        if reps > 0:  # the first repetition warms caches and the heap
            times[traced].append(run_s)
            norms[traced].append(ops.norm)
        records = {op: observe(workload, op, res) for op, res in results.items()}
        del results
        if first is None:
            if args.inject_fault:
                op = next(iter(records))
                records[op] = perturb(records[op])
            first = records
            first_fp = {op: workloads.digest(r) for op, r in records.items()}
        for op, rec in records.items():
            if isinstance(rec, workloads.Raised) or workloads.digest(rec) != first_fp[op]:
                differs[op] += 1
        reps += 1
        if perf_counter() >= end and times[False] and (not args.trace or times[True]):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "times": times, "norms": norms, "layer_rows": layer_rows, "spans": span_log, "reps": reps,
        "first": first, "first_fp": first_fp, "differs": differs, "peak_rss_mb": peak_rss_mb,
    }


def judge(workload, loop) -> tuple[int, int, dict]:
    """(attempted, failed, reason per failed op); oracles run here, after timing."""
    attempted = failed = 0
    reasons = {}
    for op, rec in loop["first"].items():
        attempted += loop["reps"]
        if isinstance(rec, workloads.Raised):
            ok, why = False, rec.error
        else:
            try:
                ok, why = workload.check(op, rec), "oracle disagrees"
            except Exception as exc:  # a record the oracle cannot read is wrong
                ok, why = False, f"oracle: {type(exc).__name__}: {exc}"
        bad = loop["reps"] if not ok else loop["differs"][op]
        if bad:
            failed += bad
            reasons[op] = why if not ok else "output differs between repetitions"
    return attempted, failed, reasons


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "arithring" / "__init__.py").is_file():
        print(f"error: no arithring sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny", scratch)
        setup_s, ar = set_up(workload)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        return measure(args, spec, workload, ar, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, spec, workload, ar, setup_s) -> int:
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    setups = [setup_s]
    if not args.trace:
        setups += [setup_in_fresh_interpreter(args) for _ in range(SETUP_SAMPLES - 1)]
    loop = timed_loop(workload, ar, args, list(wanted))
    attempted, failed, reasons = judge(workload, loop)

    plain, traced = loop["times"][False], loop["times"][True]
    norm_plain, norm_traced = loop["norms"][False], loop["norms"][True]
    if args.trace:
        values = {
            name: statistics.median(row[name] for row in loop["layer_rows"])
            for name in wanted if name != "trace.overhead_ratio"
        }
        values["trace.overhead_ratio"] = norm_s(norm_traced) / norm_s(norm_plain)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_norm_s": norm_s(norm_plain),
            "peak_rss_mb": loop["peak_rss_mb"],
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "size": args.size,
        "provenance": provenance(ar, args.seed),
        "fail_ratio": failed / attempted,
        "failures": reasons,
        "repetitions": loop["reps"],
        "run_s": statistics.median(plain),
        "run_s_samples": plain,
        "run_norm_s_samples": [sum(row.values()) for row in norm_plain],
        "traced_run_s_samples": traced,
        "traced_run_norm_s_samples": [sum(row.values()) for row in norm_traced],
        "setup_s_samples": setups,
        "peak_rss_mb": loop["peak_rss_mb"],
        "output_digests": loop["first_fp"],
    }
    record = {"summary": summary, "result": result, "spans": loop["spans"]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, default=str))
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
