#!/usr/bin/env python3
"""Seeded benchmark of the subig solver through its library API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed relabels the instances, orders
the ops and, on follower-query, draws them from the stored pool (see
workloads.py).  The instances are written as paths and loaded through
``problems.load_instance``.  One process, one
thread, one op at a time (a closed loop).  Every op is checked against its
stored reference.

--trace 0 passes over the op set until --seconds is used up (at least once)
and prints the end-to-end metrics.  --trace 1 makes one untraced pass and one
traced pass, prints the per-layer metrics and writes the spans as JSONL under
perfbench/_run/.  The last line of output is one JSON object; the exit code
is 0 only if every op was right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import layers
import workloads as W
from tracer import Tracer

SETUP_PROBES = 9
# ops left when this much of the run has passed are not started, so that
# the run ends well within 180 s even when the solver regresses badly
RUN_DEADLINE_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_pass(subig, spec, ops, loaded, deadline, tracer=None):
    """Time each op once; returns [(op, result, seconds)]."""
    out = []
    for idx, op in enumerate(ops):
        limit = min(W.OP_LIMIT_S[spec["kind"]], deadline - time.monotonic())
        if limit <= 1.0:
            out.append((op, W.OpResult(None, "error", None, error="not started: run deadline"), 0.0))
            continue
        if tracer is not None:
            tracer.op = idx
        t0 = time.perf_counter()
        res = W.run_op(subig, spec, op, loaded, limit)
        out.append((op, res, time.perf_counter() - t0))
    return out


def check_pass(subig, spec, loaded, timed, failures) -> None:
    for op, res, _ in timed:
        why = W.check_op(subig, spec, op, res, loaded)
        if why:
            failures.append(f"{W.op_label(spec, op)}: {why}")


def setup_seconds(paths) -> float:
    """Median over fresh processes of import + load + oracle build."""
    cmd = [sys.executable, str(W.HERE / "setup_probe.py"), *map(str, paths.values())]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def describe_env(np_version: str, sp_version: str) -> str:
    threads = " ".join(f"{v}={os.environ.get(v, '')}" for v in W.THREAD_VARS)
    return (
        f"env nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={np_version} scipy={sp_version} {threads}"
    )


def timed_run(subig, spec, ops, paths, seconds, deadline, failures):
    setup_s = setup_seconds(paths)
    per_op = [[] for _ in ops]
    passes = []
    t_start = time.monotonic()
    while True:
        loaded = W.load_all(subig.problems, paths)
        timed = run_pass(subig, spec, ops, loaded, deadline)
        check_pass(subig, spec, loaded, timed, failures)
        for samples, (_, _, dt) in zip(per_op, timed):
            samples.append(dt)
        passes.append(sum(dt for _, _, dt in timed))
        used = time.monotonic() - t_start
        if failures or used + statistics.median(passes) > seconds:
            break
    # each op's median over the passes damps bursts of machine noise
    op_s = [statistics.median(samples) for samples in per_op]
    print(f"passes={len(passes)} pass_s={[round(p, 4) for p in passes]} op_s samples={len(op_s)}")
    metrics = {
        "wall_s": sum(op_s),
        "op_s_p50": statistics.median(op_s),
        "op_s_p90": statistics.quantiles(op_s, n=10, method="inclusive")[8],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return len(ops) * len(passes), {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def traced_run(subig, spec, ops, paths, deadline, failures, trace_path):
    loaded = W.load_all(subig.problems, paths)
    timed = run_pass(subig, spec, ops, loaded, deadline)
    check_pass(subig, spec, loaded, timed, failures)
    untraced = sum(dt for _, _, dt in timed)

    with Tracer() as tracer:
        layers.install(tracer, subig, [ctx.oracle for ctx in loaded.values()])
        loaded = W.load_all(subig.problems, paths, tracer=tracer)
        timed_tr = run_pass(subig, spec, ops, loaded, deadline, tracer=tracer)
    check_pass(subig, spec, loaded, timed_tr, failures)
    traced = sum(dt for _, _, dt in timed_tr)
    tracer.write_jsonl(str(trace_path))
    for label in tracer.absent:
        print(f"hook absent: {label}")
    m = layers.metrics(tracer, traced, untraced)
    print("layer self time: " + " ".join(f"{k}={v:.4f}" for k, v in layers.layer_self_times(m)))
    print(f"trace written: {trace_path.relative_to(W.ROOT)} ({len(tracer.spans)} spans)")
    return len(timed) + len(timed_tr), {k: (m[k], unit) for k, unit in layers.PER_LAYER.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(W.STRATA))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    try:
        subig = W.import_subig()
    except ImportError as exc:
        print(f"error: cannot import subig from this checkout: {exc}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    print(describe_env(numpy.__version__, scipy.__version__))
    spec = W.load_spec(args.workload)
    rng = random.Random(f"{args.workload}:{args.seed}")
    ops = W.select_ops(spec["pool"], W.STRATA[args.workload], rng if args.workload in W.SEEDED_DRAW else None)
    rng.shuffle(ops)
    workdir = W.HERE / "_run" / f"{args.workload}-s{args.seed}"
    paths = W.write_instances(subig.problems, spec, W.gen_seeds_of(spec, ops), workdir, args.seed)
    for key, path in sorted(paths.items()):
        print(f"input {key} {W.provenance(path)}")
    print(f"ops {len(ops)}: " + " ".join(W.op_label(spec, op) for op in ops))

    failures = []
    if args.trace:
        attempted, metrics = traced_run(
            subig, spec, ops, paths, deadline, failures, workdir / f"trace-{args.workload}-s{args.seed}.jsonl"
        )
    else:
        attempted, metrics = timed_run(subig, spec, ops, paths, args.seconds, deadline, failures)

    for line in failures:
        print(f"FAILED {line}")
    print(f"failed_ratio {len(failures) / attempted:.6g} ({len(failures)}/{attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
