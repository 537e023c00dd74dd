#!/usr/bin/env python3
"""Record the reference pools the benchmark draws its ops from.

    python3 perfbench/make_refs.py [--workload NAME ...]

For each pool op this solves (or queries) once, checks that every setting
on an instance agrees and that each value lies between the greedy value and
the value of the full available set, and stores the value with the op's
simplex work (LU factorizations, counted by the tracer) as the key the
benchmark stratifies on.  Writes ``references/<workload>.json``.  Run it on
a commit whose results are trusted; the benchmark then requires every later
commit to reproduce these values.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import defaultdict

from tracer import Tracer
import workloads as W

POOLS = {
    "wmcig-solve": {
        "kind": "solve",
        "family": "wmcig",
        "params": {"n": 30, "r": 2, "k_frac": 0.1},
        "gen_seeds": list(range(1, 17)),
        "settings": ["I-S1", "B-S1", "ILDAE-S2", "ILDAE-S3"],
    },
    "biig-solve": {
        "kind": "solve",
        "family": "biig",
        "params": {"n": 15, "m_mult": 2, "B": 5, "k": 5, "d": 0.07},
        "gen_seeds": list(range(1, 25)),
        "settings": ["ILDAE-S1", "B-S1"],
    },
    "follower-query": {
        "kind": "query",
        "family": "wmcig",
        "params": {"n": 40, "r": 2, "k_frac": 0.1},
        "gen_seed": 12,
        "queries": 900,
        "query_seed": 0,
    },
}

RECORD_LIMIT_S = 600.0


def pool_ops(spec: dict, k: int, n: int):
    if spec["kind"] == "solve":
        return [
            {"gen_seed": g, "setting": s} for g in spec["gen_seeds"] for s in spec["settings"]
        ]
    rng = random.Random(spec["query_seed"])
    seen, ops = set(), []
    while len(ops) < spec["queries"]:
        interdict = tuple(sorted(rng.sample(range(n), k)))
        if interdict not in seen:
            seen.add(interdict)
            ops.append({"interdict": list(interdict)})
    return ops


def record(subig, name: str, workdir) -> dict:
    spec = dict(POOLS[name])
    seeds = spec["gen_seeds"] if spec["kind"] == "solve" else [spec["gen_seed"]]
    paths = W.write_instances(subig.problems, spec, seeds, workdir)
    loaded = W.load_all(subig.problems, paths)
    first = loaded[W.instance_key(spec["family"], seeds[0])]
    ops = pool_ops(spec, first.instance.k, first.instance.n)
    by_instance = defaultdict(set)
    for idx, op in enumerate(ops):
        op["id"] = idx
        with Tracer() as tracer:
            tracer.count(subig.lp, "lu_factor", "lp.factorizations")
            res = W.run_op(subig, spec, op, loaded, RECORD_LIMIT_S)
        if res.status != "optimal":
            raise SystemExit(f"{name} {W.op_label(spec, op)}: {res.status} {res.error}")
        op["value"] = res.value
        op["work"] = tracer.counts["lp.factorizations"]
        why = W.check_op(subig, spec, op, res, loaded)
        if why:
            raise SystemExit(f"{name} {W.op_label(spec, op)}: {why}")
        if spec["kind"] == "solve":
            by_instance[op["gen_seed"]].add(res.value)
        print(f"{name} {W.op_label(spec, op)} value={res.value!r} work={op['work']}", flush=True)
    for gen_seed, values in sorted(by_instance.items()):
        if max(values) - min(values) > W.REL_TOL * max(1.0, abs(max(values))):
            raise SystemExit(f"{name} seed {gen_seed}: settings disagree: {sorted(values)}")
    spec["provenance"] = {key: W.provenance(path) for key, path in sorted(paths.items())}
    spec["pool"] = ops
    return spec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=sorted(POOLS))
    args = ap.parse_args(argv)
    subig = W.import_subig()
    W.REFERENCES.mkdir(exist_ok=True)
    for name in args.workload or sorted(POOLS):
        spec = record(subig, name, W.HERE / "_run" / f"refs-{name}")
        with open(W.REFERENCES / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
