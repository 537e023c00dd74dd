"""Workload definitions, op sets, seeded instance files and correctness checks.

Each workload owns a pool of ops whose reference values are stored in
``references/<workload>.json`` (written by ``make_refs.py``).  The pool is
sorted by its recorded simplex work and cut into equal strata; a run takes
one op from each stratum, so its ops span easy to hard.

The workload seed changes the inputs in two ways.  It relabels the
customers (WMCIG) or targets (BIIG) of every instance, so each seed writes
different instance files with the same optimal values; no tie-break in the
search uses these ids, so the search is unchanged (up to float summation
order on BIIG).  And on
workloads with many ops it draws which op of each stratum is run.  The solve
workloads keep the middle op of each stratum instead: with eight or fewer
solves in a pass, drawing them moved a run's total and quantiles by 10-30 %,
and so did relabelling the items, whose ids break ties in the search.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references"

REL_TOL = 1e-6
BRACKET_TOL = 1e-9

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# ops per pass (one per stratum); sized so that a pass takes 9-12 s on 2
# cores at the seed commit, and a 38 s run makes three passes
STRATA = {"wmcig-solve": 8, "biig-solve": 4, "follower-query": 100}
# workloads whose ops are drawn by the seed (the others keep the middle op)
SEEDED_DRAW = {"follower-query"}
# time limit of one op, so that a regression shows as a failure, not a hang
OP_LIMIT_S = {"solve": 60.0, "query": 30.0}


def import_subig():
    """Pin the BLAS/OpenMP pools to one thread, then import subig from the
    ``src`` directory of this checkout (never from anywhere else)."""
    src = ROOT / "src"
    if not (src / "subig" / "__init__.py").is_file():
        raise ImportError(f"no subig sources under {src}")
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pools were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import subig

    return subig


def load_spec(workload: str) -> dict:
    """The workload's stored pool: kind, family, generator params and ops."""
    with open(REFERENCES / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def select_ops(pool: Sequence[dict], strata: int, rng: Optional[random.Random] = None) -> List[dict]:
    """One op from each of ``strata`` equal strata of the pool sorted by
    recorded work: drawn by ``rng``, or the middle one when it is None."""
    if strata > len(pool):
        raise ValueError(f"{strata} strata but only {len(pool)} pool ops")
    ranked = sorted(pool, key=lambda op: (op["work"], op["id"]))
    ops = []
    for s in range(strata):
        lo, hi = s * len(ranked) // strata, (s + 1) * len(ranked) // strata
        ops.append(ranked[rng.randrange(lo, hi) if rng else (lo + hi) // 2])
    return ops


# -- instance files ------------------------------------------------------------


def generate(problems, family: str, params: dict, gen_seed: int):
    if family == "wmcig":
        return problems.gen_wmcig(seed=gen_seed, **params)
    if family == "biig":
        return problems.gen_biig(seed=gen_seed, **params)
    raise ValueError(f"unknown family {family!r}")


def instance_key(family: str, gen_seed: int) -> str:
    return f"{family}-s{gen_seed}"


def relabel(problems, inst, rng: random.Random, tag: str):
    """A copy of ``inst`` whose customer (or target) ids are permuted by
    ``rng``; every follower and leader value is unchanged."""
    cols = list(range(inst.m))
    rng.shuffle(cols)
    prov = f"{inst.provenance} relabel={tag}"
    if isinstance(inst, problems.WmcigInstance):
        profits = [0] * inst.m
        for j, p in enumerate(inst.profits):
            profits[cols[j]] = p
        cover = tuple(frozenset(cols[j] for j in js) for js in inst.cover)
        return replace(inst, profits=tuple(profits), cover=cover, provenance=prov)
    arcs = tuple(sorted((i, cols[j]) for i, j in inst.arcs))
    return replace(inst, arcs=arcs, provenance=prov)


def write_instances(problems, spec: dict, gen_seeds, workdir: Path, seed: Optional[int] = None):
    """Generate each instance, relabel it by the workload seed unless that
    is None, and write it as a file.  Returns key -> path."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for gen_seed in sorted(set(gen_seeds)):
        key = instance_key(spec["family"], gen_seed)
        inst = generate(problems, spec["family"], spec["params"], gen_seed)
        if seed is not None:
            tag = f"{key}:{seed}"
            inst = relabel(problems, inst, random.Random(tag), tag)
        path = workdir / f"{key}.{spec['family']}"
        problems.write_instance(inst, str(path))
        paths[key] = path
    return paths


def provenance(path: Path) -> str:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
    return first if first.startswith("#") else ""


@dataclass
class Loaded:
    instance: object
    oracle: object
    knapsacks: object


def load_all(problems, paths: Dict[str, Path], tracer=None) -> Dict[str, Loaded]:
    """Load instance files and build their oracles, in spans when traced."""
    out = {}
    for key, path in sorted(paths.items()):
        if tracer is None:
            inst = problems.load_instance(str(path))
            oracle = inst.oracle()
        else:
            with tracer.span("problems.load"):
                inst = problems.load_instance(str(path))
            with tracer.span("problems.oracle"):
                oracle = inst.oracle()
        out[key] = Loaded(inst, oracle, inst.knapsacks())
    return out


# -- ops -----------------------------------------------------------------------


@dataclass
class OpResult:
    value: Optional[float]
    status: str
    interdict: Optional[Sequence[int]]   # indices of interdicted items
    error: str = ""


def op_instance(spec: dict, op: dict) -> str:
    """Key of the instance an op runs on."""
    return instance_key(spec["family"], op["gen_seed"] if spec["kind"] == "solve" else spec["gen_seed"])


def run_op(subig, spec: dict, op: dict, loaded: Dict[str, Loaded], limit_s: float) -> OpResult:
    """One ``master.solve`` or one ``follower.phi`` call; any exception the
    call raises is recorded as the op's failure."""
    ctx = loaded[op_instance(spec, op)]
    if spec["kind"] == "solve":
        config = subig.master.SolverConfig.from_setting(op["setting"], time_limit=limit_s)
        try:
            res = subig.master.solve(ctx.instance, ctx.oracle, config)
        except Exception as exc:  # noqa: BLE001 - the op's failure, reported
            return OpResult(None, "error", None, error=f"{type(exc).__name__}: {exc}")
        x = None if res.best_x is None else [i for i, v in enumerate(res.best_x) if v]
        return OpResult(res.value, res.status, x)
    removed = set(op["interdict"])
    x = [1.0 if i in removed else 0.0 for i in range(ctx.oracle.n)]
    try:
        value = subig.follower.phi(ctx.oracle, x, ctx.knapsacks, time_budget=limit_s)
    except Exception as exc:  # noqa: BLE001 - the op's failure, reported
        return OpResult(None, "error", None, error=f"{type(exc).__name__}: {exc}")
    return OpResult(value, "optimal", sorted(removed))


def bracket(subig, ctx: Loaded, interdict: Sequence[int]):
    """(greedy value, value of the full available set) under an interdiction:
    any exact follower optimum lies between them."""
    removed = set(interdict)
    avail = [i for i in range(ctx.oracle.n) if i not in removed]
    picked, _ = subig.follower.greedy(ctx.oracle, avail, knapsacks=ctx.knapsacks)
    return ctx.oracle.value(picked), ctx.oracle.value(avail)


def check_op(subig, spec: dict, op: dict, res: OpResult, loaded: Dict[str, Loaded]) -> str:
    """Empty string when the op's result is right, else the reason."""
    if res.error:
        return res.error
    if res.status != "optimal":
        return f"status {res.status}"
    ref = op["value"]
    if res.value is None or abs(res.value - ref) > REL_TOL * max(1.0, abs(ref)):
        return f"value {res.value!r} != reference {ref!r}"
    low, high = bracket(subig, loaded[op_instance(spec, op)], res.interdict)
    if not low - BRACKET_TOL * max(1.0, abs(low)) <= ref <= high + BRACKET_TOL * max(1.0, abs(high)):
        return f"reference {ref!r} outside [greedy {low!r}, full set {high!r}]"
    return ""


def op_label(spec: dict, op: dict) -> str:
    if spec["kind"] == "solve":
        return f"{op_instance(spec, op)}/{op['setting']}"
    return f"q{op['id']}"


def gen_seeds_of(spec: dict, ops: Sequence[dict]) -> List[int]:
    if spec["kind"] == "solve":
        return sorted({op["gen_seed"] for op in ops})
    return [spec["gen_seed"]]
