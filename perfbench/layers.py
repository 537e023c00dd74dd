"""Which entry points of each subig layer the traced run wraps, and the
per-layer metrics derived from the spans and counts.

LP solves are attributed to their caller by wrapping the ``solve_lp`` name
that ``master`` and ``follower`` each import, so ``lp.master`` and
``lp.follower`` are separate spans.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

CUT_BUILDERS = ("basic_sic", "improved_sic", "lift_sic", "alternative_sic")

# name -> unit, in the order printed and declared in BENCHMARK.json
PER_LAYER: Dict[str, str] = {
    "lp.master.calls": "count",
    "lp.master.s": "s",
    "lp.master.rows_mean": "rows",
    "lp.follower.calls": "count",
    "lp.follower.s": "s",
    "lp.follower.rows_mean": "rows",
    "lp.factorizations": "count",
    "lp.iters_per_solve": "ratio",
    "follower.sep.calls": "count",
    "follower.sep.s": "s",
    "follower.sep.self_s": "s",
    "follower.lp_per_sep": "ratio",
    "follower.cutoff_ratio": "ratio",
    "follower.greedy.calls": "count",
    "follower.greedy.s": "s",
    "follower.self_s": "s",
    "core.gain.calls": "count",
    "core.gain.s": "s",
    "cuts.built": "count",
    "cuts.s": "s",
    "cuts.self_s": "s",
    "cuts.added": "count",
    "cuts.yield": "ratio",
    "master.nodes": "count",
    "master.lp_per_node": "ratio",
    "master.sep_int.calls": "count",
    "master.sep_int.s": "s",
    "master.sep_frac.calls": "count",
    "master.sep_frac.s": "s",
    "master.frac_yield": "ratio",
    "master.self_s": "s",
    "problems.load_s": "s",
    "problems.oracle_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
    "trace.absent_hooks": "count",
}


def _lp_rows(args, kwargs, result):
    return {"rows": args[0].n_rows}


def install(tracer, subig, oracles: Iterable) -> None:
    """Wrap every measured entry point; absent targets are recorded."""
    master, follower, cuts, lp = subig.master, subig.follower, subig.cuts, subig.lp
    tracer.wrap(
        master, "solve", "master.solve",
        lambda a, k, r: {"nodes": r.nodes, "cuts_added": sum(r.cuts_by_family.values())},
    )
    tracer.wrap(master, "separate_integer", "master.sep_int")
    tracer.wrap(master, "separate_fractional", "master.sep_frac", lambda a, k, r: {"hits": int(bool(r))})
    tracer.wrap(master, "solve_lp", "lp.master", _lp_rows)
    tracer.wrap(follower, "solve_lp", "lp.follower", _lp_rows)
    tracer.wrap(
        follower, "solve_sep", "follower.sep",
        lambda a, k, r: {"cutoff": int(r.status == "cutoff_exceeded")},
    )
    tracer.wrap(follower, "greedy", "follower.greedy")
    tracer.wrap(follower, "phi", "follower.phi")
    for builder in CUT_BUILDERS:
        tracer.wrap(cuts, builder, f"cuts.{builder}")
    tracer.count(lp, "lu_factor", "lp.factorizations")
    for cls in sorted({type(o.scratch()) for o in oracles}, key=lambda c: c.__name__):
        tracer.aggregate(cls, "gain", "core.gain")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(tracer, wall_s: float, untraced_wall_s: float) -> Dict[str, float]:
    """Every PER_LAYER metric from one traced pass."""
    tot = tracer.totals()
    cnt = tracer.counts

    def calls(name: str) -> int:
        return tot.get(name, {}).get("calls", 0)

    def secs(name: str) -> float:
        return tot.get(name, {}).get("s", 0.0)

    def self_s(*names: str) -> float:
        return sum(tot.get(n, {}).get("self_s", 0.0) for n in names)

    follower_spans = ("follower.sep", "follower.greedy", "follower.phi")
    cut_spans = tuple(f"cuts.{b}" for b in CUT_BUILDERS)
    master_spans = ("master.solve", "master.sep_int", "master.sep_frac")
    lp_calls = calls("lp.master") + calls("lp.follower")
    built = sum(calls(n) for n in cut_spans)
    return {
        "lp.master.calls": calls("lp.master"),
        "lp.master.s": secs("lp.master"),
        "lp.master.rows_mean": _ratio(cnt["lp.master.rows"], calls("lp.master")),
        "lp.follower.calls": calls("lp.follower"),
        "lp.follower.s": secs("lp.follower"),
        "lp.follower.rows_mean": _ratio(cnt["lp.follower.rows"], calls("lp.follower")),
        "lp.factorizations": cnt["lp.factorizations"],
        "lp.iters_per_solve": _ratio(cnt["lp.factorizations"], lp_calls),
        "follower.sep.calls": calls("follower.sep"),
        "follower.sep.s": secs("follower.sep"),
        "follower.sep.self_s": self_s("follower.sep"),
        "follower.lp_per_sep": _ratio(calls("lp.follower"), calls("follower.sep")),
        "follower.cutoff_ratio": _ratio(cnt["follower.sep.cutoff"], calls("follower.sep")),
        "follower.greedy.calls": calls("follower.greedy"),
        "follower.greedy.s": secs("follower.greedy"),
        "follower.self_s": self_s(*follower_spans),
        "core.gain.calls": cnt["core.gain.calls"],
        "core.gain.s": tracer.agg_s.get("core.gain", 0.0),
        "cuts.built": built,
        "cuts.s": sum(secs(n) for n in cut_spans),
        "cuts.self_s": self_s(*cut_spans),
        "cuts.added": cnt["master.solve.cuts_added"],
        "cuts.yield": _ratio(cnt["master.solve.cuts_added"], built),
        "master.nodes": cnt["master.solve.nodes"],
        "master.lp_per_node": _ratio(calls("lp.master"), cnt["master.solve.nodes"]),
        "master.sep_int.calls": calls("master.sep_int"),
        "master.sep_int.s": secs("master.sep_int"),
        "master.sep_frac.calls": calls("master.sep_frac"),
        "master.sep_frac.s": secs("master.sep_frac"),
        "master.frac_yield": _ratio(cnt["master.sep_frac.hits"], calls("master.sep_frac")),
        "master.self_s": self_s(*master_spans),
        "problems.load_s": secs("problems.load"),
        "problems.oracle_s": secs("problems.oracle"),
        "trace.wall_s": wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead": _ratio(wall_s, untraced_wall_s) - 1.0,
        "trace.absent_hooks": len(tracer.absent),
    }


def layer_self_times(m: Dict[str, float]) -> Tuple[Tuple[str, float], ...]:
    """Self time of each layer, largest first: the split of the traced wall
    time that says which layer leads."""
    rows = {
        "lp.master": m["lp.master.s"],
        "lp.follower": m["lp.follower.s"],
        "follower": m["follower.self_s"],
        "core": m["core.gain.s"],
        "cuts": m["cuts.self_s"],
        "master": m["master.self_s"],
    }
    return tuple(sorted(rows.items(), key=lambda kv: -kv[1]))
