"""Command-line entry points: generate, solve, verify, bench.

Exit codes: 0 success, 1 runtime failure (including verify mismatch),
2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

from . import bruteforce, master, problems
from .cuts import FAMILIES
from .lp import SolverError

BIIG_VERIFY_TOL = 1e-6  # a BIIG value is a float sum whose last bits depend on its order


@dataclasses.dataclass
class RunRecord:
    """One run's CSV row.  A bench entry that failed (see ``failed``) keeps
    its path, setting and ``status="error"``, and None everywhere else."""

    instance: str
    family: str
    n: int
    m: int
    B: int
    k: int
    setting: str
    time_s: float
    UB: Optional[float]
    LB: float
    gap_pct: float
    rgap_pct: float
    nodes: int
    sic_total: int
    sic_basic: int
    sic_improved: int
    sic_lifted: int
    sic_alternative: int
    status: str

    def row(self) -> List[str]:
        out = []
        for col in RUN_COLUMNS:
            val = getattr(self, col)
            if val is None:
                out.append("")
            elif isinstance(val, float):
                out.append(f"{val:.12g}")
            else:
                out.append(str(val))
        return out

    @classmethod
    def failed(cls, path: str, setting: str) -> "RunRecord":
        return cls(**{**dict.fromkeys(RUN_COLUMNS), "instance": path, "setting": setting,
                      "status": "error"})


RUN_COLUMNS = [f.name for f in dataclasses.fields(RunRecord)]


def make_record(instance, setting: str, result: master.SolveResult) -> RunRecord:
    return RunRecord(
        instance=instance.name,
        family=instance.family,
        n=instance.n,
        m=instance.m,
        B=instance.B,
        k=instance.k,
        setting=setting,
        time_s=result.runtime,
        UB=result.value,
        LB=result.lower_bound,
        gap_pct=result.gap,
        rgap_pct=result.root_gap,
        nodes=result.nodes,
        sic_total=result.cut_total,
        **{f"sic_{f}": result.cuts_by_family[f] for f in FAMILIES},
        status=result.status,
    )


def _limits(args) -> dict:
    """The limit flags that were given: ``SolverConfig`` holds the defaults."""
    return {k: v for k in ("time_limit", "node_limit") if (v := getattr(args, k)) is not None}


def cmd_generate(args) -> int:
    if args.model == "wmcig":
        inst = problems.gen_wmcig(args.n, args.r, args.k_frac, args.seed)
    else:
        inst = problems.gen_biig(args.n, args.m_mult, args.B, args.k, args.d, args.seed)
    problems.write_instance(inst, args.out)
    print(f"wrote {args.out} ({inst.family} n={inst.n} m={inst.m} B={inst.B} k={inst.k})")
    return 0


def _solve_one(path: str, config: master.SolverConfig) -> RunRecord:
    """Load one instance file, solve it, and return its run record."""
    inst = problems.load_instance(path)
    result = master.solve(inst, inst.oracle(), config)
    return make_record(inst, config.setting, result)


def _bench_one(path: str, config: master.SolverConfig) -> RunRecord:
    """``_solve_one`` for a bench entry: an entry that cannot be read or
    solved is reported on stderr and recorded as failed, so the other
    entries still run."""
    try:
        return _solve_one(path, config)
    except (SolverError, OSError, ValueError) as exc:
        print(f"error: {path} {config.setting}: {exc}", file=sys.stderr)
        return RunRecord.failed(path, config.setting)


def cmd_solve(args) -> int:
    config = master.SolverConfig.from_setting(args.setting, **_limits(args))
    record = _solve_one(args.instance, config)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(RUN_COLUMNS)
    writer.writerow(record.row())
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_verify(args) -> int:
    config = master.SolverConfig.from_setting(args.setting, **_limits(args))
    inst = problems.load_instance(args.instance)
    oracle = inst.oracle()
    result = master.solve(inst, oracle, config)
    reference = bruteforce.brute_force_solve(inst, oracle)
    tol = 0.0 if inst.family == "WMCIG" else BIIG_VERIFY_TOL
    ok = (
        result.status == master.STATUS_OPTIMAL
        and result.value is not None
        and abs(result.value - reference.value) <= tol
    )
    print(
        f"{inst.name}: solver={result.value} brute_force={reference.value} "
        f"status={result.status} -> {'OK' if ok else 'MISMATCH'}"
    )
    return 0 if ok else 1


def cmd_bench(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    # the limits apply to every line: checked once, so an error names the flag, not a line
    limits = _limits(args)
    master.SolverConfig(**limits)
    paths: List[str] = []
    configs: List[master.SolverConfig] = []
    for lineno, ln in enumerate(problems.read_text(args.manifest).splitlines(), 1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<path> <setting>', got {ln!r}")
        try:
            config = master.SolverConfig.from_setting(parts[1], **limits)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        paths.append(parts[0])
        configs.append(config)
    # opened before any run, so a bad path fails before the work, not after
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        # the pool starts all its workers at the first submit: never more than runs
        workers = min(args.threads, len(paths))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(_bench_one, paths, configs))
        else:
            records = [_bench_one(p, c) for p, c in zip(paths, configs)]
        writer = csv.writer(fh)
        writer.writerow(RUN_COLUMNS)
        for rec in records:
            writer.writerow(rec.row())
    errors = sum(rec.status == "error" for rec in records)
    print(f"wrote {args.out} ({len(records)} runs, {errors} failed)")
    return 1 if errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subig",
        description="Branch-and-cut solver for submodular interdiction games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random instance file")
    models = gen.add_subparsers(dest="model", required=True)
    # no abbreviations: wmcig would read biig's --k as its own --k-frac
    wmcig = models.add_parser("wmcig", help="weighted maximal coverage interdiction instance",
                              allow_abbrev=False)
    wmcig.add_argument("--n", type=int, required=True)
    wmcig.add_argument("--r", type=int, default=2, help="coverage radius")
    wmcig.add_argument("--k-frac", type=float, default=0.1, dest="k_frac")
    biig = models.add_parser("biig", help="bipartite inference interdiction instance",
                             allow_abbrev=False)
    biig.add_argument("--n", type=int, required=True)
    biig.add_argument("--m-mult", type=int, default=2, dest="m_mult")
    biig.add_argument("--B", type=int, default=5)
    biig.add_argument("--k", type=int, default=5)
    biig.add_argument("--d", type=float, default=0.07, help="arc density")
    for model in (wmcig, biig):
        model.add_argument("--seed", type=int, default=0)
        model.add_argument("--out", required=True)
        model.set_defaults(func=cmd_generate)

    def add_limit_flags(p):
        p.add_argument("--time-limit", type=float)
        p.add_argument("--node-limit", type=int)

    def add_solver_flags(p):
        p.add_argument("--setting", default="ILDAE-S1")
        add_limit_flags(p)

    slv = sub.add_parser("solve", help="solve one instance and print a run record")
    slv.add_argument("instance")
    add_solver_flags(slv)
    slv.add_argument("--out", default=None)
    slv.set_defaults(func=cmd_solve)

    ver = sub.add_parser("verify", help="solve and compare against brute force")
    ver.add_argument("instance")
    add_solver_flags(ver)
    ver.set_defaults(func=cmd_verify)

    ben = sub.add_parser("bench", help="run a manifest of (instance, setting) pairs")
    ben.add_argument("manifest")
    ben.add_argument("--out", required=True)
    ben.add_argument("--threads", type=int, default=1)
    add_limit_flags(ben)
    ben.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # bad settings or malformed inputs are usage errors
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
