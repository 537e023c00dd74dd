#!/usr/bin/env python3
"""Generate a batch of coverage instances, solve each under the incremental
setting ladder (B, I, IL, ILD, ILDA, ILDAE crossed with S1-S3), and write the
per-run records to CSV.  Exits non-zero if any two settings disagree on an
instance's optimal value."""

import argparse
import sys
import tempfile
from pathlib import Path

from subig import cli, problems
from subig.master import LADDER_SETTINGS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--r", type=int, default=2)
    ap.add_argument("--instances", type=int, default=10)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--time-limit", type=float, default=3600.0)
    ap.add_argument("--out", default="consistency_bench.csv")
    args = ap.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="subig-bench-"))
    paths = []
    for seed in range(1, args.instances + 1):
        inst = problems.gen_wmcig(args.n, args.r, 0.1, seed)
        path = workdir / f"bench-{seed}.wmcig"
        problems.write_instance(inst, str(path))
        paths.append(path)
    manifest = workdir / "manifest.txt"
    manifest.write_text("\n".join(f"{p} {s}" for p in paths for s in LADDER_SETTINGS) + "\n")

    rc = cli.main([
        "bench", str(manifest), "--out", args.out,
        "--threads", str(args.threads), "--time-limit", str(args.time_limit),
    ])
    if rc != 0:
        return rc

    import csv

    by_instance = {}
    with open(args.out) as fh:
        for row in csv.DictReader(fh):
            by_instance.setdefault(row["instance"], set()).add(row["UB"])
    disagreements = {k: v for k, v in by_instance.items() if len(v) != 1}
    for name, vals in disagreements.items():
        print(f"DISAGREEMENT {name}: {sorted(vals)}", file=sys.stderr)
    print(f"{len(by_instance)} instances x {len(LADDER_SETTINGS)} settings -> {args.out}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
