#!/usr/bin/env python3
"""Generate a batch of coverage instances, solve each under the incremental
setting ladder (B, I, IL, ILD, ILDA, ILDAE crossed with S1-S3), and write the
per-run records to CSV.  Exits 1 if a run does not end optimal (printed as
``NOT OPTIMAL <instance> <setting> <status>``) or if two optimal settings
disagree on an instance's value.

    PYTHONPATH=src python3 scripts/consistency_bench.py [--n 30] [--instances 10]
"""

import argparse
import csv
import sys
import tempfile
from pathlib import Path

from subig import cli, master, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--r", type=int, default=2)
    ap.add_argument("--instances", type=int, default=10)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--time-limit", type=float, default=3600.0)
    ap.add_argument("--out", default="consistency_bench.csv")
    args = ap.parse_args(argv)

    # the instance files stay, so that a failing run can be repeated
    workdir = Path(tempfile.mkdtemp(prefix="subig-bench-"))
    paths = []
    for seed in range(1, args.instances + 1):
        inst = problems.gen_wmcig(args.n, args.r, 0.1, seed)
        path = workdir / f"bench-{seed}.wmcig"
        problems.write_instance(inst, str(path))
        paths.append(path)
    manifest = workdir / "manifest.txt"
    runs = (f"{p} {s}" for p in paths for s in master.LADDER_SETTINGS)
    manifest.write_text("\n".join(runs) + "\n")

    rc = cli.main([
        "bench", str(manifest), "--out", args.out,
        "--threads", str(args.threads), "--time-limit", str(args.time_limit),
    ])
    if rc != 0:
        return rc

    by_instance = {}
    not_optimal = 0
    with open(args.out) as fh:
        for row in csv.DictReader(fh):
            if row["status"] != master.STATUS_OPTIMAL:
                print(f"NOT OPTIMAL {row['instance']} {row['setting']} {row['status']}",
                      file=sys.stderr)
                not_optimal += 1
            else:
                by_instance.setdefault(row["instance"], set()).add(row["UB"])
    disagreements = {k: v for k, v in by_instance.items() if len(v) != 1}
    for name, vals in disagreements.items():
        print(f"DISAGREEMENT {name}: {sorted(vals)}", file=sys.stderr)
    print(f"{len(by_instance)} instances x {len(master.LADDER_SETTINGS)} settings -> {args.out}")
    return 1 if not_optimal or disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
