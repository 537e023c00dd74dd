#!/usr/bin/env python3
"""Solve each instance under every cut/separation setting through
`subig bench` and print one table row per run: status, value, nodes, cuts
by family, runtime.  Exits 1 if a run does not end optimal (printed as
`NOT OPTIMAL <instance> <setting> <status>`, where an instance that cannot
be read or solved has status `error`) or if one instance's optimal values
spread by more than 1e-6, so it gates that the components change the
search path without changing the answer; exits 2 on a usage error.  The
manifest and the CSV stay in a temporary directory, so that a failing run
can be repeated.

    PYTHONPATH=src python3 scripts/settings_sweep.py INSTANCE... [--full] [--threads 2]
"""

import argparse
import csv
import sys
import tempfile
from pathlib import Path

from subig import cli, master
from subig.cuts import FAMILIES

AGREE_TOL = cli.BIIG_VERIFY_TOL


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("instances", nargs="+", help="instance files (wmcig or biig format)")
    ap.add_argument("--full", action="store_true",
                    help="all 96 combinations instead of the incremental ladder")
    ap.add_argument("--time-limit", type=float, default=600.0)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args(argv)
    for path in args.instances:
        if path.split() != [path]:  # the manifest splits its lines on whitespace
            ap.error(f"instance path {path!r} is empty or holds whitespace")

    workdir = Path(tempfile.mkdtemp(prefix="subig-sweep-"))
    settings = master.ALL_SETTINGS if args.full else master.LADDER_SETTINGS
    manifest = workdir / "manifest.txt"
    manifest.write_text("".join(f"{p} {s}\n" for p in args.instances for s in settings))
    out = workdir / "runs.csv"
    rc = cli.main(["bench", str(manifest), "--out", str(out), "--threads", str(args.threads),
                   "--time-limit", str(args.time_limit)])
    if rc == 2:
        return rc

    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    width = max(len(p) for p in args.instances)
    print(f"{'instance':<{width}} {'setting':<12} {'status':>10} {'value':>12} {'nodes':>7} "
          f"{'cuts':>6} {'b/i/l/a':>13} {'time':>8}")
    values = {}
    not_optimal = 0
    for row in rows:
        fam = "/".join(row[f"sic_{f}"] for f in FAMILIES)
        time_s = f"{float(row['time_s']):.2f}s" if row["time_s"] else ""
        print(f"{row['instance']:<{width}} {row['setting']:<12} {row['status']:>10} "
              f"{row['UB']:>12} {row['nodes']:>7} {row['sic_total']:>6} {fam:>13} {time_s:>8}")
        if row["status"] == master.STATUS_OPTIMAL and row["UB"]:
            values.setdefault(row["instance"], []).append(float(row["UB"]))
        else:
            print(f"NOT OPTIMAL {row['instance']} {row['setting']} {row['status']}",
                  file=sys.stderr)
            not_optimal += 1
    spreads = {inst: max(vals) - min(vals) for inst, vals in values.items()}
    disagreements = {inst: s for inst, s in spreads.items() if s > AGREE_TOL}
    for inst, spread in disagreements.items():
        print(f"DISAGREEMENT {inst}: spread {spread:.3g} (tolerance {AGREE_TOL:g})",
              file=sys.stderr)
    print(f"{len(rows)} runs, {not_optimal} not optimal, largest spread "
          f"{max(spreads.values(), default=0.0):.3g} -> {out}")
    return 1 if not_optimal or disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
