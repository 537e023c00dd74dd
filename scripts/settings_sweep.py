#!/usr/bin/env python3
"""Solve one instance under every cut/separation setting and print a small
table: status, value, nodes, cuts by family, runtime.  Exits 1 unless every
run ends optimal and all values agree within 1e-6, so it can gate that the
components change the search path without changing the answer.

    PYTHONPATH=src python3 scripts/settings_sweep.py INSTANCE [--full]
"""

import argparse
import sys

from subig import master, problems

AGREE_TOL = 1e-6  # the BIIG tolerance of `subig verify`


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("instance", help="instance file (wmcig or biig format)")
    ap.add_argument("--full", action="store_true",
                    help="all 96 combinations instead of the incremental ladder")
    ap.add_argument("--time-limit", type=float, default=600.0)
    args = ap.parse_args(argv)

    inst = problems.load_instance(args.instance)
    oracle = inst.oracle()
    settings = master.ALL_SETTINGS if args.full else master.LADDER_SETTINGS

    print(f"{'setting':<12} {'status':>10} {'value':>12} {'nodes':>7} {'cuts':>6} "
          f"{'b/i/l/a':>13} {'time':>8}")
    values = []
    not_optimal = []
    for setting in settings:
        config = master.SolverConfig.from_setting(setting, time_limit=args.time_limit)
        res = master.solve(inst, oracle, config)
        fam = res.cuts_by_family
        if res.status != master.STATUS_OPTIMAL or res.value is None:
            not_optimal.append(setting)
        else:
            values.append(res.value)
        print(f"{setting:<12} {res.status:>10} {res.value!s:>12} {res.nodes:>7} "
              f"{res.cut_total:>6} "
              f"{fam['basic']}/{fam['improved']}/{fam['lifted']}/{fam['alternative']:>4} "
              f"{res.runtime:>7.2f}s")
    spread = max(values) - min(values) if values else 0.0
    print(f"not optimal: {len(not_optimal)} {' '.join(not_optimal)}".rstrip())
    print(f"spread of optimal values: {spread:.3g} (tolerance {AGREE_TOL:g})")
    return 0 if not not_optimal and spread <= AGREE_TOL else 1


if __name__ == "__main__":
    sys.exit(main())
