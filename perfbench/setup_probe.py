"""Time the set-up a user pays before the first op, in a fresh process:
import subig, load the instance files named on the command line and build
their oracles.  Prints the seconds taken.

    python3 perfbench/setup_probe.py FILE [FILE ...]
"""

import sys
import time

import workloads as W


def main(paths) -> None:
    t0 = time.perf_counter()
    subig = W.import_subig()
    for path in paths:
        subig.problems.load_instance(path).oracle()
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
