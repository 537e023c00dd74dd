"""Exact branch-and-cut solver for interdiction games with monotone
submodular follower objectives, plus the two built-in game models."""

import os

# The LPs are small, so a second BLAS thread only burns CPU (and
# oversubscribes the cores under ``subig bench --threads``).  This runs
# before the first numpy import; a value the user set still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import bruteforce, core, cuts, follower, lp, master, problems  # noqa: E402, F401

__version__ = "0.1.0"
