"""Exact branch-and-cut solver for interdiction games with monotone
submodular follower objectives, plus the two built-in game models."""

from . import bruteforce, core, cuts, follower, lp, master, problems

__version__ = "0.1.0"
