"""Exact branch-and-cut solver for interdiction games with monotone
submodular follower objectives, plus the two built-in game models."""

from .core import (
    CheckReport,
    KnapsackSystem,
    SubmodularOracle,
    check_submodular_monotone,
)
from .cuts import (
    Cut,
    DominatingLists,
    alternative_sic,
    basic_sic,
    default_ordering,
    improved_sic,
    lift_sic,
    relative_violation,
)
from .follower import (
    FollowerTimeout,
    SepResult,
    greedy,
    phi,
    solve_sep,
)
from .bruteforce import BruteForceResult, brute_force_phi, brute_force_solve
from .master import (
    SolveResult,
    SolverConfig,
    dominance_preprocess,
    fractional_candidate,
    gap,
    separate_fractional,
    separate_integer,
    solve,
)
from .problems import (
    BiigInstance,
    WmcigInstance,
    dump_instance,
    gen_biig,
    gen_wmcig,
    load_instance,
    parse_instance,
    write_instance,
)

__version__ = "0.1.0"
