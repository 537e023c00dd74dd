"""Outer branch-and-cut: minimize the follower's defended value over
interdictions.

The node relaxation is  min w  over the leader polytope plus all interdiction
cuts accumulated so far (cuts are globally valid and never dropped).  Integer
candidates are separated exactly through the follower solver; fractional
points get one heuristic separation round per node (strategies S1/S2/S3).
Node selection is best-bound, branching is most-fractional.  The root LP
starts from the slack basis; each later LP starts from the optimal basis of
the one before it, which a child node inherits from its parent.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import cuts as cutgen
from . import follower
from .core import KnapsackSystem, SubmodularOracle
from .cuts import Cut
from .follower import INT_TOL
from .lp import Basis, DeadlineExceeded, LpModel, solve_lp, INFEASIBLE

VIOL_TOL = 1e-6
FRAC_VIOLATION_THRESHOLD = 0.01  # relative violation a fractional cut must exceed

STATUS_OPTIMAL = "optimal"
STATUS_TIME = "time_limit"
STATUS_NODES = "node_limit"

_SETTING_RE = re.compile(r"^[BI]L?D?A?E?-S[123]$")
# the incremental ladder: each step adds one component, under every strategy
LADDER_SETTINGS = tuple(
    f"{base}-S{s}" for base in ("B", "I", "IL", "ILD", "ILDA", "ILDAE") for s in "123"
)
ALL_SETTINGS = tuple(
    f"{fam}{l}{d}{a}{e}-S{s}"
    for fam, l, d, a, e, s in itertools.product(
        "BI", ("", "L"), ("", "D"), ("", "A"), ("", "E"), "123"
    )
)


@dataclass(frozen=True)
class SolverConfig:
    """A setting such as 'ILDAE-S2' and the run's limits.  The setting names
    the cut family (B basic, I improved), the optional components L (lift),
    D (dominance rows), A (alternative cuts) and E (enhanced integer
    separation), and the fractional strategy S1-S3."""

    setting: str = "I-S1"
    time_limit: float = 3600.0
    node_limit: Optional[int] = None

    def __post_init__(self):
        if not _SETTING_RE.match(self.setting):
            raise ValueError(f"malformed setting string {self.setting!r}")
        # NaN fails this test too: a NaN deadline would never pass
        if not self.time_limit >= 0.0:
            raise ValueError(f"time limit must be zero or more seconds, got {self.time_limit}")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError(f"node limit must be zero or more, got {self.node_limit}")

    @classmethod
    def from_setting(cls, setting: str, **limits) -> "SolverConfig":
        """The config for a setting string, surrounding whitespace ignored."""
        return cls(setting.strip(), **limits)

    # each part of the setting, read off the string, whose only other
    # capitals are the family letter and the strategy's S
    cut_family = property(lambda self: "improved" if self.setting[0] == "I" else "basic")
    enable_lift = property(lambda self: "L" in self.setting)
    enable_dominance = property(lambda self: "D" in self.setting)
    enable_alternative = property(lambda self: "A" in self.setting)
    enable_enhanced_int_sep = property(lambda self: "E" in self.setting)
    frac_strategy = property(lambda self: self.setting[-2:])


@dataclass
class SolveResult:
    value: Optional[float]
    lower_bound: float
    best_x: Optional[Tuple[int, ...]]
    gap: float
    root_gap: float
    nodes: int
    cuts_by_family: Dict[str, int]
    status: str
    runtime: float
    events: List[Dict[str, object]] = field(default_factory=list)

    @property
    def cut_total(self) -> int:
        return sum(self.cuts_by_family.values())


def gap(z_star: Optional[float], z_lower: float) -> float:
    """Optimality gap percentage with the +0.1 denominator guard."""
    if z_star is None:
        return 100.0
    return 100.0 * (z_star - z_lower) / (0.1 + z_star)


def dominance_preprocess(
    dominating: Mapping[int, Tuple[int, ...]], leader: KnapsackSystem
) -> List[Tuple[int, int]]:
    """Pairs (i, j) justifying the inequality x_i >= x_j: i is at least as
    useful for the follower, no costlier, and no costlier for the leader.
    When both directions hold only the (min, max) orientation is kept."""
    pairs = {
        (i, j) for j, cands in dominating.items() for i in cands if leader.cost_le(i, j)
    }
    return sorted((i, j) for i, j in pairs if not ((j, i) in pairs and j < i))


def _rounding_ground_set(x_star: Sequence[float], leader: KnapsackSystem) -> List[int]:
    """S2: interdict the items at 1 in x*, then each other item in order of
    decreasing x*_i (ties to the lower id) that the leader budget still
    allows; what stays uninterdicted is the ground set.  (Costs are
    non-negative, so an item that does not fit never fits later.)"""
    n = len(x_star)
    ones = [i for i in range(n) if x_star[i] >= 1.0 - INT_TOL]
    weight = leader.weight(ones)
    fit = leader.fitting(weight)
    for i in sorted(set(range(n)).difference(ones), key=lambda i: (-x_star[i], i)):
        if fit[i]:
            ones.append(i)
            weight += leader.item_cost(i)
            fit = leader.fitting(weight)
    return [i for i in range(n) if i not in ones]


def fractional_candidate(
    oracle: SubmodularOracle,
    x_star: Sequence[float],
    strategy: str,
    cut_family: str,
    knapsacks: KnapsackSystem,
    leader: KnapsackSystem,
) -> Tuple[frozenset, Tuple[int, ...]]:
    """Heuristic generating set and ordering for a fractional leader point."""
    n = oracle.n
    if strategy == "S3":
        if cut_family == "improved":
            score = lambda i, g: g * (1.0 - x_star[i])
        else:
            rho0 = oracle.rho_empty()
            score = lambda i, g: g - float(rho0[i]) * x_star[i]
        return follower.greedy(oracle, range(n), knapsacks, score=score)
    if strategy == "S1":
        ground = [i for i in range(n) if x_star[i] <= INT_TOL]
    elif strategy == "S2":
        ground = _rounding_ground_set(x_star, leader)
    else:
        raise ValueError(f"unknown fractional strategy {strategy!r}")
    s_hat, order = follower.greedy(oracle, ground, knapsacks=knapsacks)
    if cut_family == "improved":
        s_hat, order = follower.greedy(oracle, range(n), knapsacks, order)
    return s_hat, order


def _build_cuts(
    oracle: SubmodularOracle,
    knapsacks: KnapsackSystem,
    config: SolverConfig,
    s_hat: Iterable[int],
    ordering: Sequence[int],
    x_star: Sequence[float],
    dominating: Mapping[int, Tuple[int, ...]],
) -> List[Cut]:
    """The main cut (lifted under L) and, under A, the alternative cut when
    it has exchange pairs.  At a binary x* every member of the follower set
    is uninterdicted, so no exchange spread is positive and the alternative
    cut has none."""
    if config.cut_family == "improved":
        base = cutgen.improved_sic(oracle, s_hat, ordering)
    else:
        base = cutgen.basic_sic(oracle, s_hat)
    main = base
    if config.enable_lift:
        main = cutgen.lift_sic(oracle, base, x_star, dominating)
    out = [main]
    if config.enable_alternative:
        alt = cutgen.alternative_sic(oracle, base, x_star, knapsacks)
        if alt.pairs:
            out.append(alt)
    return out


def separate_fractional(
    oracle: SubmodularOracle,
    knapsacks: KnapsackSystem,
    leader: KnapsackSystem,
    config: SolverConfig,
    dominating: Mapping[int, Tuple[int, ...]],
    w_star: float,
    x_star: Sequence[float],
) -> List[Cut]:
    """Candidate set via the configured strategy; keep cuts whose relative
    violation clears the threshold."""
    s_hat, order = fractional_candidate(
        oracle, x_star, config.frac_strategy, config.cut_family, knapsacks, leader
    )
    if not s_hat:
        return []
    built = _build_cuts(oracle, knapsacks, config, s_hat, order, x_star, dominating)
    return [
        c
        for c in built
        if cutgen.relative_violation(c, w_star, x_star) > FRAC_VIOLATION_THRESHOLD
    ]


def separate_integer(
    oracle: SubmodularOracle,
    knapsacks: KnapsackSystem,
    config: SolverConfig,
    w_star: float,
    x_star: Sequence[float],
    dominating: Mapping[int, Tuple[int, ...]],
    phi_cache: Dict[frozenset, Tuple[float, frozenset]],
    deadline: float = math.inf,
) -> Tuple[List[Cut], Optional[float]]:
    """Exact separation at a binary leader point: one follower solve, which
    under E runs in cutoff mode at w* + VIOL_TOL, the same test as for an
    exact value (its greedy start alone may already exceed it).  Returns ([], phi) when no violated cut exists, meaning the
    candidate is incumbent-acceptable with exactly that defended value;
    otherwise a violated cut list and, when the follower run happened to be
    exact, the value alongside."""
    avail = frozenset(i for i in range(oracle.n) if x_star[i] <= INT_TOL)
    phi_val: Optional[float] = None
    cached = phi_cache.get(avail)
    if cached is not None:
        phi_val, s_hat = cached
        if phi_val <= w_star + VIOL_TOL:
            return [], phi_val
    else:
        res = follower.solve_sep(
            oracle, avail, knapsacks,
            cutoff=w_star + VIOL_TOL if config.enable_enhanced_int_sep else None,
            deadline=deadline,
        )
        if res.status == follower.OPTIMAL:
            phi_val = res.value
            phi_cache[avail] = (res.value, res.items)
            if res.value <= w_star + VIOL_TOL:
                return [], res.value
        s_hat = res.items
    ordering = cutgen.default_ordering(oracle, s_hat)
    built = _build_cuts(oracle, knapsacks, config, s_hat, ordering, x_star, dominating)
    return built, phi_val


@dataclass(order=True)
class _Node:
    bound: float
    seq: int
    fixings: Dict[int, int] = field(compare=False)
    basis: Optional[Basis] = field(default=None, compare=False)  # the parent's last LP


def _capped(bound: float, inc_val: Optional[float]) -> float:
    return bound if inc_val is None else min(bound, inc_val)


class InterdictionSolver:
    """One branch-and-cut run over a single instance; single-threaded.

    LP column i is item i's interdiction x_i, and column n is w."""

    def __init__(self, instance, oracle: SubmodularOracle, config: SolverConfig):
        self.oracle = oracle
        self.config = config
        self.n = oracle.n
        self.knapsacks = instance.knapsacks()
        self.leader = instance.leader_budget()
        need_lists = config.enable_lift or config.enable_dominance
        self.dominating = instance.dominating_lists() if need_lists else {}
        self.phi_cache: Dict[frozenset, Tuple[float, frozenset]] = {}
        self.cut_counts = {f: 0 for f in (cutgen.BASIC, cutgen.IMPROVED, cutgen.LIFTED, cutgen.ALTERNATIVE)}
        self.events: List[Dict[str, object]] = []
        self._build_model()

    def _build_model(self):
        # columns: x_0 .. x_{n-1} in [0, 1], then the objective w >= 0
        self.w = self.n
        ub = np.append(np.ones(self.n), np.inf)
        model = LpModel(np.zeros(self.n + 1), ub, np.append(np.zeros(self.n), 1.0))
        for costs, cap in zip(self.leader.costs, self.leader.caps):
            model.add_row(dict(enumerate(costs)), cap)
        if self.config.enable_dominance:
            for i, j in dominance_preprocess(self.dominating, self.leader):
                model.add_row({j: 1.0, i: -1.0}, 0.0)
        self.model = model
        # root cut: improved SIC from a greedy follower run, so the first
        # relaxation is bounded away from w >= 0
        s0, _ = follower.greedy(self.oracle, range(self.n), knapsacks=self.knapsacks)
        if s0:
            cut = cutgen.improved_sic(self.oracle, s0, cutgen.default_ordering(self.oracle, s0))
            self._add_cut(cut)

    def _add_cut(self, cut: Cut) -> bool:
        if not self.model.add_row({**cut.g, self.w: -1.0}, -cut.c0):
            return False
        self.cut_counts[cut.family] += 1
        return True

    def solve(self) -> SolveResult:
        """Best-bound search.  The lower bound is the least bound among the
        open nodes, capped by the incumbent."""
        t0 = time.monotonic()
        deadline = t0 + self.config.time_limit
        inc_val: Optional[float] = None
        inc_x: Optional[Tuple[int, ...]] = None
        status = STATUS_OPTIMAL
        seq = itertools.count()
        heap: List[_Node] = [_Node(bound=0.0, seq=next(seq), fixings={})]

        def lower_bound() -> Optional[float]:
            return _capped(heap[0].bound, inc_val) if heap else inc_val

        while heap:
            if self.config.node_limit is not None and len(self.events) >= self.config.node_limit:
                status = STATUS_NODES
                break
            if inc_val is not None and heap[0].bound >= inc_val - VIOL_TOL:
                heap.clear()  # best-bound order: no open node can improve
                break
            node = heapq.heappop(heap)
            try:
                bound, incumbent, children, basis = self._process_node(node, inc_val, deadline)
            except DeadlineExceeded:  # from any LP of the node, the follower's included
                status = STATUS_TIME
                heapq.heappush(heap, node)
                break
            if incumbent is not None and (inc_val is None or incumbent[0] < inc_val - 1e-12):
                inc_val, inc_x = incumbent
            for fixings in children:
                heapq.heappush(heap, _Node(bound, next(seq), fixings, basis))
            self.events.append(
                {
                    "node": len(self.events) + 1,
                    "bound": bound,
                    "lb": lower_bound(),
                    "incumbent": inc_val,
                    **{f"cuts_{k}": v for k, v in self.cut_counts.items()},
                }
            )

        lb = lower_bound()
        root = self.events[0] if self.events else {"bound": 0.0, "incumbent": None}
        return SolveResult(
            value=inc_val,
            lower_bound=lb,
            best_x=inc_x,
            gap=gap(inc_val, lb),
            root_gap=gap(root["incumbent"], _capped(root["bound"], root["incumbent"])),
            nodes=len(self.events),
            cuts_by_family=dict(self.cut_counts),
            status=status,
            runtime=time.monotonic() - t0,
            events=self.events,
        )

    def _process_node(self, node: _Node, inc_val: Optional[float], deadline: float):
        """(bound, incumbent or None, fixings of each child, last LP basis)
        of one node.  Each LP starts from the basis of the one before it: the
        parent's last, then this node's previous round.  A fixing or a new
        cut row keeps that basis dual feasible.  Every LP stops at ``deadline``."""
        fixed = {j: float(v) for j, v in node.fixings.items()}
        frac_done = False
        incumbent = None
        children: List[Dict[int, int]] = []
        bound = node.bound
        basis = node.basis
        while True:
            res = solve_lp(self.model, fixed, basis, deadline)
            if res.status == INFEASIBLE:
                break
            bound, basis = res.objective, res.basis
            if inc_val is not None and bound >= inc_val - VIOL_TOL:
                break
            xs = res.x[: self.n].tolist()
            w_star = res.x[self.w]
            frac = [i for i in range(self.n) if INT_TOL < xs[i] < 1.0 - INT_TOL]
            if not frac:
                x_hat = [1.0 if xs[i] > 0.5 else 0.0 for i in range(self.n)]
                built, phi_val = separate_integer(
                    self.oracle,
                    self.knapsacks,
                    self.config,
                    w_star,
                    x_hat,
                    self.dominating,
                    phi_cache=self.phi_cache,
                    deadline=deadline,
                )
                if sum(self._add_cut(c) for c in built):
                    continue
                # no violated cut, or each one duplicated an existing row:
                # accept at the exact defended value
                if phi_val is None:
                    avail = [i for i in range(self.n) if x_hat[i] == 0.0]
                    phi_val = follower.solve_sep(
                        self.oracle, avail, self.knapsacks, deadline=deadline
                    ).value
                incumbent = (phi_val, tuple(int(v) for v in x_hat))
                break
            if not frac_done:
                frac_done = True
                built = separate_fractional(
                    self.oracle,
                    self.knapsacks,
                    self.leader,
                    self.config,
                    self.dominating,
                    w_star,
                    xs,
                )
                if sum(self._add_cut(c) for c in built):
                    continue
            pick = min(frac, key=lambda i: (abs(xs[i] - 0.5), i))
            for val in (0, 1):
                fixings = {**node.fixings, pick: val}
                if val == 0 or self.leader.fits(j for j, v in fixings.items() if v == 1):
                    children.append(fixings)
            break
        return bound, incumbent, children, basis


def solve(instance, oracle: SubmodularOracle, config: SolverConfig) -> SolveResult:
    """Exact minimum of the follower's defended value over the leader region."""
    return InterdictionSolver(instance, oracle, config).solve()

