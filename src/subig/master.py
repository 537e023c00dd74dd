"""Outer branch-and-cut: minimize the follower's defended value over
interdictions.

The node relaxation is  min w  over the leader polytope plus all interdiction
cuts accumulated so far (cuts are globally valid and never dropped).  Integer
candidates are separated exactly through the follower solver; fractional
points get one heuristic separation round per node (strategies S1/S2/S3).
Node selection is best-bound, branching is most-fractional.
"""

from __future__ import annotations

import heapq
import re
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import cuts as cutgen
from . import follower
from .core import KnapsackSystem, SubmodularOracle
from .cuts import Cut, DominatingLists
from .follower import FollowerTimeout
from .lp import LpModel, solve_lp, INFEASIBLE

INT_TOL = 1e-6
VIOL_TOL = 1e-6
FRAC_VIOLATION_THRESHOLD = 0.01  # relative violation a fractional cut must exceed

STATUS_OPTIMAL = "optimal"
STATUS_TIME = "time_limit"
STATUS_NODES = "node_limit"

_SETTING_RE = re.compile(r"^([BI])(L?)(D?)(A?)(E?)-S([123])$")


@dataclass
class SolverConfig:
    cut_family: str = "improved"            # 'basic' or 'improved'
    enable_lift: bool = False
    enable_dominance: bool = False
    enable_alternative: bool = False
    enable_enhanced_int_sep: bool = False
    frac_strategy: str = "S1"
    time_limit: float = 3600.0
    node_limit: Optional[int] = None

    def __post_init__(self):
        if self.cut_family not in ("basic", "improved"):
            raise ValueError("cut_family must be 'basic' or 'improved'")
        if self.frac_strategy not in ("S1", "S2", "S3"):
            raise ValueError("frac_strategy must be one of S1, S2, S3")

    @classmethod
    def from_setting(cls, setting: str, **overrides) -> "SolverConfig":
        """Parse strings like 'B-S1' or 'ILDAE-S2'."""
        m = _SETTING_RE.match(setting.strip())
        if not m:
            raise ValueError(f"malformed setting string {setting!r}")
        fam, lift, dom, alt, enh, s = m.groups()
        return cls(
            cut_family="improved" if fam == "I" else "basic",
            enable_lift=bool(lift),
            enable_dominance=bool(dom),
            enable_alternative=bool(alt),
            enable_enhanced_int_sep=bool(enh),
            frac_strategy=f"S{s}",
            **overrides,
        )

    def setting(self) -> str:
        return (
            ("I" if self.cut_family == "improved" else "B")
            + ("L" if self.enable_lift else "")
            + ("D" if self.enable_dominance else "")
            + ("A" if self.enable_alternative else "")
            + ("E" if self.enable_enhanced_int_sep else "")
            + "-"
            + self.frac_strategy
        )


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


def dominance_preprocess(instance, oracle: SubmodularOracle) -> List[Tuple[int, int]]:
    """Pairs (i, j) justifying the inequality x_i >= x_j: i is at least as
    useful for the follower, no costlier, and no harder for the leader.  When
    both directions hold only the (min, max) orientation is kept."""
    dom = instance.dominating_lists()
    rows = instance.leader_rows()

    def leader_ok(i: int, j: int) -> bool:
        return all(coefs.get(i, 0.0) <= coefs.get(j, 0.0) for coefs, _ in rows)

    pairs = set()
    for j, cands in sorted(dom.lists.items()):
        for i in cands:
            if leader_ok(i, j):
                pairs.add((i, j))
    out = []
    for i, j in sorted(pairs):
        if (j, i) in pairs and j < i:
            continue  # keep only the min-id >= max-id orientation
        out.append((i, j))
    return out


def _leader_feasible(ones: Sequence[int], leader_rows) -> bool:
    """True when interdicting every item in ``ones`` keeps each leader row."""
    return all(sum(coefs.get(j, 0.0) for j in ones) <= rhs + 1e-9 for coefs, rhs in leader_rows)


def _rounding_ground_set(x_star: Sequence[float], leader_rows) -> List[int]:
    """S2: interdict the items at 1 in x*, then keep interdicting the largest
    x*_i (ties to the lower id) while the leader rows allow; what stays
    uninterdicted is the ground set."""
    n = len(x_star)
    ones = [i for i in range(n) if x_star[i] >= 1.0 - INT_TOL]
    while True:
        cands = [
            i for i in range(n) if i not in ones and _leader_feasible(ones + [i], leader_rows)
        ]
        if not cands:
            break
        ones.append(max(cands, key=lambda i: (x_star[i], -i)))
    return [i for i in range(n) if i not in ones]


def fractional_candidate(
    oracle: SubmodularOracle,
    x_star: Sequence[float],
    strategy: str,
    cut_family: str,
    knapsacks: KnapsackSystem,
    leader_rows=(),
) -> Tuple[frozenset, Tuple[int, ...]]:
    """Heuristic generating set and ordering for a fractional leader point."""
    n = oracle.n
    if strategy == "S3":
        rho0 = oracle.rho_empty()
        ev = oracle.scratch()
        weight = np.zeros(knapsacks.L)
        chosen: List[int] = []
        members: set = set()
        while True:
            best = None
            for i in range(n):
                if i in members:
                    continue
                if not knapsacks.fits_weight(weight + knapsacks.item_cost(i)):
                    continue
                g = ev.gain(i)
                if cut_family == "improved":
                    score = g * (1.0 - x_star[i])
                else:
                    score = g - float(rho0[i]) * x_star[i]
                if best is None or score > best[0] + 1e-12:
                    best = (score, i)
            if best is None or best[0] < 0.0:
                break
            _, pick = best
            ev.add(pick)
            members.add(pick)
            weight += knapsacks.item_cost(pick)
            chosen.append(pick)
        return frozenset(members), tuple(chosen)
    if strategy == "S1":
        ground = [i for i in range(n) if x_star[i] <= INT_TOL]
    elif strategy == "S2":
        ground = _rounding_ground_set(x_star, leader_rows)
    else:
        raise ValueError(f"unknown fractional strategy {strategy!r}")
    s_hat, order = follower.greedy(oracle, ground, knapsacks=knapsacks)
    if cut_family == "improved":
        s_hat, order = follower.greedy(oracle, range(n), knapsacks, s_hat, order)
    return s_hat, order


def _build_cuts(
    oracle: SubmodularOracle,
    knapsacks: KnapsackSystem,
    config: SolverConfig,
    s_hat: Iterable[int],
    ordering: Sequence[int],
    x_star: Sequence[float],
    dominating: DominatingLists,
    with_alternative: bool,
) -> List[Cut]:
    if config.cut_family == "improved":
        base = cutgen.improved_sic(oracle, s_hat, ordering)
    else:
        base = cutgen.basic_sic(oracle, s_hat)
    main = base
    if config.enable_lift:
        main = cutgen.lift_sic(oracle, s_hat, base, x_star, dominating)
    out = [main]
    if with_alternative and config.enable_alternative:
        alt = cutgen.alternative_sic(oracle, s_hat, base, x_star, knapsacks)
        if alt.pairs:
            out.append(alt)
    return out


def separate_fractional(
    oracle: SubmodularOracle,
    knapsacks: KnapsackSystem,
    leader_rows,
    config: SolverConfig,
    dominating: DominatingLists,
    w_star: float,
    x_star: Sequence[float],
) -> List[Cut]:
    """Candidate set via the configured strategy; keep cuts whose relative
    violation clears the threshold."""
    s_hat, order = fractional_candidate(
        oracle, x_star, config.frac_strategy, config.cut_family, knapsacks, leader_rows
    )
    if not s_hat:
        return []
    built = _build_cuts(
        oracle, knapsacks, config, s_hat, order, x_star, dominating, with_alternative=True
    )
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
    dominating: DominatingLists,
    phi_cache: Dict[frozenset, Tuple[float, frozenset]],
    time_budget: float | None = None,
) -> Tuple[List[Cut], Optional[float]]:
    """Exact separation at a binary leader point: one follower solve, which
    under E runs only when greedy finds no violated cut, and then in cutoff
    mode at w*.  Returns ([], phi) when no violated cut exists, meaning the
    candidate is incumbent-acceptable with exactly that defended value;
    otherwise a violated cut list and, when the follower run happened to be
    exact, the value alongside."""
    avail = frozenset(i for i in range(oracle.n) if x_star[i] <= INT_TOL)
    phi_val: Optional[float] = None
    s_hat: Optional[frozenset] = None
    cached = phi_cache.get(avail)
    if cached is not None:
        phi_val, s_hat = cached
        if phi_val <= w_star + VIOL_TOL:
            return [], phi_val
    else:
        enhanced = config.enable_enhanced_int_sep
        if enhanced:
            greedy_set, _ = follower.greedy(oracle, avail, knapsacks=knapsacks)
            if oracle.value(greedy_set) > w_star + VIOL_TOL:
                s_hat = greedy_set
        if s_hat is None:
            res = follower.solve_sep(
                oracle, avail, knapsacks,
                cutoff=w_star if enhanced else None, time_budget=time_budget,
            )
            if res.status == follower.TIMED_OUT:
                raise FollowerTimeout("integer separation timed out")
            if res.status == follower.OPTIMAL:
                phi_val = res.value
                phi_cache[avail] = (res.value, res.items)
                if res.value <= w_star + VIOL_TOL:
                    return [], res.value
            s_hat = res.items
    ordering = cutgen.default_ordering(oracle, s_hat)
    built = _build_cuts(
        oracle, knapsacks, config, s_hat, ordering, x_star, dominating, with_alternative=False
    )
    return built, phi_val


@dataclass(order=True)
class _Node:
    bound: float
    seq: int
    fixings: Dict[int, int] = field(compare=False)
    depth: int = field(compare=False, default=0)


class InterdictionSolver:
    """One branch-and-cut run over a single instance; single-threaded."""

    def __init__(self, instance, oracle: SubmodularOracle, config: SolverConfig):
        self.instance = instance
        self.oracle = oracle
        self.config = config
        self.n = oracle.n
        self.knapsacks = instance.knapsacks()
        self.leader_rows = instance.leader_rows()
        need_lists = config.enable_lift or config.enable_dominance
        self.dominating = instance.dominating_lists() if need_lists else DominatingLists.empty()
        self.phi_cache: Dict[frozenset, Tuple[float, frozenset]] = {}
        self.cut_counts = {f: 0 for f in (cutgen.BASIC, cutgen.IMPROVED, cutgen.LIFTED, cutgen.ALTERNATIVE)}
        self.events: List[Dict[str, object]] = []
        self._build_model()

    def _build_model(self):
        model = LpModel("min")
        self.xcol = [model.add_var(0.0, 1.0) for _ in range(self.n)]
        self.wcol = model.add_var(0.0, np.inf, obj=1.0)
        for coefs, rhs in self.leader_rows:
            model.add_row({self.xcol[i]: c for i, c in coefs.items()}, rhs)
        if self.config.enable_dominance:
            for i, j in dominance_preprocess(self.instance, self.oracle):
                model.add_row({self.xcol[j]: 1.0, self.xcol[i]: -1.0}, 0.0)
        self.model = model
        # root cut: improved SIC from a greedy follower run, so the first
        # relaxation is bounded away from w >= 0
        s0, _ = follower.greedy(self.oracle, range(self.n), knapsacks=self.knapsacks)
        if s0:
            cut = cutgen.improved_sic(self.oracle, s0, cutgen.default_ordering(self.oracle, s0))
            self._add_cut(cut)

    def _add_cut(self, cut: Cut) -> bool:
        row = {self.xcol[i]: g for i, g in cut.g.items()}
        row[self.wcol] = -1.0
        if not self.model.add_row(row, -cut.c0):
            return False
        self.cut_counts[cut.family] += 1
        return True

    def solve(self) -> SolveResult:
        t0 = time.monotonic()
        deadline = t0 + self.config.time_limit
        inc_val: Optional[float] = None
        inc_x: Optional[Tuple[int, ...]] = None
        lb = 0.0
        status = STATUS_OPTIMAL
        nodes_done = 0
        root_gap_value: Optional[float] = None
        counter = 0
        heap: List[_Node] = [_Node(bound=0.0, seq=counter, fixings={})]

        def remaining() -> float:
            return deadline - time.monotonic()

        while heap:
            if remaining() <= 0:
                status = STATUS_TIME
                break
            if self.config.node_limit is not None and nodes_done >= self.config.node_limit:
                status = STATUS_NODES
                break
            node = heapq.heappop(heap)
            lb = max(lb, node.bound)
            if inc_val is not None and node.bound >= inc_val - VIOL_TOL:
                lb = inc_val
                break  # best-bound order: nothing left can improve
            try:
                outcome = self._process_node(node, inc_val, remaining)
            except FollowerTimeout:
                status = STATUS_TIME
                heapq.heappush(heap, node)
                break
            nodes_done += 1
            if outcome.incumbent is not None:
                val, xs = outcome.incumbent
                if inc_val is None or val < inc_val - 1e-12:
                    inc_val = val
                    inc_x = xs
            for child in outcome.children:
                counter += 1
                heapq.heappush(
                    heap, _Node(bound=child[0], seq=counter, fixings=child[1], depth=node.depth + 1)
                )
            self.events.append(
                {
                    "node": nodes_done,
                    "bound": node.bound if outcome.bound is None else outcome.bound,
                    "lb": min(lb, inc_val) if inc_val is not None else lb,
                    "incumbent": inc_val,
                    **{f"cuts_{k}": v for k, v in self.cut_counts.items()},
                }
            )
            if root_gap_value is None:
                root_lb = outcome.bound if outcome.bound is not None else node.bound
                root_gap_value = gap(inc_val, min(root_lb, inc_val) if inc_val is not None else root_lb)

        if status == STATUS_OPTIMAL and inc_val is not None:
            # tree exhausted or fathomed by bound: the incumbent is optimal
            lb = inc_val
        if inc_val is not None:
            lb = min(lb, inc_val)
        runtime = time.monotonic() - t0
        return SolveResult(
            value=inc_val,
            lower_bound=lb,
            best_x=inc_x,
            gap=gap(inc_val, lb),
            root_gap=root_gap_value if root_gap_value is not None else 100.0,
            nodes=nodes_done,
            cuts_by_family=dict(self.cut_counts),
            status=status,
            runtime=runtime,
            events=self.events,
        )

    @dataclass
    class _Outcome:
        bound: Optional[float]
        incumbent: Optional[Tuple[float, Tuple[int, ...]]]
        children: List[Tuple[float, Dict[int, int]]]

    def _process_node(self, node: _Node, inc_val: Optional[float], remaining) -> "_Outcome":
        fixed = {self.xcol[j]: float(v) for j, v in node.fixings.items()}
        frac_done = False
        incumbent = None
        children: List[Tuple[float, Dict[int, int]]] = []
        bound: Optional[float] = None
        while True:
            if remaining() <= 0:
                raise FollowerTimeout("node processing out of time")
            res = solve_lp(self.model, fixed)
            if res.status == INFEASIBLE:
                break
            bound = res.objective
            if inc_val is not None and bound >= inc_val - VIOL_TOL:
                break
            xs = [res.x[self.xcol[i]] for i in range(self.n)]
            w_star = res.x[self.wcol]
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
                    time_budget=remaining(),
                )
                if built:
                    added = sum(self._add_cut(c) for c in built)
                    if added:
                        continue
                    # violated cuts all duplicated existing rows: accept
                    # at the exact defended value
                    if phi_val is None:
                        phi_val = follower.phi(
                            self.oracle, x_hat, self.knapsacks, time_budget=remaining()
                        )
                incumbent = (phi_val, tuple(int(v) for v in x_hat))
                break
            if not frac_done:
                frac_done = True
                built = separate_fractional(
                    self.oracle,
                    self.knapsacks,
                    self.leader_rows,
                    self.config,
                    self.dominating,
                    w_star,
                    xs,
                )
                if built:
                    added = sum(self._add_cut(c) for c in built)
                    if added:
                        continue
            pick = min(frac, key=lambda i: (abs(xs[i] - 0.5), i))
            for val in (0, 1):
                fixings = dict(node.fixings)
                fixings[pick] = val
                ones = [j for j, v in fixings.items() if v == 1]
                if val == 1 and not _leader_feasible(ones, self.leader_rows):
                    continue
                children.append((bound, fixings))
            break
        return self._Outcome(bound=bound, incumbent=incumbent, children=children)


def solve(instance, oracle: SubmodularOracle, config: SolverConfig) -> SolveResult:
    """Exact minimum of the follower's defended value over the leader region."""
    return InterdictionSolver(instance, oracle, config).solve()


def write_run_log(result: SolveResult, path: str) -> None:
    """One CSV line per processed node: bound, incumbent, cut counters."""
    import csv

    fields = ["node", "bound", "lb", "incumbent",
              "cuts_basic", "cuts_improved", "cuts_lifted", "cuts_alternative"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in result.events:
            writer.writerow({k: row.get(k) for k in fields})
