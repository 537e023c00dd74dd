"""Built-in interdiction game models, instance generators, and file formats.

Two follower objectives ship with the solver: weighted coverage (facilities
cover customers with profits; value of a set is the profit of customers
covered at least once) and bipartite activation (items activate targets
independently; value is the expected number sum of activated targets).
Both are monotone submodular with z(empty) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .core import Evaluator, KnapsackSystem, SubmodularOracle
from .cuts import DominatingLists

RNG_NAME = "pcg64"  # np.random.PCG64 seeded directly; draw order is documented
                    # in each generator


@dataclass(frozen=True)
class WmcigInstance:
    """Coverage interdiction: n facility sites, m customers with profits."""

    profits: Tuple[int, ...]            # per customer, >= 1
    cover: Tuple[frozenset, ...]        # customers covered per facility
    B: int                              # follower opens at most B facilities
    k: int                              # leader interdicts at most k sites
    name: str = "wmcig"
    provenance: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("at least one facility site required")
        if any(p < 1 for p in self.profits):
            raise ValueError("customer profits must be >= 1")
        if self.B < 0 or self.k < 0:
            raise ValueError("budgets must be non-negative")
        for js in self.cover:
            for j in js:
                if not 0 <= j < self.m:
                    raise ValueError(f"covered customer {j} out of range")

    @property
    def n(self) -> int:
        return len(self.cover)

    @property
    def m(self) -> int:
        return len(self.profits)

    @property
    def family(self) -> str:
        return "WMCIG"

    def oracle(self) -> "CoverageOracle":
        return CoverageOracle(self)

    def knapsacks(self) -> KnapsackSystem:
        return KnapsackSystem.cardinality(self.n, self.B)

    def leader_rows(self) -> List[Tuple[Dict[int, float], float]]:
        return [({i: 1.0 for i in range(self.n)}, float(self.k))]

    def dominating_lists(self) -> DominatingLists:
        return wmcig_superiority(self)


@dataclass(frozen=True)
class BiigInstance:
    """Activation interdiction: items hit targets through a bipartite graph."""

    probs: Tuple[float, ...]            # per item activation probability
    targets: int
    arcs: Tuple[Tuple[int, int], ...]   # (item, target) pairs
    B: int
    k: int
    name: str = "biig"
    provenance: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("at least one item required")
        if any(not 0.0 <= p <= 1.0 for p in self.probs):
            raise ValueError("activation probabilities must lie in [0, 1]")
        if self.B < 0 or self.k < 0:
            raise ValueError("budgets must be non-negative")
        for i, j in self.arcs:
            if not (0 <= i < self.n and 0 <= j < self.targets):
                raise ValueError(f"arc ({i},{j}) out of range")

    @property
    def n(self) -> int:
        return len(self.probs)

    @property
    def m(self) -> int:
        return self.targets

    @property
    def family(self) -> str:
        return "BIIG"

    def neighbor_targets(self) -> Tuple[frozenset, ...]:
        out: List[set] = [set() for _ in range(self.n)]
        for i, j in self.arcs:
            out[i].add(j)
        return tuple(frozenset(s) for s in out)

    def oracle(self) -> "ActivationOracle":
        return ActivationOracle(self)

    def knapsacks(self) -> KnapsackSystem:
        return KnapsackSystem.cardinality(self.n, self.B)

    def leader_rows(self) -> List[Tuple[Dict[int, float], float]]:
        return [({i: 1.0 for i in range(self.n)}, float(self.k))]

    def dominating_lists(self) -> DominatingLists:
        return biig_superiority(self)


class CoverageOracle(SubmodularOracle):
    """z(S) = total profit of customers covered by at least one member.

    Scratch state keeps a per-customer cover count and an exact integer total.
    """

    def __init__(self, inst: WmcigInstance):
        super().__init__()
        self.n = inst.n
        self.cover = tuple(tuple(sorted(js)) for js in inst.cover)
        self.profits = np.asarray(inst.profits, dtype=np.int64)

    def scratch(self) -> "_CoverageEvaluator":
        return _CoverageEvaluator(self)


class _CoverageEvaluator(Evaluator):
    def __init__(self, oracle: CoverageOracle):
        super().__init__(oracle)
        self._counts = np.zeros(len(oracle.profits), dtype=np.int64)
        self._total = 0

    @property
    def value(self) -> float:
        return float(self._total)

    def add(self, i):
        if i in self.members:
            return
        self.members.add(i)
        for j in self._oracle.cover[i]:
            if self._counts[j] == 0:
                self._total += int(self._oracle.profits[j])
            self._counts[j] += 1

    def remove(self, i):
        if i not in self.members:
            return
        self.members.discard(i)
        for j in self._oracle.cover[i]:
            self._counts[j] -= 1
            if self._counts[j] == 0:
                self._total -= int(self._oracle.profits[j])

    def gain(self, i):
        if i in self.members:
            return 0.0
        g = 0
        for j in self._oracle.cover[i]:
            if self._counts[j] == 0:
                g += int(self._oracle.profits[j])
        return float(g)


class ActivationOracle(SubmodularOracle):
    """z(S) = sum over targets of 1 - prod_{members hitting it} (1 - p_i).

    Scratch state keeps the per-target survival product, recomputed per
    affected target in ascending member order so values are reproducible.
    """

    def __init__(self, inst: BiigInstance):
        super().__init__()
        self.n = inst.n
        self.probs = np.asarray(inst.probs, dtype=float)
        self.neighbors = tuple(tuple(sorted(s)) for s in inst.neighbor_targets())
        hitters: List[List[int]] = [[] for _ in range(inst.targets)]
        for i in range(self.n):
            for j in self.neighbors[i]:
                hitters[j].append(i)
        self.hitters = tuple(tuple(sorted(h)) for h in hitters)
        self.targets = inst.targets

    def scratch(self) -> "_ActivationEvaluator":
        return _ActivationEvaluator(self)


class _ActivationEvaluator(Evaluator):
    def __init__(self, oracle: ActivationOracle):
        super().__init__(oracle)
        self._survive = np.ones(oracle.targets)

    def _recompute(self, j: int) -> None:
        prod = 1.0
        for i in self._oracle.hitters[j]:
            if i in self.members:
                prod *= 1.0 - self._oracle.probs[i]
        old = self._survive[j]
        self._survive[j] = prod
        self._value += old - prod

    def add(self, i):
        if i in self.members:
            return
        self.members.add(i)
        for j in self._oracle.neighbors[i]:
            self._recompute(j)

    def remove(self, i):
        if i not in self.members:
            return
        self.members.discard(i)
        for j in self._oracle.neighbors[i]:
            self._recompute(j)

    def gain(self, i):
        if i in self.members:
            return 0.0
        p = self._oracle.probs[i]
        g = 0.0
        for j in self._oracle.neighbors[i]:
            g += self._survive[j] * p
        return float(g)


def wmcig_superiority(inst: WmcigInstance) -> DominatingLists:
    """j can replace i when j covers everything i covers (and is no costlier);
    the replaced facility then contributes nothing next to its replacement."""
    knap = inst.knapsacks()
    lists: Dict[int, Tuple[int, ...]] = {}
    for i in range(inst.n):
        cands = [
            j
            for j in range(inst.n)
            if j != i and inst.cover[i] <= inst.cover[j] and knap.cost_le(j, i)
        ]
        if cands:
            lists[i] = tuple(cands)
    return DominatingLists(lists=lists, zero_replacement_gain=True)


def biig_superiority(inst: BiigInstance) -> DominatingLists:
    """j can replace i when j reaches every target i reaches with at least
    the same activation probability (cheap sufficient test, pairwise scan)."""
    knap = inst.knapsacks()
    nb = inst.neighbor_targets()
    lists: Dict[int, Tuple[int, ...]] = {}
    for i in range(inst.n):
        cands = [
            j
            for j in range(inst.n)
            if j != i
            and nb[i] <= nb[j]
            and inst.probs[j] >= inst.probs[i]
            and knap.cost_le(j, i)
        ]
        if cands:
            lists[i] = tuple(cands)
    return DominatingLists(lists=lists, zero_replacement_gain=False)


def gen_wmcig(n: int, r: float, k_frac: float, seed: int) -> WmcigInstance:
    """Random coverage instance: n customer points uniform in [0,10]^2,
    facility sites co-located with customers, integer profits in [1,100],
    coverage within Euclidean radius r, B = floor(0.1 n), k = floor(k_frac n).

    Draw order from PCG64(seed): coordinates (n x 2), then profits (n).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if r not in (1, 2, 3):
        raise ValueError("coverage radius must be one of 1, 2, 3")
    if not 0.0 < k_frac < 1.0:
        raise ValueError("k_frac must lie in (0, 1)")
    rng = np.random.Generator(np.random.PCG64(seed))
    coords = rng.uniform(0.0, 10.0, size=(n, 2))
    profits = rng.integers(1, 101, size=n)
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    cover = tuple(
        frozenset(np.flatnonzero(d2[i] <= r * r + 1e-12).tolist()) for i in range(n)
    )
    return WmcigInstance(
        profits=tuple(int(p) for p in profits),
        cover=cover,
        B=math.floor(0.1 * n),
        k=math.floor(k_frac * n),
        name=f"wmcig-n{n}-r{r}-s{seed}",
        provenance=f"seed={seed} params=n={n},r={r},k_frac={k_frac} rng={RNG_NAME}",
    )


def gen_biig(n: int, m_mult: int, B: int, k: int, d: float, seed: int) -> BiigInstance:
    """Random activation instance: m = m_mult * n targets, item probabilities
    uniform in [0,1], each (item, target) arc present independently with
    probability d.

    Draw order from PCG64(seed): probabilities (n), then the arc mask (n x m).
    """
    if n < 1 or m_mult < 1:
        raise ValueError("n and m_mult must be positive")
    if not 0.0 < d <= 1.0:
        raise ValueError("arc density must lie in (0, 1]")
    if B < 0 or k < 0:
        raise ValueError("budgets must be non-negative")
    rng = np.random.Generator(np.random.PCG64(seed))
    m = m_mult * n
    probs = rng.uniform(0.0, 1.0, size=n)
    mask = rng.random(size=(n, m)) < d
    arcs = tuple((int(i), int(j)) for i, j in np.argwhere(mask))
    return BiigInstance(
        probs=tuple(float(p) for p in probs),
        targets=m,
        arcs=arcs,
        B=B,
        k=k,
        name=f"biig-n{n}-m{m}-s{seed}",
        provenance=f"seed={seed} params=n={n},m_mult={m_mult},B={B},k={k},d={d} rng={RNG_NAME}",
    )


def write_instance(inst, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_instance(inst))


def dump_instance(inst) -> str:
    lines = []
    if inst.provenance:
        lines.append(f"# gen {inst.provenance}")
    if isinstance(inst, WmcigInstance):
        lines.append(f"WMCIG {inst.n} {inst.m} {inst.B} {inst.k}")
        lines.append("P " + " ".join(str(p) for p in inst.profits))
        for i in range(inst.n):
            js = sorted(inst.cover[i])
            lines.append(f"C {i} {len(js)}" + ("" if not js else " " + " ".join(map(str, js))))
    elif isinstance(inst, BiigInstance):
        lines.append(f"BIIG {inst.n} {inst.m} {inst.B} {inst.k}")
        lines.append("P " + " ".join(f"{p:.12g}" for p in inst.probs))
        arcs = sorted(inst.arcs)
        lines.append(f"A {len(arcs)}")
        for i, j in arcs:
            lines.append(f"{i} {j}")
    else:
        raise TypeError(f"unsupported instance type {type(inst)!r}")
    return "\n".join(lines) + "\n"


def load_instance(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_instance(text, name=path)


def parse_instance(text: str, name: str = "instance"):
    """Read the format ``dump_instance`` writes.  Malformed input raises a
    ValueError that names the 1-based line at fault."""
    rows = [
        (no, ln.split())
        for no, ln in enumerate(text.splitlines(), 1)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not rows:
        raise ValueError("empty instance file")
    pending = iter(rows)

    def take(what: str, tag: str | None, number=int, count: int | None = None) -> Tuple[int, list]:
        """The next line as (line number, numbers): the ``tag`` word, if
        any, must lead it, and ``count``, if given, numbers must follow."""
        no, toks = next(pending, (rows[-1][0], None))
        if toks is None:
            raise ValueError(f"line {no}: file ends before the {what}")
        if tag is not None:
            if toks[0] != tag:
                raise ValueError(f"line {no}: expected the {what}, starting with {tag!r}")
            toks = toks[1:]
        try:
            vals = [number(t) for t in toks]
        except ValueError:
            raise ValueError(f"line {no}: the {what} holds a non-{number.__name__} value") from None
        if count is not None and len(vals) != count:
            raise ValueError(f"line {no}: the {what} has {len(vals)} numbers, expected {count}")
        return no, vals

    head = rows[0][1][0]
    if head.upper() not in ("WMCIG", "BIIG"):
        raise ValueError(f"line {rows[0][0]}: unknown instance header {head!r}")
    _, (n, m, B, k) = take("header", head, count=4)
    if head.upper() == "WMCIG":
        _, profits = take("profit line", "P", count=m)
        cover: List[frozenset | None] = [None] * n
        for _ in range(n):
            no, vals = take("coverage line", "C")
            if len(vals) < 2 or len(vals) != 2 + vals[1]:
                raise ValueError(f"line {no}: a coverage line reads 'C i d' and then d customers")
            i, js = vals[0], vals[2:]
            if not 0 <= i < n:
                raise ValueError(f"line {no}: site {i} outside 0..{n - 1}")
            if cover[i] is not None:
                raise ValueError(f"line {no}: second coverage line for site {i}")
            if len(set(js)) != len(js) or not all(0 <= j < m for j in js):
                raise ValueError(f"line {no}: customers must be distinct ids in 0..{m - 1}")
            cover[i] = frozenset(js)
        inst = WmcigInstance(profits=tuple(profits), cover=tuple(cover), B=B, k=k, name=name)
    else:
        _, probs = take("probability line", "P", float, count=n)
        no, (count,) = take("arc count line", "A", count=1)
        if count < 0:
            raise ValueError(f"line {no}: negative arc count")
        arcs = []
        for _ in range(count):
            no, (i, j) = take("arc list", None, count=2)
            if not (0 <= i < n and 0 <= j < m):
                raise ValueError(f"line {no}: arc ({i},{j}) outside {n} items x {m} targets")
            arcs.append((i, j))
        inst = BiigInstance(probs=tuple(probs), targets=m, arcs=tuple(arcs), B=B, k=k, name=name)
    extra = next(pending, None)
    if extra is not None:
        raise ValueError(f"line {extra[0]}: unexpected line after the instance")
    return inst


def export_miblp(inst: WmcigInstance) -> Tuple[str, str]:
    """Bilevel MIP text for coverage instances plus the auxiliary listing of
    follower variables and rows.  Sections OBJ / ROWS / BINARIES; leader
    variables x_i, follower y_i (open facility) and z_j (customer covered)."""
    if not isinstance(inst, WmcigInstance):
        raise TypeError("only coverage instances export to the bilevel MIP format")
    if inst.n < 1:
        raise ValueError("empty instance")
    lines = ["OBJ", "min_max: " + " + ".join(f"{inst.profits[j]:g} z_{j}" for j in range(inst.m))]
    lines.append("ROWS")
    lines.append(
        "budget: " + " + ".join(f"1 y_{i}" for i in range(inst.n)) + f" <= {inst.B:g}"
    )
    for j in range(inst.m):
        covering = [i for i in range(inst.n) if j in inst.cover[i]]
        terms = f"1 z_{j}" + "".join(f" - 1 y_{i}" for i in covering)
        lines.append(f"cover_{j}: {terms} <= 0")
    for i in range(inst.n):
        lines.append(f"link_{i}: 1 y_{i} + 1 x_{i} <= 1")
    lines.append(
        "leader: " + " + ".join(f"1 x_{i}" for i in range(inst.n)) + f" <= {inst.k:g}"
    )
    lines.append("BINARIES")
    lines.append(" ".join(f"x_{i}" for i in range(inst.n)))
    lines.append(" ".join(f"y_{i}" for i in range(inst.n)))
    lines.append(" ".join(f"z_{j}" for j in range(inst.m)))
    aux = [f"y_{i}" for i in range(inst.n)]
    aux += [f"z_{j}" for j in range(inst.m)]
    aux.append("budget")
    aux += [f"cover_{j}" for j in range(inst.m)]
    aux += [f"link_{i}" for i in range(inst.n)]
    return "\n".join(lines) + "\n", "\n".join(aux) + "\n"


def parse_miblp(text: str) -> Tuple[Dict[str, Dict[str, float]], Dict[str, float], Dict[str, float]]:
    """Reads back the exported model: (rows by name, rhs by name, objective)."""
    rows: Dict[str, Dict[str, float]] = {}
    rhs: Dict[str, float] = {}
    obj: Dict[str, float] = {}
    section = None
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if ln in ("OBJ", "ROWS", "BINARIES"):
            section = ln
            continue
        if section == "OBJ":
            body = ln.split(":", 1)[1]
            for coef, var in _linear_terms(body):
                obj[var] = coef
        elif section == "ROWS":
            name, body = ln.split(":", 1)
            lhs, bound = body.rsplit("<=", 1)
            rows[name.strip()] = {var: coef for coef, var in _linear_terms(lhs)}
            rhs[name.strip()] = float(bound)
    return rows, rhs, obj


def _linear_terms(body: str) -> List[Tuple[float, str]]:
    toks = body.replace("+", " + ").replace("-", " - ").split()
    out: List[Tuple[float, str]] = []
    sign = 1.0
    i = 0
    while i < len(toks):
        tok = toks[i]
        if tok == "+":
            sign = 1.0
        elif tok == "-":
            sign = -1.0
        else:
            out.append((sign * float(tok), toks[i + 1]))
            sign = 1.0
            i += 1
        i += 1
    return out
