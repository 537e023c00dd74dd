"""Built-in interdiction game models, instance generators, and file formats.

Both games share one follower objective, weighted probabilistic coverage:
each item reaches some targets, each with the item's probability, and the
value of a set is sum_j w_j * (1 - prod_{i in S reaching j} (1 - p_i)).
WMCIG (facilities covering customers) is p_i = 1 with w_j the customer's
profit; BIIG (items activating targets) is w_j = 1.  The value is monotone
submodular with z(empty) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .core import Evaluator, KnapsackSystem, SubmodularOracle

RNG_NAME = "pcg64"  # np.random.PCG64 seeded directly; draw order is documented
                    # in each generator


class _Game:
    """What both games share: n items, a follower budget of B items, a
    leader budget of k items, and the superiority scan over the items."""

    def knapsacks(self) -> KnapsackSystem:
        """The follower's budget."""
        return KnapsackSystem.cardinality(self.n, self.B)

    def leader_budget(self) -> KnapsackSystem:
        """The leader's interdiction budget."""
        return KnapsackSystem.cardinality(self.n, self.k)

    def _coverage(self) -> Tuple[Tuple[Tuple[frozenset, float], ...], Tuple[float, ...]]:
        """Per item: the targets it reaches, and the probability that it
        reaches each; per target: what reaching it is worth."""
        raise NotImplementedError

    def oracle(self) -> "CoverageOracle":
        """The follower's objective."""
        return CoverageOracle(*self._coverage())

    def dominating_lists(self) -> Dict[int, Tuple[int, ...]]:
        """j can replace i when j reaches everything i reaches, with at least
        the same probability, and costs the follower no more (a cheap
        sufficient test, pairwise scan)."""
        knap = self.knapsacks()
        reach, _ = self._coverage()
        lists: Dict[int, Tuple[int, ...]] = {}
        for i, (hit_i, p_i) in enumerate(reach):
            cands = tuple(
                j
                for j, (hit_j, p_j) in enumerate(reach)
                if j != i and hit_i <= hit_j and p_i <= p_j and knap.cost_le(j, i)
            )
            if cands:
                lists[i] = cands
        return lists


def _check_profits(profits, where: str = "") -> None:
    """Profits are at least 1, and their total stays below 2**53, so that
    every coverage value and gain is an exact integer-valued float.  An
    error message starts with ``where``."""
    if any(p < 1 for p in profits):
        raise ValueError(f"{where}customer profits must be >= 1")
    if sum(profits) >= 2**53:
        raise ValueError(f"{where}the total profit must stay below 2**53")


@dataclass(frozen=True)
class WmcigInstance(_Game):
    """Coverage interdiction: n facility sites, m customers with profits.

    A site reaches the customers it covers with probability 1."""

    profits: Tuple[int, ...]            # per customer, >= 1
    cover: Tuple[frozenset, ...]        # customers covered per facility
    B: int                              # follower opens at most B facilities
    k: int                              # leader interdicts at most k sites
    name: str = "wmcig"
    provenance: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("at least one facility site required")
        _check_profits(self.profits)
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

    def _coverage(self):
        return tuple((js, 1.0) for js in self.cover), self.profits


@dataclass(frozen=True)
class BiigInstance(_Game):
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

    def _coverage(self):
        out: List[set] = [set() for _ in range(self.n)]
        for i, j in self.arcs:
            out[i].add(j)
        return tuple(zip(map(frozenset, out), self.probs)), (1.0,) * self.targets


class _CoverageEvaluator(Evaluator):
    """Keeps each target's survival product, recomputed over the member
    hitters in ascending order: a survival, and so a gain, does not depend on
    the order in which members came and went."""

    def __init__(self, oracle: CoverageOracle):
        super().__init__(oracle)
        self._survive = [1.0] * len(oracle.weights)

    def _recompute(self, j: int) -> None:
        orc = self._oracle
        prod = 1.0
        for i in orc.hitters[j]:
            if i in self.members:
                prod *= 1.0 - orc.probs[i]
        old = self._survive[j]
        self._survive[j] = prod
        self._value += orc.weights[j] * (old - prod)

    def add(self, i):
        if not 0 <= i < self._oracle.n:
            self._oracle.check_item(i)  # raises
        if i in self.members:
            return
        self.members.add(i)
        for j in self._oracle.neighbors[i]:
            # Rounded to nearest, a non-negative number times a factor in
            # [0, 1] is never larger, so wherever the new factor goes in the
            # ascending order no partial product grows: 0.0 stays 0.0.
            if self._survive[j] != 0.0:
                self._recompute(j)

    def remove(self, i):
        if not 0 <= i < self._oracle.n:
            self._oracle.check_item(i)  # raises
        if i not in self.members:
            return
        self.members.discard(i)
        for j in self._oracle.neighbors[i]:
            self._recompute(j)

    def gain(self, i):
        orc = self._oracle
        if not 0 <= i < orc.n:
            orc.check_item(i)  # raises
        if i in self.members:
            return 0.0
        p = orc.probs[i]
        g = 0.0
        for j in orc.neighbors[i]:
            g += orc.weights[j] * self._survive[j] * p
        return g

    def gains(self, items):
        orc = self._oracle
        items = np.asarray(items, dtype=np.intp)
        if items.size and not 0 <= items.min() <= items.max() < orc.n:
            orc.check_item(items[(items < 0) | (items >= orc.n)][0])  # raises
        g = orc.gain_rows @ np.array(self._survive)  # every item's: cheaper than picking rows first
        g[list(self.members)] = 0.0
        return g[items]


class CoverageOracle(SubmodularOracle):
    """z(S) = sum over targets j of w_j * (1 - prod_{i in S reaching j} (1 - p_i)),
    from each item's reach (targets and probability) and the target weights."""

    evaluator = _CoverageEvaluator

    def __init__(self, reach: Tuple[Tuple[frozenset, float], ...], weights: Tuple[float, ...]):
        super().__init__()
        self.n = len(reach)
        self.neighbors = tuple(tuple(sorted(hit)) for hit, _ in reach)
        self.probs = tuple(p for _, p in reach)
        self.weights = tuple(float(w) for w in weights)
        hitters: List[List[int]] = [[] for _ in self.weights]
        for i, hit in enumerate(self.neighbors):
            for j in hit:
                hitters[j].append(i)
        self.hitters = tuple(tuple(h) for h in hitters)
        # row i: w_j * p_i at each target j that item i reaches, so that all
        # gains over a survival vector s are one product, gain_rows @ s
        self.gain_rows = np.zeros((self.n, len(self.weights)))
        for i, hit in enumerate(self.neighbors):
            self.gain_rows[i, list(hit)] = [self.weights[j] * self.probs[i] for j in hit]
        self.gain_rows.setflags(write=False)


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


def read_text(path: str) -> str:
    """The file as UTF-8 text; an undecodable byte raises a ValueError naming its line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {line}: not UTF-8 text ({exc.reason})") from None


def load_instance(path: str):
    return parse_instance(read_text(path), name=path)


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
    no, (n, m, B, k) = take("header", head, count=4)
    if n < 1 or min(m, B, k) < 0:
        raise ValueError(f"line {no}: the header needs n >= 1 and m, B, k >= 0")
    if head.upper() == "WMCIG":
        no, profits = take("profit line", "P", count=m)
        _check_profits(profits, where=f"line {no}: ")
        cover: Dict[int, frozenset] = {}
        for _ in range(n):
            no, vals = take("coverage line", "C")
            if len(vals) < 2 or len(vals) != 2 + vals[1]:
                raise ValueError(f"line {no}: a coverage line reads 'C i d' and then d customers")
            i, js = vals[0], vals[2:]
            if not 0 <= i < n:
                raise ValueError(f"line {no}: site {i} outside 0..{n - 1}")
            if i in cover:
                raise ValueError(f"line {no}: second coverage line for site {i}")
            if len(set(js)) != len(js) or not all(0 <= j < m for j in js):
                raise ValueError(f"line {no}: customers must be distinct ids in 0..{m - 1}")
            cover[i] = frozenset(js)
        inst = WmcigInstance(
            profits=tuple(profits), cover=tuple(cover[i] for i in range(n)), B=B, k=k, name=name
        )
    else:
        no, probs = take("probability line", "P", float, count=n)
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise ValueError(f"line {no}: activation probabilities must lie in [0, 1]")
        no, (count,) = take("arc count line", "A", count=1)
        if count < 0:
            raise ValueError(f"line {no}: negative arc count")
        arcs: Dict[Tuple[int, int], int] = {}  # arc -> its line, in file order
        for _ in range(count):
            no, (i, j) = take("arc list", None, count=2)
            if not (0 <= i < n and 0 <= j < m):
                raise ValueError(f"line {no}: arc ({i},{j}) outside {n} items x {m} targets")
            if (i, j) in arcs:
                raise ValueError(f"line {no}: arc ({i},{j}) repeats line {arcs[i, j]}")
            arcs[i, j] = no
        inst = BiigInstance(probs=tuple(probs), targets=m, arcs=tuple(arcs), B=B, k=k, name=name)
    extra = next(pending, None)
    if extra is not None:
        raise ValueError(f"line {extra[0]}: unexpected line after the instance")
    return inst

