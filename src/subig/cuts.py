"""Interdiction cuts bounding the master objective by follower solutions.

Every cut is stored in canonical affine form  w >= c0 + sum_i g_i * x_i,
with the generating follower set and any exchange pairs kept as metadata.
Four families: basic (empty-set gains), improved (prefix gains along an
ordering), lifted (adds (1-x_b) terms for superior replacement items), and
alternative (adds (x_a-x_b) exchange terms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .core import KnapsackSystem, SubmodularOracle

BASIC = "basic"
IMPROVED = "improved"
LIFTED = "lifted"
ALTERNATIVE = "alternative"
FAMILIES = (BASIC, IMPROVED, LIFTED, ALTERNATIVE)  # the order of every per-family count

# exchange pairs are only accepted with a strictly positive score
PAIR_TOL = 1e-9


@dataclass
class Cut:
    c0: float
    g: Dict[int, float]
    family: str
    source: Tuple[int, ...]
    # (a, b, coef) triples folded into (c0, g)
    pairs: Tuple[Tuple[int, int, float], ...] = ()

    def rhs(self, x: Sequence[float]) -> float:
        return self.c0 + sum(gi * x[i] for i, gi in sorted(self.g.items()))


def default_ordering(oracle: SubmodularOracle, s_hat: Iterable[int]) -> Tuple[int, ...]:
    """Members sorted by non-increasing empty-set gain, ties by ascending id."""
    rho0 = oracle.rho_empty()
    return tuple(sorted(set(s_hat), key=lambda i: (-rho0[i], i)))


def basic_sic(oracle: SubmodularOracle, s_hat: Iterable[int]) -> Cut:
    """w >= z(S) - sum_{i in S} rho_i(empty) x_i."""
    members = sorted(set(s_hat))
    for i in members:
        oracle.check_item(i)
    rho0 = oracle.rho_empty()
    return Cut(
        c0=float(oracle.value(members)),
        g={i: -float(rho0[i]) for i in members},
        family=BASIC,
        source=tuple(members),
    )


def improved_sic(
    oracle: SubmodularOracle, s_hat: Iterable[int], ordering: Sequence[int]
) -> Cut:
    """w >= z(S) - sum_t rho_{i_t}(prefix_t) x_{i_t} along the given ordering."""
    members = set(s_hat)
    ordering = tuple(ordering)
    if len(ordering) != len(members) or set(ordering) != members:
        raise ValueError("ordering must be a permutation of the follower set")
    ev = oracle.scratch()
    g = {}
    for i in ordering:
        oracle.check_item(i)
        g[i] = -float(ev.gain(i))
        ev.add(i)
    return Cut(c0=float(ev.value), g=g, family=IMPROVED, source=ordering)


def lift_sic(
    oracle: SubmodularOracle,
    base: Cut,
    x_star: Sequence[float],
    dominating: Mapping[int, Tuple[int, ...]],
) -> Cut:
    """Greedy pair selection: walk the base cut's follower set S by
    non-increasing empty-set gain, pick per item the replacement maximizing
    (gain of entering - residual gain of the replaced item) * (1 - x*_b);
    keep only strictly positive scores.
    ``dominating`` maps an item to the items that may replace it (no costlier
    anywhere and at least as useful for every residual set)."""
    if base.family not in (BASIC, IMPROVED):
        raise ValueError("lift base must be a basic or improved cut")
    members = set(base.source)
    used_b: set = set()
    pairs: List[Tuple[int, int, float]] = []
    ev = oracle.scratch(members)  # tracks S plus the chosen replacements
    ex = oracle.scratch(members)  # tracks S for single-exchange terms
    for a in default_ordering(oracle, members):
        best = None
        for b in sorted(dominating.get(a, ())):
            if b in members or b in used_b:
                continue
            coef = float(ev.gain(b))  # rho_b(S + current B)
            ex.add(b)
            ex.remove(a)
            coef -= float(ex.gain(a))  # rho_a(S + b - a)
            ex.add(a)
            ex.remove(b)
            score = coef * (1.0 - x_star[b])
            if score > PAIR_TOL and (best is None or score > best[0] + PAIR_TOL):
                best = (score, b, coef)
        if best is not None:
            _, b, coef = best
            used_b.add(b)
            ev.add(b)
            pairs.append((a, b, coef))
    if not pairs:
        return base
    g = dict(base.g)
    c0 = base.c0
    for _, b, coef in pairs:
        c0 += coef
        g[b] = g.get(b, 0.0) - coef
    return Cut(c0=c0, g=g, family=LIFTED, source=base.source, pairs=tuple(pairs))


def alternative_sic(
    oracle: SubmodularOracle,
    base: Cut,
    x_star: Sequence[float],
    costs: KnapsackSystem,
) -> Cut:
    """Adds exchange terms rho_b(S + B - a) * (x_a - x_b) for pairs where the
    incoming item is no costlier; built on top of a basic or improved cut,
    whose follower set is S."""
    if base.family not in (BASIC, IMPROVED):
        raise ValueError("alternative base must be a basic or improved cut")
    members = set(base.source)
    used_b: set = set()
    pairs: List[Tuple[int, int, float]] = []
    ev = oracle.scratch(members)
    for a in default_ordering(oracle, members):
        ev.remove(a)
        best = None
        for b in range(oracle.n):
            if b in members or b in used_b:
                continue
            spread = x_star[a] - x_star[b]
            if spread <= 0.0 or not costs.cost_le(b, a):
                continue
            coef = float(ev.gain(b))  # rho_b(S + current B - a)
            score = coef * spread
            if score > PAIR_TOL and (best is None or score > best[0] + PAIR_TOL):
                best = (score, b, coef)
        ev.add(a)
        if best is not None:
            _, b, coef = best
            used_b.add(b)
            ev.add(b)
            pairs.append((a, b, coef))
    if not pairs:
        return base
    g = dict(base.g)
    for a, b, coef in pairs:
        g[a] = g.get(a, 0.0) + coef
        g[b] = g.get(b, 0.0) - coef
    return Cut(
        c0=base.c0, g=g, family=ALTERNATIVE, source=base.source, pairs=tuple(pairs)
    )


def relative_violation(cut: Cut, w_star: float, x_star: Sequence[float]) -> float:
    rhs = cut.rhs(x_star)
    return (rhs - w_star) / (abs(rhs) + 0.1)
