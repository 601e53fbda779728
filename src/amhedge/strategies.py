"""Exercise strategies: stopping times, liquidating strategies, lifts.

A liquidating strategy spreads one unit of exercise over the nodes it
visits: nonnegative node weights summing to exactly 1 along every path
(times 0..T inclusive).  Stopping times are the 0/1 special case and are
the extreme points of that polytope.

Families indexed by clock vectors in {0..T}^n carry the
information constraint that two clock vectors are indistinguishable
before the first time one of their differing coordinates has fired;
`product_lift` mixes such a family over divisible exercise weights.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Literal, Sequence

from .enlarged import EnlargedModel
from .errors import CapExceededError
from .market import EventTree
from .rationals import ONE, ZERO, Q, rat

DEFAULT_ENUM_CAP = 10**6


@dataclass(frozen=True)
class StoppingTime:
    """Antichain of stop nodes meeting every path exactly once."""

    stops: frozenset

    def time_on(self, node_seq: Sequence[Hashable]) -> int:
        hits = [t for t, v in enumerate(node_seq) if v in self.stops]
        if len(hits) != 1:
            raise ValueError(f"stopping set meets a path {len(hits)} times")
        return hits[0]


# -- enumeration over a forest --------------------------------------------


def _fold_up(roots: Iterable[Hashable],
             children: Callable[[Hashable], Sequence[Hashable]],
             leaf: Callable[[Hashable], object],
             inner: Callable[[Hashable, list], object]) -> Iterator[object]:
    """Per root, a value folded up its tree without recursion.

    leaf(v) at leaves, inner(v, values of the children in order) above;
    deep trees cannot hit Python's recursion limit.
    """
    for root in roots:
        done: dict = {}
        stack = [(root, False)]
        while stack:
            v, expanded = stack.pop()
            kids = children(v)
            if not kids:
                done[v] = leaf(v)
            elif expanded:
                done[v] = inner(v, [done.pop(k) for k in kids])
            else:
                stack.append((v, True))
                stack.extend((k, False) for k in kids)
        yield done[root]


def count_stopping_times(roots: Iterable[Hashable],
                         children: Callable[[Hashable], Sequence[Hashable]],
                         cap: int = DEFAULT_ENUM_CAP) -> int:
    """Exact count, saturated at cap + 1 to stay cheap on huge forests."""
    limit = cap + 1

    def inner(_v: Hashable, counts: list[int]) -> int:
        prod = 1
        for c in counts:
            prod = min(prod * c, limit)
        return min(1 + prod, limit)

    total = 1
    for count in _fold_up(roots, children, lambda _v: 1, inner):
        total *= count
        if total >= limit:
            return limit
    return total


def enumerate_stopping_times(roots: Sequence[Hashable],
                             children: Callable[[Hashable], Sequence[Hashable]],
                             cap: int = DEFAULT_ENUM_CAP,
                             what: str = "stopping times") -> list[StoppingTime]:
    total = count_stopping_times(roots, children, cap)
    if total > cap:
        raise CapExceededError(what, total, cap)

    def inner(v: Hashable, per_kid: list[list[frozenset]]) -> list[frozenset]:
        out = [frozenset((v,))]
        for combo in itertools.product(*per_kid):
            out.append(frozenset().union(*combo))
        return out

    per_root = list(_fold_up(roots, children, lambda v: [frozenset((v,))], inner))
    taus = []
    for combo in itertools.product(*per_root):
        taus.append(StoppingTime(frozenset().union(*combo)))
    return taus


def enumerate_base_stopping_times(tree: EventTree) -> list[StoppingTime]:
    """All stopping times of the bare tree filtration, values in 0..T."""
    return enumerate_stopping_times([tree.root], lambda v: tree.children[v], DEFAULT_ENUM_CAP,
                                    what="base stopping times")


def enlarged_stopping_times(enl: EnlargedModel) -> list[StoppingTime]:
    """All stopping times of the enlarged forest (they may consult clock status)."""
    return enumerate_stopping_times(enl.roots, lambda v: enl.children[v], DEFAULT_ENUM_CAP,
                                    what="enlarged stopping times")


def count_enlarged_stopping_times(enl: EnlargedModel, cap: int = DEFAULT_ENUM_CAP) -> int:
    return count_stopping_times(enl.roots, lambda v: enl.children[v], cap)


# -- liquidating strategies ------------------------------------------------


@dataclass
class LiquidatingStrategy:
    """Nonnegative node weights; exactly one unit spent along every path."""

    weights: dict

    def at(self, node) -> Q:
        return self.weights.get(node, ZERO)


def validate_liquidating(liq: LiquidatingStrategy, node_seqs: Iterable[Sequence[Hashable]]) -> bool:
    if any(w < 0 for w in liq.weights.values()):
        return False
    for seq in node_seqs:
        if sum((liq.at(v) for v in seq), ZERO) != ONE:
            return False
    return True


def stopping_to_liquidating(tau: StoppingTime) -> LiquidatingStrategy:
    return LiquidatingStrategy({v: ONE for v in tau.stops})


def pair(enl: EnlargedModel, liq: LiquidatingStrategy, values_by_enode: dict[int, Q]) -> list[Q]:
    """Exercise-weighted value collected along each enlarged path."""
    out = []
    for p in enl.epaths:
        total = ZERO
        for v in p.node_seq:
            w = liq.weights.get(v)
            if w:
                total += w * values_by_enode[v]
        out.append(total)
    return out


def convex_combination(taus: Sequence[StoppingTime], lams: Sequence[Q]) -> LiquidatingStrategy:
    if sum((rat(l) for l in lams), ZERO) != ONE or any(rat(l) < 0 for l in lams):
        raise ValueError("weights must be a convex combination")
    weights: dict = {}
    for tau, lam in zip(taus, lams):
        lam = rat(lam)
        if not lam:
            continue
        for v in tau.stops:
            weights[v] = weights.get(v, ZERO) + lam
    return LiquidatingStrategy(weights)


# -- clock-indexed families and the product lift ---------------------------


Kind = Literal["dynamic", "liquidating"]


@dataclass
class ClockIndexedFamily:
    """One base-tree strategy per clock vector in {0..T}^n.

    dynamic:     member maps (time, node_id) -> tuple of stock positions,
                 times 0..T-1;
    liquidating: member maps node_id -> weight.
    """

    horizon: int
    n: int
    kind: Kind
    members: dict[tuple[int, ...], dict]


def first_disagreement_floor(s: tuple[int, ...], t: tuple[int, ...]) -> int | None:
    """min over differing coordinates of min(s_k, t_k); None if s == t."""
    diffs = [min(a, b) for a, b in zip(s, t) if a != b]
    return min(diffs) if diffs else None


def indistinguishable_pairs(
    tuples: Sequence[tuple[int, ...]], r: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Pairs of clock vectors that must agree at time r, as chains.

    s and t are indistinguishable at time r exactly when min(s_k, r+1)
    == min(t_k, r+1) for every k.  That is an equivalence, so tying
    consecutive members of each class (in the order given) is as strong
    as tying every pair of them.
    """
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for t in tuples:
        classes.setdefault(tuple(min(tk, r + 1) for tk in t), []).append(t)
    return [(a, b) for members in classes.values() for a, b in zip(members, members[1:])]


def validate_nonanticipative(fam: ClockIndexedFamily, tree: EventTree) -> bool:
    """Members must agree strictly before the first differing clock fires."""
    tuples = list(itertools.product(range(fam.horizon + 1), repeat=fam.n))
    if set(fam.members) != set(tuples):
        return False
    for r in range(fam.horizon):
        for s, t in indistinguishable_pairs(tuples, r):
            ms, mt = fam.members[s], fam.members[t]
            for nid in tree.nodes_at(r):
                if fam.kind == "dynamic":
                    if ms.get((r, nid), ()) != mt.get((r, nid), ()):
                        return False
                elif ms.get(nid, ZERO) != mt.get(nid, ZERO):
                    return False
    return True


def _check_exercise_weights(v: Sequence[Sequence[Q]], horizon: int, n: int) -> list[tuple[Q, ...]]:
    if len(v) != n:
        raise ValueError(f"need {n} exercise-weight vectors")
    out = []
    for comp in v:
        vec = tuple(rat(x) for x in comp)
        if len(vec) != horizon + 1:
            raise ValueError("each weight vector runs over times 0..T")
        if any(x < 0 for x in vec) or sum(vec, ZERO) != ONE:
            raise ValueError("exercise weights must be a distribution over 0..T")
        out.append(vec)
    return out


def _mixture_weight(weights: Sequence[Sequence[Q]], tvec: tuple[int, ...]) -> Q:
    """Weight prod_k weights[k][t_k] of one clock vector under independent exercise."""
    w = ONE
    for k, tk in enumerate(tvec):
        w *= weights[k][tk]
        if not w:
            break
    return w


def product_lift(fam: ClockIndexedFamily, v: Sequence[Sequence[Q]]) -> dict:
    """Mix the family over independent divisible exercise weights.

    Returns a strategy of the same kind: the v-weighted average of the
    members, weight of clock vector t being prod_k v^k[t_k].
    """
    vs = _check_exercise_weights(v, fam.horizon, fam.n)
    mixed: dict = {}
    for tvec, member in fam.members.items():
        w = _mixture_weight(vs, tvec)
        if not w:
            continue
        for key, val in member.items():
            if fam.kind == "dynamic":
                if key in mixed:
                    mixed[key] = tuple(a + w * b for a, b in zip(mixed[key], val))
                else:
                    mixed[key] = tuple(w * b for b in val)
            else:
                if val:
                    mixed[key] = mixed.get(key, ZERO) + w * val
    return mixed


def dirac_weights(tvec: tuple[int, ...], horizon: int) -> list[tuple[Q, ...]]:
    return [tuple(ONE if t == tk else ZERO for t in range(horizon + 1)) for tk in tvec]
