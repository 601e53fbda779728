"""Exercise strategies: stopping times and clock vectors.

Stopping times over a forest are counted and enumerated without
recursion, up to the fixed guard DEFAULT_ENUM_CAP.  They are the 0/1
special case and the extreme points of the liquidating strategies, which
spread one unit of exercise over the nodes they visit: nonnegative node
weights summing to exactly 1 along every path (times 0..T inclusive).
Those have no type here; the hedge layer holds them as node -> weight dicts.

Strategies indexed by clock vectors in {0..T}^n carry the information
constraint that two clock vectors are indistinguishable before the first
time one of their differing coordinates has fired.
"""
from __future__ import annotations

import itertools
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

from .enlarged import EnlargedModel
from .errors import CapExceededError

DEFAULT_ENUM_CAP = 10**6


class StoppingTime(NamedTuple):
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
                             children: Callable[[Hashable], Sequence[Hashable]]
                             ) -> list[StoppingTime]:
    total = count_stopping_times(roots, children, DEFAULT_ENUM_CAP)
    if total > DEFAULT_ENUM_CAP:
        raise CapExceededError("stopping times", total, DEFAULT_ENUM_CAP)

    def inner(v: Hashable, per_kid: list[list[frozenset]]) -> list[frozenset]:
        return [frozenset((v,))] + [frozenset().union(*c) for c in itertools.product(*per_kid)]

    per_root = list(_fold_up(roots, children, lambda v: [frozenset((v,))], inner))
    return [StoppingTime(frozenset().union(*combo)) for combo in itertools.product(*per_root)]


def enlarged_stopping_times(enl: EnlargedModel) -> list[StoppingTime]:
    """Stopping times of the space's forest, a restricted space's included."""
    return enumerate_stopping_times(enl.roots, enl.children.__getitem__)


# -- clock vectors ---------------------------------------------------------


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

