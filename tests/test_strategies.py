"""Stopping times and clock-indexed families."""
from __future__ import annotations

import pytest

from amhedge.enlarged import enlarge
from amhedge.errors import CapExceededError
from amhedge.rationals import ONE, Q, ZERO
from amhedge.strategies import (
    ClockIndexedFamily,
    StoppingTime,
    count_enlarged_stopping_times,
    count_stopping_times,
    dirac_weights,
    enumerate_stopping_times,
    indistinguishable_pairs,
    validate_nonanticipative,
)

CHAIN = {"a": ["b"], "b": ["c"], "c": []}
BINTREE = {"r": ["u", "d"], "u": ["uu", "ud"], "d": ["du", "dd"],
           "uu": [], "ud": [], "du": [], "dd": []}


def test_count_on_a_chain():
    # stop at a, b, or c
    assert count_stopping_times(["a"], CHAIN.get) == 3


def test_count_on_binary_tree():
    # per depth-1 subtree: stop now or at either leaf combo = 1 + 1 = 2;
    # root: stop now or pick independently in both subtrees = 1 + 2 * 2
    assert count_stopping_times(["r"], BINTREE.get) == 5


def test_count_saturates_at_cap():
    assert count_stopping_times(["r"], BINTREE.get, cap=3) == 4


def test_enumerate_matches_count_and_validates():
    taus = enumerate_stopping_times(["r"], BINTREE.get)
    assert len(taus) == 5
    paths = [("r", "u", "uu"), ("r", "u", "ud"), ("r", "d", "du"), ("r", "d", "dd")]
    seen = set()
    for tau in taus:
        assert tau.stops not in seen
        seen.add(tau.stops)
        for p in paths:
            tau.time_on(p)    # raises unless hit exactly once


def test_enumerate_cap():
    with pytest.raises(CapExceededError):
        enumerate_stopping_times(["r"], BINTREE.get, cap=4)


def test_base_and_enlarged_enumeration(binomial_short_put):
    tree = binomial_short_put.tree
    taus = enumerate_stopping_times([tree.root], lambda v: tree.children[v])
    assert len(taus) == 2    # stop at r, or at the leaves
    enl = enlarge(binomial_short_put, 1)
    etaus = enumerate_stopping_times(enl.roots, lambda v: enl.children[v])
    # two roots (r|0, r|*), each with an independent 2-way choice
    assert len(etaus) == 4
    assert count_enlarged_stopping_times(enl) == 4


def test_time_on_rejects_double_hit():
    tau = StoppingTime(frozenset({"r", "uu"}))
    with pytest.raises(ValueError):
        tau.time_on(("r", "u", "uu"))


def test_indistinguishable_until_first_disagreement():
    # differing clocks first fire at min(s_k, t_k) over the differing k:
    # the vectors stay tied strictly before that time, never after
    assert indistinguishable_pairs([(0, 2), (1, 2)], 0) == []
    assert indistinguishable_pairs([(2, 1), (1, 2)], 0) == [((2, 1), (1, 2))]
    assert indistinguishable_pairs([(2, 1), (1, 2)], 1) == []
    assert indistinguishable_pairs([(1, 2), (1, 2)], 2) == [((1, 2), (1, 2))]


def _dyn_family(horizon, n, pos):
    """Constant-position family; pos may depend on the clock vector."""
    import itertools
    members = {}
    for tvec in itertools.product(range(horizon + 1), repeat=n):
        members[tvec] = {(0, "r"): (pos(tvec),)}
    return ClockIndexedFamily(horizon=horizon, n=n, kind="dynamic", members=members)


def test_nonanticipative_accepts_clock_blind(binomial_short_put):
    fam = _dyn_family(1, 1, lambda tvec: ONE)
    assert validate_nonanticipative(fam, binomial_short_put.tree)


def test_nonanticipative_rejects_peeking(two_period):
    # vectors (1,) and (2,) are indistinguishable at time 0, yet the
    # time-0 position depends on which one holds
    fam = _dyn_family(2, 1, lambda tvec: Q(tvec[0]))
    assert not validate_nonanticipative(fam, two_period.tree)


def test_nonanticipative_rejects_far_apart_class_members(two_period):
    # at time 0 the vectors (1,1), (1,2), (2,1), (2,2) form one class; only
    # (1,1) and (2,2), which are not neighbours in the chain, hold different
    # positions, so no tied pair compares them directly
    fam = _dyn_family(2, 2, lambda tvec: Q(7) if tvec == (2, 2) else ONE)
    chain = indistinguishable_pairs(sorted(fam.members), 0)
    assert ((1, 1), (2, 2)) not in chain and ((2, 1), (2, 2)) in chain
    assert not validate_nonanticipative(fam, two_period.tree)


def test_nonanticipative_allows_seen_clocks(binomial_short_put):
    # differing coordinate fires at 0: members may differ everywhere
    fam = _dyn_family(1, 1, lambda tvec: Q(tvec[0]))
    fam.members[(1,)] = dict(fam.members[(0,)])
    fam.members[(1,)][(0, "r")] = (Q(7),)
    # (0,) vs (1,) differ in a clock that fired at 0: nothing to compare
    assert indistinguishable_pairs([(0,), (1,)], 0) == []
    assert validate_nonanticipative(fam, binomial_short_put.tree)


def test_dirac_weights():
    assert dirac_weights((1, 0), 1) == [(ZERO, ONE), (ONE, ZERO)]
