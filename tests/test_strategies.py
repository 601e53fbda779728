"""Stopping times and the non-anticipativity of clock-indexed strategies."""
from __future__ import annotations

import pytest

from amhedge import strategies
from amhedge.divisible import RevealedModel
from amhedge.enlarged import enlarge
from amhedge.errors import CapExceededError, PropertyViolation
from amhedge.hedging import SemiStaticStrategy, check_hedge, nonanticipative
from amhedge.market import load_model
from amhedge.rationals import ONE, Q, ZERO
from amhedge.strategies import (
    StoppingTime,
    count_stopping_times,
    enumerate_stopping_times,
    indistinguishable_pairs,
)

from conftest import two_period_dict

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


def test_enumerate_cap(monkeypatch):
    # the guard is the module's constant, read at each call
    monkeypatch.setattr(strategies, "DEFAULT_ENUM_CAP", 4)
    with pytest.raises(CapExceededError, match="needs 5 items, cap is 4"):
        enumerate_stopping_times(["r"], BINTREE.get)


def test_base_and_enlarged_enumeration(binomial_short_put):
    tree = binomial_short_put.tree
    taus = enumerate_stopping_times([tree.root], lambda v: tree.children[v])
    assert len(taus) == 2    # stop at r, or at the leaves
    enl = enlarge(binomial_short_put, 1)
    etaus = enumerate_stopping_times(enl.roots, lambda v: enl.children[v])
    # two roots (r|0, r|*), each with an independent 2-way choice
    assert len(etaus) == 4
    assert count_stopping_times(enl.roots, enl.children.__getitem__) == 4


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


def _root_positions(rev, pos):
    """Stock held at time 0 only; pos may depend on the clock vector."""
    model = rev.model
    return SemiStaticStrategy(
        stock={(ep.node_seq[0], 0): pos(ep.clocks) for ep in rev.epaths if pos(ep.clocks)},
        long_european=[ZERO] * model.L,
        long_american=[ZERO] * model.M,
        short_american=[ZERO] * model.N,
        liquidation=[{} for _ in range(model.M)],
    )


def _two_period_short():
    """The two-period fixture with one shorted American, so two clocks fit."""
    return load_model({**two_period_dict(), "americans_short": [
        {"values": {"r": "0", "u": "0", "d": "1/2", "uu": "0", "ud": "0", "du": "0",
                    "dd": "3/4"}, "price": "1/4"}]})


def test_nonanticipative_accepts_clock_blind(binomial_short_put):
    rev = RevealedModel(binomial_short_put, 1)
    assert nonanticipative(rev, _root_positions(rev, lambda tvec: ONE))


def test_nonanticipative_rejects_peeking(two_period):
    # vectors (1,) and (2,) are indistinguishable at time 0, yet the
    # time-0 position depends on which one holds
    rev = RevealedModel(two_period, 1)
    assert not nonanticipative(rev, _root_positions(rev, lambda tvec: Q(tvec[0])))


def test_nonanticipative_rejects_far_apart_class_members():
    # at time 0 the vectors (1,1), (1,2), (2,1), (2,2) form one class; only
    # (1,1) and (2,2), which are not neighbours in the chain, hold different
    # positions, so no tied pair compares them directly
    rev = RevealedModel(_two_period_short(), 2)
    strat = _root_positions(rev, lambda tvec: Q(7) if tvec == (2, 2) else ONE)
    chain = indistinguishable_pairs(rev.tuples, 0)
    assert ((1, 1), (2, 2)) not in chain and ((2, 1), (2, 2)) in chain
    assert not nonanticipative(rev, strat)


def test_nonanticipative_allows_seen_clocks(binomial_short_put):
    # differing coordinate fires at 0: members may differ everywhere
    rev = RevealedModel(binomial_short_put, 1)
    strat = _root_positions(rev, lambda tvec: Q(7) if tvec == (1,) else ZERO)
    # (0,) vs (1,) differ in a clock that fired at 0: nothing to compare
    assert indistinguishable_pairs([(0,), (1,)], 0) == []
    assert rev.tied_pairs == ()
    assert nonanticipative(rev, strat)


def test_nonanticipative_checks_exercise_weights(two_period):
    # clock-blind stock, but the exercise weight at the root peeks at the
    # clock; check_hedge holds the claim as a long liquidated by the weights
    rev = RevealedModel(two_period, 1)
    strat = _root_positions(rev, lambda tvec: ONE)
    roots = {ep.clocks: ep.node_seq[0] for ep in rev.epaths}
    blind, peek = {v: ONE for v in roots.values()}, {roots[(1,)]: ONE}
    assert nonanticipative(rev, strat._replace(liquidation=[blind]))
    assert not nonanticipative(rev, strat._replace(liquidation=[peek]))
    # one share from 1 gains -3/4 at dd, the claim 0 at the root
    rhs = [ZERO] * rev.num_paths
    check_hedge(rev, strat, -ONE, Q(-3, 4), rhs, exercise=blind, kind="sub")
    with pytest.raises(PropertyViolation, match="^sub hedge is not non-anticipative$"):
        check_hedge(rev, strat, -ONE, Q(-3, 4), rhs, exercise=peek, kind="sub")
