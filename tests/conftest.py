"""Shared hand-built market models.

Every fixture here is small enough that its prices, slacks and
certificates can be derived by hand; tests freeze those derivations as
exact rationals.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest

from amhedge.enlarged import EnlargedModel
from amhedge.hedging import SemiStaticStrategy, evaluate_gain
from amhedge.lp import IntVector
from amhedge.market import MarketModel, load_model
from amhedge.rationals import Q, over_common


def path_gains(enl: EnlargedModel, strat: SemiStaticStrategy) -> dict[int, Q]:
    """The strategy's gain on each path of the space, as rationals: the
    integer numerators of hedging.evaluate_gain over its one denominator."""
    gains, den = evaluate_gain(enl, strat)
    return {p: Q(g, den) for p, g in gains.items()}


def int_vector(values) -> IntVector:
    """Rationals as an LP outcome holds a vector: numerators over one denominator."""
    (nums,), den = over_common(values)
    return IntVector(nums, den)


def moved(vec: IntVector, j: int, delta) -> IntVector:
    """vec with entry j moved by the rational delta, over the lcm of both denominators."""
    dd = int(delta.denominator)
    den = lcm(vec.den, dd)
    nums = [n * (den // vec.den) for n in vec.nums]
    nums[j] += int(delta.numerator) * (den // dd)
    return IntVector(nums, den)


def binomial_dict(**extra) -> dict:
    """Stock 1 -> {2, 1/2} with a call-like claim paying 1 on the up move."""
    data = {
        "horizon": 1,
        "nodes": [
            {"id": "r", "time": 0},
            {"id": "u", "time": 1, "parent": "r"},
            {"id": "d", "time": 1, "parent": "r"},
        ],
        "stock": {"dim": 1, "values": {"r": ["1"], "u": ["2"], "d": ["1/2"]}},
        "claim": {"values": {"r": "0", "u": "1", "d": "0"}},
        "weights": {"u": "1/2", "d": "1/2"},
    }
    data.update(extra)
    return data


@pytest.fixture
def binomial() -> MarketModel:
    # unique one-step martingale law: q(u) = 1/3, q(d) = 2/3
    return load_model(binomial_dict())


def binomial_short_put_dict() -> dict:
    # shorted American put paying 1/2 at d, quoted at 1/4
    return binomial_dict(americans_short=[
        {"values": {"r": "0", "u": "0", "d": "1/2"}, "price": "1/4"},
    ])


@pytest.fixture
def binomial_short_put() -> MarketModel:
    return load_model(binomial_short_put_dict())


def binomial_put_book_dict(
    horizon: int, *, short_bid: str | None = None, long_ask: str | None = None
) -> dict:
    """``horizon`` periods of S -> {2S, S/2} from S0 = 4, non-recombining.

    The claim is an American put struck at 4.  With ``short_bid``, one
    American call struck at 5 is shorted at that bid; with ``long_ask``,
    one American put struck at 5 is longed at that ask.  Under q(up) =
    1/3 the call is worth 20/27 (T=2) and 35/36 (T=3) with an exercise
    clock uniform on 0..T, and the put's Snell value is 20/9 and 8/3.
    """
    stock = {"r": Fraction(4)}
    nodes = [{"id": "r", "time": 0}]
    for t in range(1, horizon + 1):
        for v in [v for v in stock if len(v) == t]:
            for move, factor in (("u", 2), ("d", Fraction(1, 2))):
                stock[v + move] = stock[v] * factor
                nodes.append({"id": v + move, "time": t, "parent": v})
    text = lambda x: f"{x.numerator}/{x.denominator}"
    data = {
        "horizon": horizon,
        "nodes": nodes,
        "stock": {"dim": 1, "values": {v: [text(s)] for v, s in stock.items()}},
        "claim": {"values": {v: text(max(4 - s, 0)) for v, s in stock.items()}},
        "weights": {v: text(Fraction(1, 2 ** horizon)) for v in stock if len(v) == horizon + 1},
    }
    if short_bid is not None:
        data["americans_short"] = [{
            "values": {v: text(max(s - 5, Fraction(0))) for v, s in stock.items()},
            "price": short_bid,
        }]
    if long_ask is not None:
        data["americans_long"] = [{
            "values": {v: text(max(5 - s, Fraction(0))) for v, s in stock.items()},
            "price": long_ask,
        }]
    return data


def trinomial_dict() -> dict:
    return {
        "horizon": 1,
        "nodes": [
            {"id": "r", "time": 0},
            {"id": "a", "time": 1, "parent": "r"},
            {"id": "b", "time": 1, "parent": "r"},
            {"id": "c", "time": 1, "parent": "r"},
        ],
        "stock": {"dim": 1, "values": {"r": ["1"], "a": ["2"], "b": ["1"], "c": ["1/2"]}},
        "claim": {"values": {"r": "0", "a": "1", "b": "0", "c": "0"}},
        "weights": {"a": "1/3", "b": "1/3", "c": "1/3"},
    }


def two_period_dict() -> dict:
    """Recombining two-period binomial; unique law q(up) = 1/3 per step."""
    return {
        "horizon": 2,
        "nodes": [
            {"id": "r", "time": 0},
            {"id": "u", "time": 1, "parent": "r"},
            {"id": "d", "time": 1, "parent": "r"},
            {"id": "uu", "time": 2, "parent": "u"},
            {"id": "ud", "time": 2, "parent": "u"},
            {"id": "du", "time": 2, "parent": "d"},
            {"id": "dd", "time": 2, "parent": "d"},
        ],
        "stock": {"dim": 1, "values": {
            "r": ["1"], "u": ["2"], "d": ["1/2"],
            "uu": ["4"], "ud": ["1"], "du": ["1"], "dd": ["1/4"],
        }},
        "claim": {"values": {
            "r": "0", "u": "1", "d": "0",
            "uu": "3", "ud": "0", "du": "0", "dd": "0",
        }},
        "weights": {"uu": "1/4", "ud": "1/4", "du": "1/4", "dd": "1/4"},
    }


@pytest.fixture
def trinomial() -> MarketModel:
    return load_model(trinomial_dict())


@pytest.fixture
def two_period() -> MarketModel:
    return load_model(two_period_dict())


def unbranched_dict(**extra) -> dict:
    """Three periods in which some nodes have a single child.

    r -> {a, b}; a -> aa -> aaa stays at 2 and b -> ba -> baa at 1, so each
    run is one unbranched line of nodes; bb branches again.  The claim is
    a put struck at 1; q(up) = 1/3 at r and at bb, 1/5 at b.
    """
    parents = {"a": "r", "b": "r", "aa": "a", "aaa": "aa", "ba": "b", "bb": "b",
               "baa": "ba", "bba": "bb", "bbb": "bb"}
    stock = {"r": Fraction(1), "a": Fraction(2), "b": Fraction(1, 2), "aa": Fraction(2),
             "aaa": Fraction(2), "ba": Fraction(1), "bb": Fraction(1, 4), "baa": Fraction(1),
             "bba": Fraction(1, 2), "bbb": Fraction(1, 8)}
    text = lambda x: f"{x.numerator}/{x.denominator}"
    data = {
        "horizon": 3,
        "nodes": [{"id": "r", "time": 0}] + [
            {"id": v, "time": len(v), "parent": p} for v, p in parents.items()],
        "stock": {"dim": 1, "values": {v: [text(s)] for v, s in stock.items()}},
        "claim": {"values": {v: text(max(1 - s, Fraction(0))) for v, s in stock.items()}},
        "weights": {v: "1/4" for v in ("aaa", "baa", "bba", "bbb")},
    }
    data.update(extra)
    return data


def unbranched_book_dicts() -> dict[str, dict]:
    """unbranched_dict plain, with a shorted payoff of 1 on the a-line
    bid at 1/4, and with a longed payoff of 1 on the b-line asked at 1."""
    line = lambda ids: {v: "1" if v in ids else "0" for v in UNBRANCHED_NODES}
    return {
        "unbranched": unbranched_dict(),
        "unbranched_short": unbranched_dict(americans_short=[
            {"values": line({"a", "aa", "aaa"}), "price": "1/4"}]),
        "unbranched_long": unbranched_dict(americans_long=[
            {"values": line({"b", "ba", "baa", "bb"}), "price": "1"}]),
    }


UNBRANCHED_NODES = ("r", "a", "b", "aa", "aaa", "ba", "bb", "baa", "bba", "bbb")


def trinomial_kernels_dict(horizon: int) -> dict:
    """``horizon`` periods of S -> {2S, S, S/2} from S0 = 1, non-recombining.

    Node ids spell the moves (r, ra, rab, ...).  Every internal node
    carries the two kernel vertices (1/2, 0, 1/2) and (1/3, 0, 2/3), so
    only the a- and c-moves are supported, and there are 2^(number of
    internal nodes) selectors: 16 at horizon 2 and 8,192 at horizon 3.
    The claim is a call struck at 1, and one American put struck at 1 is
    shorted at a bid of 1/8.
    """
    moves = {"a": Fraction(2), "b": Fraction(1), "c": Fraction(1, 2)}
    stock = {"r": Fraction(1)}
    nodes = [{"id": "r", "time": 0}]
    frontier = ["r"]
    for t in range(1, horizon + 1):
        grown = []
        for parent in frontier:
            for m, factor in moves.items():
                nid = parent + m
                stock[nid] = stock[parent] * factor
                nodes.append({"id": nid, "time": t, "parent": parent})
                grown.append(nid)
        frontier = grown
    text = lambda x: f"{x.numerator}/{x.denominator}"
    return {
        "horizon": horizon,
        "nodes": nodes,
        "stock": {"dim": 1, "values": {v: [text(s)] for v, s in stock.items()}},
        "claim": {"values": {v: text(max(s - 1, Fraction(0))) for v, s in stock.items()}},
        "weights": {v: text(Fraction(1, len(frontier))) for v in frontier},
        "americans_short": [{
            "values": {v: text(max(1 - s, Fraction(0))) for v, s in stock.items()},
            "price": "1/8",
        }],
        "kernels": {
            v: [["1/2", "0", "1/2"], ["1/3", "0", "2/3"]]
            for v in stock if len(v) <= horizon
        },
    }
