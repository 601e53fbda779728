"""Model loading, validation, and price surgery."""
from __future__ import annotations

import re
from fractions import Fraction

import pytest

from amhedge.errors import ModelFormatError
from amhedge.market import emit_model, load_model
from amhedge.rationals import ONE, Q, rat

from conftest import binomial_dict


def test_tree_shape(two_period):
    tree = two_period.tree
    assert tree.horizon == 2
    assert len(tree.paths) == 4
    assert tree.paths[0] == ("r", "u", "uu")
    assert tree.children["r"] == ("u", "d")
    assert set(tree.leaves) == {"uu", "ud", "du", "dd"}


def test_counts(binomial_short_put):
    m = binomial_short_put
    assert (m.L, m.M, m.N) == (0, 0, 1)
    assert m.dim == 1
    assert m.stock["u"] == (Q(2),)
    assert m.claim["u"] == ONE


def test_round_trip(binomial_short_put, two_period):
    for m in (binomial_short_put, two_period):
        doc = emit_model(m)
        again = emit_model(load_model(doc))
        assert doc == again


def test_path_weights(two_period):
    assert sum(two_period.path_weight(p) for p in range(4)) == ONE
    assert two_period.path_weight(0) == Q(1, 4)


def test_rat_rebuilds_a_rational_of_another_type():
    class Ratio(Fraction):
        pass

    # a Fraction subclass, then a Fraction where the backend is gmpy2's mpq
    for value in (Ratio(3, 4), Fraction(3, 4)):
        q = rat(value)
        assert type(q) is Q and q == Q(3, 4)


def test_with_prices(binomial_short_put):
    m2 = binomial_short_put.with_prices(gammas=[Q(1, 2)])
    assert m2.americans_short[0][1] == Q(1, 2)
    # original untouched, payoff shared
    assert binomial_short_put.americans_short[0][1] == Q(1, 4)
    assert m2.americans_short[0][0] is binomial_short_put.americans_short[0][0]


def test_with_prices_rejects_wrong_length(binomial_short_put):
    # one quote per option of the book: dropping or adding one raises
    for gammas in ([], [Q(1, 2), Q(1, 3)]):
        with pytest.raises(ValueError):
            binomial_short_put.with_prices(gammas=gammas)
    with pytest.raises(ValueError):
        binomial_short_put.with_prices(alphas=[Q(1, 2)])


def test_shifted_prices(binomial_short_put):
    m2 = binomial_short_put.shifted_prices(Q(1, 8))
    # shorted quotes move up: selling at a higher price favors the trader
    assert m2.americans_short[0][1] == Q(3, 8)


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("horizon"), "missing 'horizon'"),
    (lambda d: d.update(horizon="two"), "must be an integer"),
    (lambda d: d["nodes"].append({"id": "u", "time": 1, "parent": "r"}), "duplicate"),
    (lambda d: d["nodes"].append({"id": "x", "time": 0}), "exactly one root"),
    (lambda d: d["nodes"].append({"id": "x", "time": 1, "parent": "ghost"}), "missing parent"),
    (lambda d: d["nodes"].append({"id": "x", "time": 2, "parent": "r"}),
     "not one period after"),
    (lambda d: d.update(horizon=2), "no children"),
    (lambda d: d["stock"]["values"].pop("u"), "not adapted"),
    (lambda d: d["stock"]["values"].update(u=["2", "3"]), "u(len)"),
    (lambda d: d["claim"]["values"].update(ghost="1"), "ghost(unknown)"),
    (lambda d: d.update(americans_short=[{"values": {"r": "0", "u": "0"}, "price": "1/4"}]),
     "americans_short[0] is not adapted"),
    (lambda d: d["stock"]["values"].update(u="oops"), "must be a list"),
    (lambda d: d["stock"].update(dim=0), "positive integer"),
    (lambda d: d["weights"].pop("u"), "miss path"),
    (lambda d: d["weights"].update(u="0"), "strictly positive"),
    (lambda d: d["weights"].update(u="2/3"), "sum to"),
    (lambda d: d["weights"].update(ghost="1/7"), "unknown leaves"),
    (lambda d: d.update(kernels={"r": []}), "is empty"),
    (lambda d: d.update(kernels={"u": [["1"]]}), "terminal node"),
    (lambda d: d.update(kernels={"ghost": [["1"]]}), "unknown node"),
    (lambda d: d.update(kernels={"r": [["1/2", "1/3"]]}), "not a distribution"),
])
def test_loader_rejects(mutate, fragment):
    data = binomial_dict()
    mutate(data)
    with pytest.raises(ModelFormatError, match=re.escape(fragment)):
        load_model(data)


def test_loader_rejects_bad_json():
    with pytest.raises(ModelFormatError, match="invalid JSON"):
        load_model("{not json")
    with pytest.raises(ModelFormatError, match="JSON object"):
        load_model("[1, 2]")


def test_european_payoff_covers_leaves():
    data = binomial_dict(europeans=[{"payoff": {"u": "1"}, "price": "1/3"}])
    with pytest.raises(ModelFormatError, match="misses leaves"):
        load_model(data)


@pytest.mark.parametrize("extra", ["r", "ghost"])
def test_european_payoff_names_only_leaves(extra):
    # a payoff is read at the leaves alone: any other key is a schema error
    data = binomial_dict(europeans=[{"payoff": {"u": "1", "d": "0", extra: "1"}, "price": "1/3"}])
    with pytest.raises(ModelFormatError, match=re.escape(f"payoff references non-leaves ['{extra}']")):
        load_model(data)


def test_kernels_must_cover_all_nonterminal():
    data = binomial_dict()
    data["horizon"] = 2
    data["nodes"] += [
        {"id": "uu", "time": 2, "parent": "u"},
        {"id": "ud", "time": 2, "parent": "u"},
        {"id": "du", "time": 2, "parent": "d"},
        {"id": "dd", "time": 2, "parent": "d"},
    ]
    data["stock"]["values"].update(uu=["4"], ud=["1"], du=["1"], dd=["1/4"])
    data["claim"]["values"].update(uu="3", ud="0", du="0", dd="0")
    data["weights"] = {"uu": "1/4", "ud": "1/4", "du": "1/4", "dd": "1/4"}
    data["kernels"] = {"r": [["1/2", "1/2"]]}
    with pytest.raises(ModelFormatError, match="miss non-terminal"):
        load_model(data)
