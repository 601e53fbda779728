"""The price's one measure LP against the hedge LP it replaced.

``price_with_dual`` solves the measure LP and reads the hedge off its
duals; ``subhedge``/``superhedge`` build and solve the hedge LP on their
own and are the reference here.  On every fixture market and on seeded
generated ones, both sides must give the reference price exactly, the
hedge read off the duals must hold on every path (re-evaluated here by
``hedging.evaluate_gain``), and the measure must pass its polytope's check.  On
mispriced markets the measure LP is empty, and the ray read off its
Farkas vector must be a strategy that gains on every path.
"""
from __future__ import annotations

import json
import random

import pytest

from amhedge import hedging, measures
from amhedge.campaign import pin_quote, random_sna_model
from amhedge.cli import main
from amhedge.enlarged import enlarge, extend_claim
from amhedge.errors import SnaFailure
from amhedge.hedging import GainLP, SemiStaticStrategy, subhedge, superhedge, unbounded_ray
from amhedge.market import load_model
from amhedge.measures import price_with_dual
from amhedge.rationals import ONE, ZERO, Q, rat_str
from amhedge.robust import supported_paths, supported_space

from conftest import binomial_put_book_dict, path_gains, trinomial_dict, unbranched_book_dicts
from test_report_bytes import CAMPAIGN_MODELS, CONFTEST_MODELS, _model

SIDES = ("sub", "super")


def _generated_seeds(count: int) -> list[int]:
    """The first seeds whose generated market has N <= 2, M <= 1 and L <= 1."""
    seeds = []
    seed = 0
    while len(seeds) < count:
        m = random_sna_model(random.Random(seed)).model
        if m.N <= 2 and m.M <= 1 and m.L <= 1:
            seeds.append(seed)
        seed += 1
    return seeds


GENERATED = _generated_seeds(8)


def _space(model, side):
    """The side's enlarged space, restricted to the kernel support, if any."""
    enl = enlarge(model, model.N + (side == "super"))
    return supported_space(enl) if model.kernels else enl


def _check_against_reference(model, side):
    enl = _space(model, side)
    report, pt = price_with_dual(enl, side)
    ref = (subhedge if side == "sub" else superhedge)(enl)
    assert report.price == ref.price
    assert report.gap == ZERO
    assert report.to_json(enl)["dual_ref"] == {"measure": {
        enl.epaths[p].label: rat_str(q) for p, q in sorted(report.measure.items())}}

    bad = [row for row in pt.verdicts(report.measure) if not row[-1]]
    assert not bad, bad

    strat = report.strategy
    books = [*strat.long_european, *strat.long_american, *strat.short_american]
    books += [m for nu in strat.liquidation for m in nu.values()]
    assert all(v >= ZERO for v in books)
    # evaluate_gain raises unless each nu_j sums to b_j along every path
    gains = path_gains(enl, strat)
    claim = extend_claim(enl, side)
    eta = report.exercise
    assert (eta is None) == (side == "super")
    for p in range(enl.num_paths):
        if side == "super":
            assert report.price + gains[p] >= claim[p]
            continue
        seq = enl.epaths[p].node_seq
        assert all(eta.get(v, ZERO) >= ZERO for v in seq)
        assert sum((eta.get(v, ZERO) for v in seq), ZERO) == ONE
        held = sum((eta.get(v, ZERO) * claim[v] for v in seq), ZERO)
        assert gains[p] + held >= report.price
    return report


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name", [*CONFTEST_MODELS, *CAMPAIGN_MODELS])
def test_fixture_prices_match_the_hedge_lp(name, side, request):
    _check_against_reference(_model(request, name), side)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name", sorted(unbranched_book_dicts()))
def test_unbranched_runs_price_like_the_hedge_lp(name, side):
    _check_against_reference(load_model(unbranched_book_dicts()[name]), side)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("seed", GENERATED)
def test_generated_prices_match_the_hedge_lp(seed, side):
    _check_against_reference(random_sna_model(random.Random(seed)).model, side)


def test_support_that_skips_a_base_path_prices_like_the_hedge_lp():
    # the kernel charges b only: on n = N the support is paths [2, 3],
    # whose first visits run 0, 4, 2, 5 while the hedge LP's columns
    # follow the support forest in index order
    data = trinomial_dict()
    data["claim"] = {"values": {"r": "0", "a": "0", "b": "1", "c": "0"}}
    data["americans_short"] = [{"values": {"r": "0", "a": "0", "b": "1/2", "c": "0"},
                                "price": "1/4"}]
    data["kernels"] = {"r": [["0", "1", "0"]]}
    model = load_model(data)
    assert supported_paths(enlarge(model, model.N)) == [2, 3]
    assert GainLP(_space(model, "sub")).carry_nodes == [0, 2, 4, 5]
    for side in SIDES:
        assert _check_against_reference(model, side).price != ZERO


# (seed, books the hedge holds) of generated markets with one quote pinned
# at its polytope extreme: there the option rows bind and their duals move
PINNED = {
    6: {"super": "a"},
    17: {"sub": "a", "super": "b"},
    49: {"super": "b"},
    58: {"sub": "c", "super": "c"},
    99: {"sub": "ac"},
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_pinned_quotes_put_options_in_the_hedge(seed):
    gm = random_sna_model(random.Random(seed))
    model, _ = pin_quote(random.Random(seed), gm, ZERO)
    for side in SIDES:
        report = _check_against_reference(model, side)
        strat = report.strategy
        held = {"a": strat.long_european, "b": strat.long_american, "c": strat.short_american}
        for kind in PINNED[seed].get(side, ""):
            assert any(held[kind]), (side, kind)


# -- the arbitrage path: an empty measure LP and its ray ------------------------

@pytest.fixture
def rays(monkeypatch):
    """The (x, ray) pairs hedging.unbounded_ray receives, from the measure
    LP and the hedge LP alike; each call is delegated unchanged."""
    seen = []

    def record(enl, kind, sign, x, ray):
        seen.append((x, ray))
        return unbounded_ray(enl, kind, sign, x, ray)

    monkeypatch.setattr(measures, "unbounded_ray", record)
    monkeypatch.setattr(hedging, "unbounded_ray", record)
    return seen


def _refused_ray(rays, price) -> tuple[Q, SemiStaticStrategy]:
    """The one (x, ray) unbounded_ray receives while price() is refused."""
    rays.clear()
    with pytest.raises(SnaFailure, match="price is unbounded"):
        price()
    (x, ray), = rays
    return x, ray


MISPRICED = {
    # a short call bid above the call's largest payoff, 11 at S = 16
    "short_bid_high": binomial_put_book_dict(2, short_bid="12"),
    # a long put (struck at 5) asked below its exercise value 1 at the root
    "long_ask_low": binomial_put_book_dict(2, long_ask="1/2"),
}


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name", sorted(MISPRICED))
def test_mispriced_price_exits_2_with_a_checked_ray(name, side, tmp_path, capsys, rays):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MISPRICED[name]))
    code = main(["price", "--model", str(path), "--side", side])
    out, err = capsys.readouterr()
    assert code == 2 and "price is unbounded" in err and out == ""

    model = load_model(MISPRICED[name])
    enl = enlarge(model, model.N + (side == "super"))
    x, ray = _refused_ray(rays, lambda: price_with_dual(enl, side))
    # an improving ray of the hedge LP: min x (super) falls, max x (sub) rises
    assert (x < ZERO) if side == "super" else (x > ZERO)
    gains = path_gains(enl, ray)
    assert all(gain >= abs(x) for gain in gains.values())
    # the hedge LP fails the same way, with a ray that gains as much
    x, ray = _refused_ray(rays, lambda: (subhedge if side == "sub" else superhedge)(enl))
    assert all(gain >= abs(x) > ZERO for gain in path_gains(enl, ray).values())


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name", sorted(MISPRICED))
def test_refused_price_writes_nothing(name, side, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MISPRICED[name]))
    report = tmp_path / "price.json"
    code = main(["price", "--model", str(path), "--side", side, "--out", str(report)])
    _, err = capsys.readouterr()
    assert code == 2 and "price is unbounded" in err
    assert not report.exists()


@pytest.mark.parametrize("seed", GENERATED[:4])
def test_corroded_markets_fail_on_both_lps(seed, rays):
    gm = random_sna_model(random.Random(seed))
    model, _ = pin_quote(random.Random(seed), gm, None)
    for side in SIDES:
        enl = enlarge(model, model.N + (side == "super"))
        for price in (lambda: price_with_dual(enl, side),
                      lambda: (subhedge if side == "sub" else superhedge)(enl)):
            x, ray = _refused_ray(rays, price)
            assert all(gain >= abs(x) > ZERO for gain in path_gains(enl, ray).values())
