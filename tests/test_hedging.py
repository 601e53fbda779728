"""Primal hedging LPs on hand-sized markets.

Oracles: with stock 1 -> {2, 1/2} the unique one-step martingale law is
q(u) = 1/3, so claims priced under it give closed-form values; the short
put book at gamma = 1/4 pins total u-mass at 1/3 in every consistent
measure (martingale rows force q(u,.) = q(d,.)/2 per root atom, so
u-mass = 1/3 regardless of the clock split), hence both prices stay 1/3.
"""
from __future__ import annotations

import pytest

from amhedge import hedging, oracles
from amhedge.divisible import EPS_GRID
from amhedge.enlarged import enlarge
from amhedge.errors import PropertyViolation, SnaFailure
from amhedge.hedging import (
    SemiStaticStrategy,
    arbitrage_witness,
    detect_arbitrage,
    evaluate_gain,
    subhedge,
    subhedge_european,
    superhedge,
    unbounded_ray,
)
from amhedge.lp import solve
from amhedge.market import load_model
from amhedge.measures import build_polytope, price_with_dual
from amhedge.oracles import check_sna
from amhedge.rationals import ONE, Q, ZERO

from conftest import binomial_dict, binomial_put_book_dict, path_gains
from test_report_bytes import CONFTEST_MODELS


def test_unique_measure_prices(binomial):
    sub = subhedge(enlarge(binomial, 0))
    sup = superhedge(enlarge(binomial, 1))
    assert sub.price == Q(1, 3)
    assert sup.price == Q(1, 3)
    assert sub.kind == "sub" and sup.kind == "super"


def test_two_period_attainable_claim(two_period):
    # Snell envelope under the unique law: u-node max(1, 1) = 1, root 1/3
    assert subhedge(enlarge(two_period, 0)).price == Q(1, 3)
    assert superhedge(enlarge(two_period, 1)).price == Q(1, 3)


def test_short_put_leaves_prices_pinned(binomial_short_put):
    assert subhedge(enlarge(binomial_short_put, 1)).price == Q(1, 3)
    assert superhedge(enlarge(binomial_short_put, 2)).price == Q(1, 3)


def test_sides_demand_their_own_space(binomial_short_put):
    with pytest.raises(ValueError):
        subhedge(enlarge(binomial_short_put, 2))
    with pytest.raises(ValueError):
        superhedge(enlarge(binomial_short_put, 1))
    with pytest.raises(ValueError):
        price_with_dual(enlarge(binomial_short_put, 2), "sub")
    with pytest.raises(ValueError):
        price_with_dual(enlarge(binomial_short_put, 1), "super")


def test_sub_reports_exercise(binomial_short_put):
    enl = enlarge(binomial_short_put, 1)
    rep = subhedge(enl)
    assert rep.exercise is not None
    for p in range(enl.num_paths):
        seq = enl.epaths[p].node_seq
        assert sum((rep.exercise.get(v, ZERO) for v in seq), ZERO) == ONE


def test_payoff_enlarged_hand_strategy(binomial):
    # the strategy's payoff on each enlarged path, by evaluate_gain
    enl = enlarge(binomial, 0)
    # hold one share: gain is the increment itself
    strat = SemiStaticStrategy(
        stock={(0, 0): ONE}, long_european=[], long_american=[],
        short_american=[], liquidation=[],
    )
    assert path_gains(enl, strat) == {0: ONE, 1: Q(-1, 2)}


def test_payoff_enlarged_rejects_mismatched_strategy(binomial):
    # a book of another market: the binomial market quotes no European
    enl = enlarge(binomial, 0)
    strat = SemiStaticStrategy(
        stock={}, long_european=[ONE], long_american=[],
        short_american=[], liquidation=[],
    )
    with pytest.raises(ValueError):
        evaluate_gain(enl, strat)
    # a share of a second stock the binomial market does not have
    strat = strat._replace(stock={(0, 1): ONE}, long_european=[])
    with pytest.raises(ValueError, match="stock dimensions"):
        evaluate_gain(enl, strat)
    # a share held at the down leaf, a node of no path of the up path's space
    up = enl.restricted([0])
    (down,) = set(enl.children) - set(up.children)
    strat = strat._replace(stock={(down, 0): ONE})
    with pytest.raises(ValueError, match="^strategy positions lie on nodes outside the space$"):
        evaluate_gain(up, strat)
    assert evaluate_gain(enl, strat)[0] == {0: 0, 1: 0}
    # a liquidation at the down leaf, and an exercise weight there
    longed = load_model(binomial_dict(americans_long=[
        {"values": {"r": "0", "u": "1", "d": "0"}, "price": "1/2"}]))
    enl = enlarge(longed, 0)
    up = enl.restricted([0])
    (root,), (down,) = up.roots, set(enl.children) - set(up.children)
    (leaf,) = up.children[root]
    book = SemiStaticStrategy(stock={}, long_european=[], long_american=[ONE],
                              short_american=[], liquidation=[{leaf: ONE, down: ONE}])
    with pytest.raises(ValueError, match="^strategy positions lie on nodes outside the space$"):
        evaluate_gain(up, book)
    cash = book._replace(long_american=[ZERO], liquidation=[{}])
    with pytest.raises(ValueError, match="^strategy positions lie on nodes outside the space$"):
        hedging.check_hedge(up, cash, ONE, ONE, [ZERO], exercise={root: ONE, down: ZERO},
                            kind="sub")
    hedging.check_hedge(up, cash, ONE, ONE, [ZERO], exercise={root: ONE}, kind="sub")


@pytest.mark.parametrize("longs, liquidation", [
    pytest.param([ONE], [], id="long without its map"),
    pytest.param([], [{}], id="map without a long"),
])
def test_evaluate_gain_needs_one_liquidation_map_per_long_american(longs, liquidation):
    # without its map a long's payoff is never read and its mass never
    # checked; a map of no long has no position to sum to
    model = load_model(binomial_dict(americans_long=[
        {"values": {"r": "0", "u": "1", "d": "0"}, "price": "3"}] * len(longs)))
    strat = SemiStaticStrategy(stock={}, long_european=[], long_american=longs,
                               short_american=[], liquidation=liquidation)
    with pytest.raises(ValueError, match="^strategy option counts do not match the model$"):
        evaluate_gain(enlarge(model, 0), strat)


def test_no_arbitrage_clean_market(binomial):
    rep = detect_arbitrage(enlarge(binomial, 0))
    assert not rep.found and rep.gain == ZERO and rep.strategy is None


def test_arbitrage_restricted_to_paths(binomial):
    # on the up path alone a share held from r wins 1 and never loses; the
    # cap scales it to two shares, an expected gain of 1 at weight 1/2
    enl = enlarge(binomial, 0).restricted([0])
    rep = detect_arbitrage(enl)
    assert rep.found and rep.gain == ONE
    assert list(rep.strategy.stock.values()) == [2]
    assert path_gains(enl, rep.strategy) == {0: 2}


def test_arbitrage_lp_caps_the_expected_gain(request, monkeypatch):
    # the cap row bounds the objective, not the positions: every witness
    # gains exactly 1 in expectation, and each stock position is one free
    # column per (trade node, dim), as in every other GainLP
    asked = []
    monkeypatch.setattr(hedging, "solve", lambda lp: asked.append(lp) or solve(lp))
    found = 0
    for name in CONFTEST_MODELS:
        model = request.getfixturevalue(name)
        for m in [model, *(model.shifted_prices(eps) for eps in EPS_GRID)]:
            for n in (m.N, m.N + 1):
                enl = enlarge(m, n)
                rep = detect_arbitrage(enl)
                assert rep.gain == (ONE if rep.found else ZERO)
                found += rep.found
                lp = asked[-1]
                stock = [j for j, var in enumerate(lp.var_names) if var.startswith("H")]
                assert [lp.var_names[j] for j in stock] == [
                    f"H[{enl.enode(v).label};{d}]"
                    for v, kids in enl.children.items() if kids for d in range(m.dim)]
                assert not any(lp.nonneg[j] for j in stock)
    assert found == 6  # binomial_short_put with its bid raised by 1/2, 1/4 and 1/8


def test_arbitrage_lp_finds_a_gross_mispricing(monkeypatch):
    # a call bid of 200 over a payoff of at most 123: the arbitrage LP finds
    # the gain after a run of degenerate pivots (640 under the l1 cap on the
    # positions, 417 under the cap on the expected gain); no request builds
    # this LP, since ftap reads its witness off the slack LP
    # (test_cli::test_ftap_reads_a_gross_mispricing_off_one_lp)
    outs = []
    monkeypatch.setattr(hedging, "solve", lambda lp: outs.append(solve(lp)) or outs[-1])
    model = load_model(binomial_put_book_dict(5, short_bid="200"))
    rep = detect_arbitrage(enlarge(model, model.N))
    assert rep.found and rep.gain == ONE
    assert len(outs) == 1 and outs[0].pivots <= 450


def test_arbitrage_from_cheap_european():
    # claim payoff sold at 1/4 < its pinned value 1/3
    model = load_model(binomial_dict(europeans=[
        {"payoff": {"u": "1", "d": "0"}, "price": "1/4"},
    ]))
    enl = enlarge(model, 0)
    rep = detect_arbitrage(enl)
    assert rep.found and rep.gain > ZERO
    gains = path_gains(enl, rep.strategy)
    assert all(g >= ZERO for g in gains.values())
    assert any(g > ZERO for g in gains.values())


def test_arbitrage_from_rich_short_put():
    model = load_model(binomial_dict(americans_short=[
        {"values": {"r": "0", "u": "0", "d": "1/2"}, "price": "1/2"},
    ]))
    rep = detect_arbitrage(enlarge(model, 1))
    assert rep.found and rep.gain > ZERO


def test_subhedge_unbounded_on_free_lunch():
    # European quoted below its minimum payoff: gains scale without bound
    model = load_model(binomial_dict(europeans=[
        {"payoff": {"u": "1", "d": "0"}, "price": "-1/10"},
    ]))
    refusal = "^sub hedging price is unbounded: the market admits arbitrage$"
    with pytest.raises(SnaFailure, match=refusal):
        subhedge(enlarge(model, 0))


def test_unbounded_ray_is_checked_on_every_path():
    # one European bought at -1/10 gains its payoff (1 at u, 0 at d) + 1/10
    model = load_model(binomial_dict(europeans=[
        {"payoff": {"u": "1", "d": "0"}, "price": "-1/10"},
    ]))
    enl = enlarge(model, 0)
    ray = SemiStaticStrategy(stock={}, long_european=[ONE], long_american=[],
                             short_american=[], liquidation=[])
    assert "unbounded" in str(unbounded_ray(enl, "sub", -ONE, Q(1, 10), ray))
    # a ray that does not gain |x| = 1 on path d is no ray
    with pytest.raises(PropertyViolation, match=r"^sub ray hedge fails on path 1: "):
        unbounded_ray(enl, "sub", -ONE, ONE, ray)
    with pytest.raises(PropertyViolation, match="ray does not improve"):
        unbounded_ray(enl, "sub", -ONE, -Q(1, 10), ray)


def test_arbitrage_witness_refuses_positive_cash():
    # one European bought at 1/4 pays 1 at u and 0 at d: cash 1/2 covers it
    # on both paths, yet the book alone loses 1/4 on path d
    model = load_model(binomial_dict(europeans=[
        {"payoff": {"u": "1", "d": "0"}, "price": "1/4"},
    ]))
    book = SemiStaticStrategy(stock={}, long_european=[ONE], long_american=[],
                              short_american=[], liquidation=[])
    with pytest.raises(PropertyViolation, match=r"^arbitrage witness starts from cash 1/2 > 0$"):
        arbitrage_witness(enlarge(model, 0), book, Q(1, 2))


def test_subhedge_european(binomial):
    enl = enlarge(binomial, 0)
    rep = subhedge_european(enl, [ONE, ZERO])
    assert rep.price == Q(1, 3)
    # constant payoff prices to itself
    assert subhedge_european(enl, [Q(5, 7), Q(5, 7)]).price == Q(5, 7)


def test_check_sna_slack(binomial_short_put):
    cert = check_sna(build_polytope(enlarge(binomial_short_put, 1)))
    assert cert.holds
    # max s with q(u-mass) = 1/3 split as a + b, slacks {a, b, b - 1/4}
    assert cert.slack == Q(1, 24)


def test_check_sna_fails_at_rich_quote(monkeypatch):
    model = load_model(binomial_dict(americans_short=[
        {"values": {"r": "0", "u": "0", "d": "1/2"}, "price": "1/2"},
    ]))

    def no_primal(enl):
        raise AssertionError("no primal cross-check without a positive slack")

    # the primal LP at the shifted quotes runs only when the slack is positive
    monkeypatch.setattr(oracles, "detect_arbitrage", no_primal)
    cert = check_sna(build_polytope(enlarge(model, 1)))
    assert not cert.holds
    assert cert.slack == Q(-1, 6)


def test_check_sna_raises_when_the_shifted_quotes_admit_arbitrage(monkeypatch,
                                                                 binomial_short_put):
    real = oracles.detect_arbitrage
    monkeypatch.setattr(oracles, "detect_arbitrage",
                        lambda enl: real(enl)._replace(gain=ONE))
    with pytest.raises(PropertyViolation,
                       match="^dual slack promises SNA but shifted prices admit arbitrage$"):
        check_sna(build_polytope(enlarge(binomial_short_put, 1)))


def test_price_override_changes_outcome(binomial_short_put):
    enl = enlarge(binomial_short_put, 1)
    rich = binomial_short_put.with_prices(gammas=[Q(1, 2)])
    assert detect_arbitrage(enlarge(rich, 1)).found
    assert not detect_arbitrage(enl).found


def test_liquidation_mass_must_match_position(binomial):
    model = load_model(binomial_dict(americans_long=[
        {"values": {"r": "0", "u": "1", "d": "0"}, "price": "1/3"},
    ]))
    enl = enlarge(model, 0)
    strat = SemiStaticStrategy(
        stock={}, long_european=[], long_american=[ONE],
        short_american=[], liquidation=[{0: Q(1, 2)}],    # sums to 1/2, not 1
    )
    with pytest.raises(PropertyViolation):
        evaluate_gain(enl, strat)
