"""Quasi-sure engine under kernel families of one-step laws.

Hand oracles on the binomial/trinomial markets: under the interior
kernel (1/2, 1/2) over stock moves {+1, -1/2} the unique martingale law
(1/3, 2/3) has mass floor 1/3, which is the uniform slack of the
quasi-sure certificate; the claim paying 1 on the up state prices to
1/3 under that law.
"""
from __future__ import annotations

import pytest

import amhedge.oracles as oracles
from amhedge.campaign import selector_sweep
from amhedge.enlarged import enlarge, extend_claim
from amhedge.errors import ModelFormatError, PropertyViolation, SnaFailure
from amhedge.hedging import subhedge, superhedge
from amhedge.market import load_model
from amhedge.lp import IntVector
from amhedge.measures import MeasurePolytope, build_polytope, ftap_certificate, price_with_dual
from amhedge.oracles import (
    dp_superhedge,
    drop_options,
    ftap_transfer,
    robust_na,
    submarket_slacks,
    verify_minimax,
    vertex_measure,
)
from amhedge.rationals import ONE, Q, ZERO
from amhedge.robust import num_selectors, supported_paths, supported_space

from conftest import binomial_dict, trinomial_kernels_dict


def _binomial(kern):
    return load_model(binomial_dict(kernels=kern))


def _binomial_put(kern, gamma="1/4"):
    return load_model(binomial_dict(
        americans_short=[{"values": {"r": "0", "u": "0", "d": "1/2"}, "price": gamma}],
        kernels=kern,
    ))


def _binomial_kern_long(long_option):
    return load_model(binomial_dict(americans_long=[long_option], kernels=INTERIOR))


def _trinomial(kern, **extra):
    return load_model({
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
        "kernels": kern,
        **extra,
    })


INTERIOR = {"r": [["1/2", "1/2"]]}
SURE_UP = {"r": [["1", "0"]]}


def _qs_price(enl, side):
    """The quasi-sure price: the classical measure LP on the supported space."""
    return price_with_dual(supported_space(enl), side)[0]


def _stock_polytope(model):
    """The martingale polytope robust_na certifies on: the stock-only
    market's n = 0 space, restricted to its supported paths."""
    return MeasurePolytope(supported_space(enlarge(drop_options(model), 0)))


def _qs_ftap(enl):
    """The quasi-sure FTAP: the classical certificate on the supported space."""
    return ftap_certificate(build_polytope(supported_space(enl)))


def test_na_interior_singleton():
    arb, cert = robust_na(enlarge(_binomial(INTERIOR), 0))
    assert cert.holds and arb.gain == ZERO
    # the unique martingale law (1/3, 2/3), slack its mass floor
    assert cert.slack == Q(1, 3)
    assert cert.measure == {0: Q(1, 3), 1: Q(2, 3)}


def test_na_fails_on_sure_up():
    arb, cert = robust_na(enlarge(_binomial(SURE_UP), 0))
    assert not cert.holds and arb.gain > ZERO
    # holding a share wins 1 on the only supported path; the cap on the
    # expected gain scales it to two shares at weight 1/2
    assert list(arb.strategy.stock.values()) == [2]
    assert cert.slack is None


def _stock_only(model, *, europeans=False):
    """Super-hedge of the claim on the 1-clock space of the market without other books."""
    return _qs_price(enlarge(drop_options(model, europeans=europeans), 1), "super")


def test_drop_options_keeps_kernels_claim_and_asked_books():
    model = load_model(binomial_dict(
        europeans=[{"payoff": {"u": "1", "d": "0"}, "price": "1/2"}],
        americans_short=[{"values": {"r": "0", "u": "0", "d": "1/2"}, "price": "1/4"}],
        kernels=INTERIOR,
    ))
    bare = drop_options(model)
    assert (bare.L, bare.M, bare.N) == (0, 0, 0)
    assert bare.kernels == model.kernels and bare.claim is model.claim
    assert drop_options(model, europeans=True).europeans == model.europeans
    # the source market keeps its books
    assert (model.L, model.N) == (1, 1)


def test_non_distribution_vertex_fails_when_the_support_is_read():
    # a market built in code skips load_model's check; reading its
    # support runs check_kernel_family all the same
    model = _binomial(INTERIOR)._replace(kernels={"r": [(Q(1, 2), Q(1, 3))]})
    enl = enlarge(model, 0)
    for read in (supported_paths, supported_space, lambda e: num_selectors(e.model)):
        with pytest.raises(ModelFormatError, match="not a distribution"):
            read(enl)


def test_support_follows_the_market_family_on_one_space():
    # another family is another market on the same space
    enl = enlarge(_trinomial(TWO_VERTEX), 0)
    assert supported_paths(enl) == [0, 1, 2]
    narrow = enl.model._replace(kernels={"r": [TWO_VERTEX_Q[1]]})
    assert supported_paths(enl.with_model(narrow)) == [0, 2]
    assert supported_paths(enl) == [0, 1, 2]


def test_stock_superhedge():
    stock = enlarge(drop_options(_binomial(INTERIOR)), 1)
    rep = _qs_price(stock, "super")
    assert rep.price == Q(1, 3)
    # the classical dual_ref schema: the unique martingale law (1/3, 2/3)
    assert rep.gap == ZERO and rep.to_json(stock)["dual_ref"] == {
        "measure": {"p0@1": "1/3", "p1@1": "2/3"}}
    # constants price to themselves
    flat = {"values": {"r": "5/7", "u": "5/7", "d": "5/7"}}
    model = load_model(binomial_dict(claim=flat, kernels=INTERIOR))
    assert _stock_only(model).price == Q(5, 7)


def test_stock_superhedge_flags_arbitrage():
    with pytest.raises(SnaFailure):
        _stock_only(_binomial(SURE_UP))


def _put_super_target(kern):
    model = _binomial_put(kern)
    enl = enlarge(model, 2)
    target = extend_claim(enl, "super")
    zeta = {p: target[p] for p in range(enl.num_paths)}
    return model, enl, zeta


def _dp(enl, zeta):
    """The quasi-sure backward induction: the DP on the supported space,
    of zeta given per path of enl."""
    paths = supported_paths(enl)
    return dp_superhedge(enl.restricted(paths), [zeta[p] for p in paths])


def test_dp_matches_stock_superhedge():
    _, enl, zeta = _put_super_target(INTERIOR)
    dp = _dp(enl, zeta)
    assert dp.value == Q(1, 3)
    # the 4 supported root atoms share 2 distinct one-step LPs, each solved once
    roots = {enl.epaths[p].node_seq[0] for p in supported_paths(enl)}
    assert len(roots) == 4 and dp.lp_count == 2


def test_stock_only_price_ignores_the_short_clocks():
    # the put's clock enters neither the gain of a stock hedge nor the
    # claim: the 1-clock price of the market without the put equals the
    # backward induction on the 2-clock space of the market with it
    model, enl, zeta = _put_super_target(INTERIOR)
    assert model.N == 1 and enl.n == 2
    assert _stock_only(model).price == _dp(enl, zeta).value


def test_dp_raises_on_local_arbitrage():
    _, enl, zeta = _put_super_target(SURE_UP)
    with pytest.raises(SnaFailure, match=r"^no one-step martingale law at \S+ \(local arbitrage\)$"):
        _dp(enl, zeta)


def test_dp_pins_martingale():
    # the stock itself is super-hedged at its price today, by one share
    model = _binomial(INTERIOR)
    enl = enlarge(model, 0)
    # the stock at time t on the base path under enlarged path p
    at = lambda p, t: model.stock[model.tree.paths[enl.epaths[p].base_index][t]][0]
    dp = _dp(enl, [at(p, 1) for p in range(enl.num_paths)])
    assert dp.value == at(0, 0) == ONE
    assert dp.strategy == {(enl.epaths[0].node_seq[0], 0): ONE}


TWO_VERTEX = {"r": [["1/3", "1/3", "1/3"], ["1/2", "0", "1/2"]]}
TWO_VERTEX_Q = [(Q(1, 3), Q(1, 3), Q(1, 3)), (Q(1, 2), ZERO, Q(1, 2))]


def test_two_vertex_support_and_prices():
    model = _trinomial(TWO_VERTEX)
    assert model.kernels == {"r": TWO_VERTEX_Q}
    enl = enlarge(model, 0)
    assert sorted({enl.epaths[p].base_index for p in supported_paths(enl)}) == [0, 1, 2]
    zeta = {0: ONE, 1: ZERO, 2: ZERO}
    assert _stock_only(model).price == Q(1, 3)
    assert _dp(enl, zeta).value == Q(1, 3)
    _, na = robust_na(enl)
    assert na.holds
    # the martingale law (1/4, 1/4, 1/2) charges all three paths
    assert na.slack == Q(1, 4)
    assert na.measure == {0: Q(1, 4), 1: Q(1, 4), 2: Q(1, 2)}


def _trinomial_book(payoff, price):
    """TWO_VERTEX trinomial with one quoted European."""
    return _trinomial(TWO_VERTEX, europeans=[{"payoff": payoff, "price": price}])


def test_options_tighten_the_stock_price():
    model = _trinomial_book({"a": "1", "b": "0", "c": "0"}, "1/6")
    assert _stock_only(model).price == Q(1, 3)
    rep = _stock_only(model, europeans=True)
    assert rep.price < Q(1, 3)
    assert rep.gap == ZERO
    assert rep.strategy.long_european[0] > ZERO


def test_options_overpriced_book_fails():
    # payoff 1 everywhere sold at 1/2: every measure prices it above
    model = _trinomial_book({"a": "1", "b": "1", "c": "1"}, "1/2")
    with pytest.raises(SnaFailure):
        _stock_only(model, europeans=True)


def test_singleton_family_reproduces_classical():
    model = _binomial_put(INTERIOR)
    sub = _qs_price(enlarge(model, 1), "sub")
    sup = _qs_price(enlarge(model, 2), "super")
    assert sub.price == subhedge(enlarge(model, 1)).price
    assert sup.price == superhedge(enlarge(model, 2)).price
    assert sub.gap == ZERO and sup.gap == ZERO


def test_robust_ftap_holds_with_submarkets():
    enl = enlarge(_binomial_put(INTERIOR), 1)
    cert = _qs_ftap(enl)
    assert cert.holds and cert.slack > ZERO
    # no long option: the sweep is the full market's slack alone
    assert submarket_slacks(enl, cert) == [cert.slack]


def test_submarket_sweep_drops_long_options():
    long_put = {"values": {"r": "0", "u": "0", "d": "1/2"}, "price": "1/2"}
    enl = enlarge(_binomial_kern_long(long_put), 0)
    cert = _qs_ftap(enl)
    bare = _qs_ftap(enlarge(_binomial(INTERIOR), 0))
    slacks = submarket_slacks(enl, cert)
    assert slacks == [bare.slack, cert.slack] and slacks[1] < slacks[0]


def test_robust_ftap_fails_on_sure_up():
    cert = _qs_ftap(enlarge(_binomial(SURE_UP), 0))
    assert not cert.holds and cert.slack is None


def test_robust_ftap_no_options_equals_domination_slack():
    enl = enlarge(_binomial(INTERIOR), 0)
    _, na = robust_na(enl)
    cert = _qs_ftap(enl)
    assert cert.slack == na.slack == Q(1, 3)


def test_one_lp_decides_8192_selectors():
    model = load_model(trinomial_kernels_dict(3))
    assert num_selectors(model) == 8192
    enl = enlarge(model, model.N)
    cert = _qs_ftap(enl)
    assert cert.holds and cert.slack == Q(1, 108)
    # the witness charges every supported path and clears every row by the slack
    pt = build_polytope(supported_space(enl))
    assert all(row[-1] for row in pt.verdicts(cert.measure, min_slack=cert.slack))
    assert sorted(cert.measure) == list(range(len(supported_paths(enl))))


@pytest.mark.parametrize("bid, holds", [("1/8", True), ("1", False)])
def test_selector_sweep_agrees_with_one_lp(bid, holds):
    data = trinomial_kernels_dict(2)
    data["americans_short"][0]["price"] = bid
    model = load_model(data)
    assert num_selectors(model) == 16
    for n in (model.N, model.N + 1):
        enl = enlarge(model, n)
        pt = build_polytope(supported_space(enl))
        assert selector_sweep(pt) == _qs_ftap(enl).holds == holds
    assert selector_sweep(_stock_polytope(model))
    assert robust_na(enlarge(model, model.N))[1].holds


def test_selector_sweep_rechecks_its_witness_at_the_shifted_quotes(monkeypatch):
    data = trinomial_kernels_dict(2)
    data["americans_short"][0]["price"] = "1/8"
    model = load_model(data)
    pt = build_polytope(supported_space(enlarge(model, model.N)))
    real = MeasurePolytope.support_slack

    def overstated(self, **kwargs):
        out = real(self, **kwargs)
        return out._replace(value=out.value + 1)

    # a witness claimed for quotes moved by one more than its slack must fail
    monkeypatch.setattr(MeasurePolytope, "support_slack", overstated)
    with pytest.raises(PropertyViolation, match="slack witness failed re-validation"):
        selector_sweep(pt)


def test_selector_sweep_agrees_on_arbitrage():
    model = _binomial(SURE_UP)
    assert not selector_sweep(_stock_polytope(model))
    assert not selector_sweep(build_polytope(supported_space(enlarge(model, 0))))


def test_ftap_transfer():
    model = _binomial_put(INTERIOR)
    low, high = ftap_transfer(*(
        build_polytope(supported_space(enlarge(model, n))) for n in (model.N, model.N + 1)
    ))
    assert low.holds and high.holds


def _minimax_setup():
    enl = enlarge(_binomial_put(INTERIOR), 1)
    putv = {"r": ZERO, "u": ZERO, "d": Q(1, 2)}
    stream = {v: putv[enl.enode(v).base] for v in supported_space(enl).children}
    return enl, stream


def test_minimax_singleton():
    enl, stream = _minimax_setup()
    rep = verify_minimax(enl, [stream], [vertex_measure(enl, (0,))])
    # best stop is time 1: collects 1/2 on the down move, probability 1/2
    assert rep.value == Q(1, 4)
    assert rep.num_taus == 4


def test_minimax_two_vertices():
    enl, stream = _minimax_setup()
    v1 = vertex_measure(enl, (0,))
    v2 = {p: (Q(3, 4) if enl.epaths[p].base_index == 0 else Q(1, 4)) * enl.clock_mass
          for p in range(enl.num_paths)}
    rep = verify_minimax(enl, [stream], [v1, v2])
    # the up-tilted vertex leaves only 1/4 mass on the down move
    assert rep.value == Q(1, 8)
    # a constant second stream shifts the value by that constant
    const = {v: Q(2, 7) for v in supported_space(enl).children}
    rep2 = verify_minimax(enl, [stream, const], [v1, v2])
    assert rep2.value == rep.value + Q(2, 7)


def test_minimax_middle_term_must_match(monkeypatch):
    # the backward induction at the dual mixture must equal both LP values
    enl, stream = _minimax_setup()
    real = oracles.snell_value
    monkeypatch.setattr(oracles, "snell_value", lambda *a, **k: real(*a, **k) + Q(1, 1000))
    with pytest.raises(PropertyViolation, match="liquidation interchange failed"):
        verify_minimax(enl, [stream], [vertex_measure(enl, (0,))])


def test_minimax_rejects_duals_that_are_not_a_mixture(monkeypatch):
    enl, stream = _minimax_setup()
    real = oracles.solve

    def doubled(lp):
        out = real(lp)
        if out.status != "optimal":
            return out
        return out._replace(mult=IntVector([2 * n for n in out.mult.nums], out.mult.den))

    monkeypatch.setattr(oracles, "solve", doubled)
    with pytest.raises(PropertyViolation, match="not a mixture"):
        verify_minimax(enl, [stream], [vertex_measure(enl, (0,))])
