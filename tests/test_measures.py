"""Consistent-measure polytope, dual prices, and measure transport.

The binomial-with-short-put market is solved by hand throughout: with
q(u,0) = a, q(d,0) = 2a, q(u,1) = b, q(d,1) = 2b (martingale rows per
time-0 atom), mass gives 3a + 3b = 1, the shorted put row reads
2b * 1/2 >= gamma, so at gamma = 1/4 the uniform slack solves
max min(a, b, b - 1/4) = 1/24 at a = 1/24, b = 7/24.
"""
from __future__ import annotations

import ast
import copy
import random
from pathlib import Path

import pytest

import amhedge.lp as lpmod
from amhedge import measures, oracles
from amhedge.campaign import pin_quote, random_sna_model
from amhedge.enlarged import enlarge, extend_claim
from amhedge.errors import PropertyViolation, SnaFailure
from amhedge.lp import IntVector, solve
from amhedge.hedging import check_hedge, detect_arbitrage
from amhedge.market import load_model
from amhedge.measures import (
    build_polytope,
    ftap_arbitrage,
    ftap_certificate,
    price_with_dual,
    snell_value,
)
from amhedge.oracles import (
    dp_superhedge,
    drop_options,
    e2_chain,
    lift_measure_uniform_clock,
    push_stopping_measure,
    solve_measure,
    strict_value_bracket,
)
from amhedge.rationals import ONE, Q, ZERO
from amhedge.robust import supported_paths, supported_space
from amhedge.strategies import StoppingTime, enlarged_stopping_times

from conftest import binomial_dict, binomial_put_book_dict, moved, trinomial_dict, unbranched_book_dicts
from test_lp_fingerprints import recorded  # noqa: F401  (fixture)
from test_report_bytes import CAMPAIGN_MODELS, CONFTEST_MODELS, _model


def _path(enl, base_index, clocks):
    return enl.path_key[(base_index, clocks)]


def test_polytope_rows(binomial_short_put):
    enl = enlarge(binomial_short_put, 1)
    pt = build_polytope(enl)
    assert len(pt.q_var) == 4
    # two root atoms, one stock dim: two martingale rows
    assert len(pt.mart_rows) == 2
    assert len(pt.h_rows) == 1 and not pt.f_rows and not pt.g_rows
    # positivity rows go on a copy for the slack LP, after every other row;
    # the put row holds b >= 1/4 unslackened, so min(a, b) peaks at a = 1/12
    rows = len(pt.lp.rows)
    assert pt.support_slack(prices=False).value == Q(1, 12)
    assert len(pt.lp.rows) == rows


def test_check_validates_and_rejects(binomial_short_put):
    enl = enlarge(binomial_short_put, 1)
    pt = build_polytope(enl)
    u0, d0 = _path(enl, 0, (0,)), _path(enl, 1, (0,))
    u1, d1 = _path(enl, 0, (1,)), _path(enl, 1, (1,))
    good = {u0: Q(1, 24), d0: Q(2, 24), u1: Q(7, 24), d1: Q(14, 24)}
    ok = lambda measure, **slack: all(row[-1] for row in pt.verdicts(measure, **slack))
    assert ok(good)
    assert ok(good, min_slack=Q(1, 24))
    assert not ok(good, min_slack=Q(1, 23))
    bad = dict(good)
    bad[u0] += Q(1, 100)    # breaks mass and the martingale row
    failed = [row[0] for row in pt.verdicts(bad) if not row[-1]]
    assert "mass" in failed and any(name.startswith("mart[") for name in failed)


def test_ftap_certificate_slack(binomial_short_put):
    enl = enlarge(binomial_short_put, 1)
    pt = build_polytope(enl)
    cert = ftap_certificate(pt)
    assert cert.holds and cert.slack == Q(1, 24)
    assert all(row[-1] for row in pt.verdicts(cert.measure, min_slack=cert.slack))
    doc = cert.to_json(enl)
    assert list(doc) == ["paths"] and doc["paths"]


def test_ftap_fails_on_rich_quote():
    model = load_model(binomial_dict(americans_short=[
        {"values": {"r": "0", "u": "0", "d": "1/2"}, "price": "1/2"},
    ]))
    cert = ftap_certificate(build_polytope(enlarge(model, 1)))
    # best uniform slack: all mass on the late put exercise misses by 1/6
    assert not cert.holds and cert.slack == Q(-1, 6)


def test_ftap_overpriced_european_slack():
    # pinned u-mass is 1/3 but the European cap demands <= 1/4: the
    # relaxed system still solves, missing the cap by exactly 1/12
    model = load_model(binomial_dict(europeans=[
        {"payoff": {"u": "1", "d": "0"}, "price": "1/4"},
    ]))
    cert = ftap_certificate(build_polytope(enlarge(model, 0)))
    assert not cert.holds and cert.slack == Q(-1, 12)
    assert cert.measure == {0: Q(1, 3), 1: Q(2, 3)}


def test_ftap_infeasible_polytope():
    # a strictly rising stock admits no nonnegative martingale mass at all
    data = binomial_dict()
    data["stock"]["values"]["d"] = ["3/2"]
    cert = ftap_certificate(build_polytope(enlarge(load_model(data), 0)))
    assert not cert.holds and cert.slack is None and cert.measure is None
    assert cert.outcome.status == "infeasible"


def test_dual_prices(binomial_short_put):
    dsub, _ = price_with_dual(enlarge(binomial_short_put, 1), "sub")
    dsup, _ = price_with_dual(enlarge(binomial_short_put, 2), "super")
    assert dsub.price == Q(1, 3)
    assert dsup.price == Q(1, 3)
    assert sum(dsub.measure.values(), ZERO) == ONE


def test_dual_matches_primal_on_unique_measure(two_period):
    assert price_with_dual(enlarge(two_period, 0), "sub")[0].price == Q(1, 3)
    assert price_with_dual(enlarge(two_period, 1), "super")[0].price == Q(1, 3)


def test_dual_raises_on_empty_polytope():
    model = load_model(binomial_dict(europeans=[
        {"payoff": {"u": "1", "d": "0"}, "price": "1/4"},
    ]))
    with pytest.raises(SnaFailure):
        price_with_dual(enlarge(model, 1), "super")


def test_solve_measure_raises_on_empty_polytope():
    # the European's quote 1/4 is off its only martingale value 1/3
    model = load_model(binomial_dict(europeans=[
        {"payoff": {"u": "1", "d": "0"}, "price": "1/4"},
    ]))
    pt = build_polytope(enlarge(model, 0))
    with pytest.raises(SnaFailure, match="^martingale polytope is empty at these prices$"):
        solve_measure(pt, pt.extremum_lp([ZERO] * pt.enl.num_paths, "max"))


def test_snell_value_oracle(two_period):
    enl = enlarge(two_period, 0)
    claim_at = extend_claim(enl, "sub")
    # unique law: path masses 1/9, 2/9, 2/9, 4/9
    measure = {0: Q(1, 9), 1: Q(2, 9), 2: Q(2, 9), 3: Q(4, 9)}
    assert snell_value(enl, claim_at, measure) == Q(1, 3)
    # under a d-heavy measure the claim is worthless beyond u's intrinsic
    skew = {2: Q(1, 2), 3: Q(1, 2)}
    assert snell_value(enl, claim_at, skew) == ZERO
    # mass on the uu path: stopping at uu collects 3
    assert snell_value(enl, claim_at, {0: ONE}) == Q(3)


def test_lift_spreads_the_new_clock(binomial_short_put):
    enl1 = enlarge(binomial_short_put, 1)
    enl2 = enlarge(binomial_short_put, 2)
    cert = ftap_certificate(build_polytope(enl1))
    lifted = lift_measure_uniform_clock(enl1, build_polytope(enl2), cert.measure)
    assert sum(lifted.values(), ZERO) == ONE
    for p, q in cert.measure.items():
        ep = enl1.epaths[p]
        for t in (0, 1):
            tgt = enl2.path_key[(ep.base_index, ep.clocks + (t,))]
            assert lifted[tgt] == q / 2


def test_lift_requires_adjacent_spaces(binomial_short_put, binomial):
    enl1 = enlarge(binomial_short_put, 1)
    with pytest.raises(ValueError):
        lift_measure_uniform_clock(enl1, build_polytope(enl1), {})
    with pytest.raises(ValueError):
        lift_measure_uniform_clock(enl1, build_polytope(enlarge(binomial, 1)), {})


def test_push_concentrates_on_the_stop(binomial_short_put):
    enl1 = enlarge(binomial_short_put, 1)
    pt2 = build_polytope(enlarge(binomial_short_put, 2))
    cert = ftap_certificate(build_polytope(enl1))
    lifted = lift_measure_uniform_clock(enl1, pt2, cert.measure)
    # stop at time 1 on every atom: collects the u-mass, 1/3
    stops = frozenset(
        v for v, node in enumerate(enl1.enodes) if node.time == 1
    )
    push = push_stopping_measure(enl1, pt2, cert.measure, StoppingTime(stops), lifted)
    assert push.value == Q(1, 3)
    assert sum(push.pushed.values(), ZERO) == ONE
    assert ZERO < push.lam <= Q(1, 2)
    # stopping immediately collects the zero root claim
    roots = frozenset(v for v, node in enumerate(enl1.enodes) if node.time == 0)
    assert push_stopping_measure(enl1, pt2, cert.measure,
                                 StoppingTime(roots), lifted).value == ZERO


def test_e2_chain_collapses_when_attainable(binomial_short_put):
    sub, pt1 = price_with_dual(enlarge(binomial_short_put, 1), "sub")
    sup, _ = price_with_dual(enlarge(binomial_short_put, 2), "super")
    chain = e2_chain(pt1, sub.price, sup.price)
    assert (sub.price, chain.middle, sup.price) == (Q(1, 3), Q(1, 3), Q(1, 3))
    assert chain.num_taus >= 1
    # the oracle hands out the stopping times it enumerated
    assert chain.taus == enlarged_stopping_times(pt1.enl)


@pytest.mark.parametrize("shift", [Q(1, 100), Q(-1, 100)])
def test_e2_chain_raises_on_a_middle_outside_the_ends(monkeypatch, binomial_short_put, shift):
    sub, pt1 = price_with_dual(enlarge(binomial_short_put, 1), "sub")
    sup, _ = price_with_dual(enlarge(binomial_short_put, 2), "super")
    real = oracles.solve_measure

    def moved(pt, work):
        out, measure = real(pt, work)
        return out._replace(value=out.value + shift), measure

    monkeypatch.setattr(oracles, "solve_measure", moved)
    with pytest.raises(PropertyViolation, match="^chain violated: 1/3 <= .* <= 1/3 fails$"):
        e2_chain(pt1, sub.price, sup.price)


def test_strict_value_bracket_converges(binomial_short_put):
    enl2 = enlarge(binomial_short_put, 2)
    enl1 = enlarge(binomial_short_put, 1)
    cert = ftap_certificate(build_polytope(enl1))
    pt = build_polytope(enl2)
    lifted = lift_measure_uniform_clock(enl1, pt, cert.measure)
    target = extend_claim(enl2, "super")
    out, argmax = solve_measure(pt, pt.extremum_lp(target, "max"))
    vmax = out.value
    vs = pt.expectation(lifted, target)
    bracket = strict_value_bracket(pt, target, argmax, lifted)
    assert len(bracket) == 12
    for lam, val in bracket:
        assert val == (ONE - lam) * vmax + lam * vs
    # geometric approach to the closed maximum
    assert vmax - bracket[-1][1] == bracket[-1][0] * (vmax - vs)


def test_restricted_stopping_times(binomial_short_put):
    enl = enlarge(binomial_short_put, 1)
    all_taus = enlarged_stopping_times(enl)
    assert len(all_taus) == 4
    # restricting to the clock-0 paths leaves a single root atom
    sub = enlarged_stopping_times(enl.restricted([_path(enl, 0, (0,)), _path(enl, 1, (0,))]))
    assert len(sub) == 2


def test_polytope_paths_restriction(binomial_short_put):
    enl = enlarge(binomial_short_put, 1)
    keep = [_path(enl, 0, (0,)), _path(enl, 1, (0,))]
    pt = build_polytope(enl.restricted(keep))
    assert list(pt.q_var) == [0, 1]
    assert pt.lp.var_names == [f"Q[{enl.epaths[p].label}]" for p in sorted(keep)]
    # a measure charging a key outside the space must be flagged
    assert [row[0] for row in pt.verdicts({2: ONE}) if not row[-1]][0] == "support[p2]"


def _trinomial2_kernel_model():
    """Two trinomial periods (S -> 2S, S, S/2 from 1) with a shorted call.

    The root's one kernel vertex skips the middle move, so the support
    is a strict subset of the paths.
    """
    moves = (("u", Q(2)), ("m", ONE), ("d", Q(1, 2)))
    stock = {"r": ONE}
    nodes = [{"id": "r", "time": 0}]
    for t in (1, 2):
        for v in [v for v in stock if len(v) == t]:
            for move, factor in moves:
                stock[v + move] = stock[v] * factor
                nodes.append({"id": v + move, "time": t, "parent": v})
    text = lambda x: f"{x.numerator}/{x.denominator}"
    law = [["1/6", "1/2", "1/3"]]
    return load_model({
        "horizon": 2,
        "nodes": nodes,
        "stock": {"dim": 1, "values": {v: [text(s)] for v, s in stock.items()}},
        "claim": {"values": {v: text(max(1 - s, ZERO)) for v, s in stock.items()}},
        "weights": {v: "1/9" for v in stock if len(v) == 3},
        "americans_short": [{
            "values": {v: text(max(s - 1, ZERO)) for v, s in stock.items()}, "price": "0",
        }],
        "kernels": {v: [["1/2", "0", "1/2"]] if v == "r" else law
                    for v in stock if len(v) < 3},
    })


def _envelope_polytopes():
    long_put = load_model(binomial_put_book_dict(2, short_bid="5/9", long_ask="25/9"))
    enl = enlarge(_trinomial2_kernel_model(), 1)
    assert len(supported_paths(enl)) < enl.num_paths
    # single-child nodes collapse into runs of the Snell block
    runs = load_model(unbranched_book_dicts()["unbranched_short"])
    return [build_polytope(enlarge(long_put, 1)),
            build_polytope(supported_space(enl)),
            build_polytope(enlarge(runs, 1))]


@pytest.mark.parametrize("seed", range(4))
def test_envelope_block_matches_snell_value(seed):
    rng = random.Random(seed)
    for pt in _envelope_polytopes():
        cert = ftap_certificate(pt)
        assert cert.holds
        measure = cert.measure
        values = {v: Q(rng.randint(-6, 6), rng.randint(1, 4)) for v in range(len(pt.enl.enodes))}
        # Q fixed by equality rows on a copy of the polytope LP
        work = pt.lp.copy()
        for p, var in pt.q_var.items():
            work.add_constraint({var: ONE}, "=", measure.get(p, ZERO))
        root, shift, _ = pt.snell_block(work, values, "test")
        support = {v for ep in pt.enl.epaths for v in ep.node_seq}
        assert shift == min(ZERO, *(values[v] for v in support))
        work.set_objective("min", root)
        out = solve(work)
        assert out.status == "optimal"
        assert out.value + shift == snell_value(pt.enl, values, measure)


def test_long_rows_stay_linear_in_the_support():
    # 677 stopping times, whose stopped puts take 287 distinct vectors
    model = load_model(binomial_put_book_dict(4, long_ask="3"))
    enl = enlarge(model, model.N)
    pt = build_polytope(enl)
    bare = build_polytope(enl.with_model(model._replace(americans_long=[])))
    added = len(pt.lp.rows) - len(bare.lp.rows)
    support = {v for ep in enl.epaths for v in ep.node_seq}
    assert added == pt.num_tau_rows
    assert added <= 2 * model.M * len(support) + model.M


def test_no_module_but_measures_reads_the_row_layout():
    # a polytope comes from MeasurePolytope alone: no other module reads
    # which LP row holds which constraint
    package = Path(__file__).resolve().parent.parent / "src" / "amhedge"
    layout = {"f_rows", "h_rows", "g_rows", "mart_rows", "long_blocks", "mass_row"}
    for path in sorted(package.glob("*.py")):
        if path.name != "measures.py":
            reads = {node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
            assert not reads & layout, path.name


@pytest.mark.parametrize("name", [*CONFTEST_MODELS, *CAMPAIGN_MODELS])
def test_dp_equals_the_stock_only_measure_lp(name, request, recorded):
    # the stock-only super price of every report fixture, by both routes:
    # every path on a market without kernels, the supported ones with them
    model = drop_options(_model(request, name))
    enl = enlarge(model, 1)
    if model.kernels is not None:
        enl = supported_space(enl)
    price = price_with_dual(enl, "super")[0].price
    recorded.clear()
    dp = dp_superhedge(enl, extend_claim(enl, "super"))
    assert dp.value == price
    assert len(set(recorded)) == len(recorded) == dp.lp_count



# markets whose ftap certificate fails, by the branch of ftap_arbitrage they take
ARBITRAGE_BOOKS = {
    # s* < 0: a short call bid above its largest payoff, 11 at S = 16, and
    # a long put asked below its exercise value 1 at the root
    "short_bid_high": (binomial_put_book_dict(2, short_bid="12"), "s* < 0"),
    "long_ask_low": (binomial_put_book_dict(2, long_ask="1/2"), "s* < 0"),
    # the short bid again with a bond paying 1 asked at 2, whose row the
    # slack LP leaves slack, so its multiplier is 0
    "short_bid_high_dear_bond": ({**binomial_put_book_dict(2, short_bid="12"), "europeans": [
        {"payoff": dict.fromkeys(("ruu", "rud", "rdu", "rdd"), "1"), "price": "2"}]}, "s* < 0"),
    # s* = 0: a European paying 1 on the up move and quoted at 0 leaves
    # the one measure on the middle path (closed slack 0) ...
    "european_zero": ({**trinomial_dict(), "europeans": [
        {"payoff": {"a": "1", "b": "0", "c": "0"}, "price": "0"}]}, "closed slack 0"),
    # ... and the claim's payoff quoted at its one martingale price 1/3
    # leaves that full-support measure (closed slack 1/3)
    "european_fair": (binomial_dict(europeans=[
        {"payoff": {"u": "1", "d": "0"}, "price": "1/3"}]), "closed slack > 0"),
    # no martingale measure: the stock rises on both paths
    "stock_rises": (binomial_dict(
        stock={"dim": 1, "values": {"r": ["1"], "u": ["2"], "d": ["3/2"]}}), "empty"),
}


def _arbitrage_market(name: str):
    """An ARBITRAGE_BOOKS market, or a campaign market: ``inject<seed>``
    moves a quote past its polytope extreme, ``boundary<seed>`` pins one on it."""
    if name in ARBITRAGE_BOOKS:
        return load_model(ARBITRAGE_BOOKS[name][0])
    kind, seed = name[:-1], int(name[-1])
    rng = random.Random(100 + seed)
    gm = random_sna_model(rng, require_option=True)
    if kind == "inject":
        return pin_quote(rng, gm, None)[0]
    return pin_quote(random.Random(200 + seed), gm, ZERO)[0]


def _branch(pt, cert) -> str:
    if cert.slack is None:
        return "empty"
    if cert.slack < ZERO:
        return "s* < 0"
    return "closed slack 0" if not ftap_certificate(pt, prices=False).holds else "closed slack > 0"


@pytest.mark.parametrize("name", [*ARBITRAGE_BOOKS, *(f"{kind}{seed}" for kind in (
    "inject", "boundary") for seed in range(5))])
def test_ftap_arbitrage_agrees_with_the_arbitrage_lp(name, monkeypatch):
    model = _arbitrage_market(name)
    enl = enlarge(model, model.N)
    pt = build_polytope(enl)
    cert = ftap_certificate(pt)
    branch = _branch(pt, cert)
    if name in ARBITRAGE_BOOKS:
        assert branch == ARBITRAGE_BOOKS[name][1]
    tableaus = []

    class Recording(lpmod._Tableau):
        def __init__(self, *args):
            super().__init__(*args)
            tableaus.append(self)

    monkeypatch.setattr(lpmod, "_Tableau", Recording)
    arb = ftap_arbitrage(pt, cert)
    # only s* = 0 solves an LP more, the closed slack LP
    assert len(tableaus) == (branch.startswith("closed"))
    monkeypatch.undo()
    assert not cert.holds and arb.found == detect_arbitrage(enl).found
    assert arb.found == (branch != "closed slack > 0")
    if not arb.found:
        assert (arb.gain, arb.strategy) == (ZERO, None)
        return
    gains, den = check_hedge(enl, arb.strategy, ONE, ZERO, [ZERO] * enl.num_paths, kind="test")
    gains = {p: Q(g, den) for p, g in gains.items()}
    assert arb.gain == sum(enl.weights[p] * g for p, g in gains.items()) > ZERO
    if branch == "s* < 0":
        assert min(gains.values()) >= -cert.slack


def _cont_row_at_its_stop(pt, y):
    """A cont row of the first long's Snell block whose run passes on all
    the mass its stop row leaves (MeasurePolytope._flow, read off y)."""
    block, kids = pt.long_blocks[0], pt.enl.children
    inflow = dict.fromkeys(pt.enl.roots, y[pt.g_rows[0]])
    for h, run in pt._runs.items():
        mass = inflow.pop(h)
        _, stop, cont = block[h]
        if cont is not None:
            mass += y[cont]
            inflow.update((kid, -y[cont]) for kid in kids[run[-1]])
            if stop is not None and mass == -y[stop]:
                return cont
    raise AssertionError("no run is tight")


TINY = Q(1, 10**30)
# (market, the moved entry, its move, the raise): the mass row's
# multiplier is y.b's, so moving it down asks each path for TINY more
REJECTIONS = {
    "optimal duals": ("short_bid_high", lambda pt, y: pt.mass_row, -TINY,
                      "arbitrage witness hedge fails on path"),
    "closed duals": ("european_zero", lambda pt, y: pt.mass_row, -TINY,
                     "arbitrage witness hedge fails on path"),
    "farkas vector": ("stock_rises", lambda pt, y: pt.mass_row, -TINY,
                      "arbitrage witness hedge fails on path"),
    "negative position": ("short_bid_high_dear_bond", lambda pt, y: pt.f_rows[0], -TINY,
                          "arbitrage witness hedge holds a negative static"),
    "snell flow": ("long_ask_low", _cont_row_at_its_stop, -TINY,
                   "Snell block multipliers lose mass"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_ftap_arbitrage_rejects_a_moved_multiplier(case, monkeypatch):
    name, entry, delta, message = REJECTIONS[case]
    model = _arbitrage_market(name)
    enl = enlarge(model, model.N)
    pt = build_polytope(enl)
    cert = given = ftap_certificate(pt)
    if cert.slack == ZERO:
        # ftap_arbitrage reads the closed slack LP it solves: hand it ours,
        # then the moved copy below
        cert = ftap_certificate(pt, prices=False)
        monkeypatch.setattr(measures, "ftap_certificate", lambda *args, **kwargs: cert)
    key = "farkas" if cert.slack is None else "duals"
    assert ftap_arbitrage(pt, given).found
    y = moved(cert.outcome.mult, entry(pt, getattr(cert.outcome, key)), delta)
    cert = cert._replace(outcome=cert.outcome._replace(mult=y))
    with pytest.raises(PropertyViolation, match=message):
        ftap_arbitrage(pt, cert if given.slack != ZERO else given)


def test_ftap_arbitrage_rejects_a_witness_without_expected_gain(monkeypatch):
    # the zero vector on the closed branch passes check_hedge with x = 0 on
    # every path, and gains nothing
    enl = enlarge(_arbitrage_market("european_zero"), 0)
    pt = build_polytope(enl)
    closed = ftap_certificate(pt, prices=False)
    zero = closed._replace(outcome=closed.outcome._replace(
        mult=IntVector([0] * len(closed.outcome.mult.nums), 1)))
    monkeypatch.setattr(measures, "ftap_certificate", lambda *args, **kwargs: zero)
    with pytest.raises(PropertyViolation, match="no positive expected gain"):
        ftap_arbitrage(pt, closed)
