"""The pathwise re-checks reject a certificate moved by 1/10**30.

``hedging.check_hedge`` (through ``evaluate_gain``) re-validates a
hedge on every enlarged path and on the space's tied pairs, and
``MeasurePolytope.check``/``require`` re-check a measure row by row from
the model data.  Each case below starts from a certificate that passes,
the hedge and the measure of ``price_with_dual`` or the clock-indexed
sub-hedge, moves one entry by 1/10**30 and expects the check that entry
feeds to fail, as test_lp's certificate-rejection tests do for the LP
verifiers.  ``ftap_certificate``, the one reader of every uniform-slack
LP, is held to each of its raises the same way, its LP's witness moved.
A hypothesis test holds the gains of ``evaluate_gain`` to a plain
``Fraction`` evaluator kept here.
"""
from __future__ import annotations

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amhedge.divisible import RevealedModel
from amhedge.enlarged import enlarge
from amhedge.errors import PropertyViolation
from amhedge.hedging import SemiStaticStrategy, check_hedge, subhedge
from amhedge.market import load_model
from amhedge.measures import MeasurePolytope, build_polytope, ftap_certificate, price_with_dual
from amhedge.rationals import ONE, ZERO, Q
from amhedge.oracles import selectors, vertex_measure
from amhedge.robust import supported_space

from conftest import binomial_dict, binomial_put_book_dict, binomial_short_put_dict
from conftest import moved, path_gains, trinomial_dict, trinomial_kernels_dict, two_period_dict

EPS = Q(1, 10**30)

# one period, three successors, a 2-dim stock and one option of each book:
# the sub price's measure has its European and short rows tight, the super
# price's its long and short rows, and the super hedge liquidates a long
THREE_BOOKS = json.loads("""{
  "horizon": 1,
  "nodes": [{"id": "n0", "time": 0}, {"id": "n1", "time": 1, "parent": "n0"},
            {"id": "n2", "time": 1, "parent": "n0"}, {"id": "n3", "time": 1, "parent": "n0"}],
  "stock": {"dim": 2, "values": {"n0": ["1", "5/2"], "n1": ["1/4", "17/8"],
                                 "n2": ["2", "3"], "n3": ["3/2", "11/4"]}},
  "europeans": [{"payoff": {"n1": "7/4", "n2": "9/4", "n3": "1/2"}, "price": "29/16"}],
  "americans_long": [{"values": {"n0": "2/3", "n1": "3/8", "n2": "0", "n3": "3/2"},
                      "price": "25/24"}],
  "americans_short": [{"values": {"n0": "1/2", "n1": "0", "n2": "1", "n3": "1/4"},
                       "price": "1/2"}],
  "weights": {"n1": "1/3", "n2": "1/3", "n3": "1/3"},
  "claim": {"values": {"n0": "0", "n1": "3/2", "n2": "2", "n3": "2"}}
}""")


def _priced(side):
    model = load_model(THREE_BOOKS)
    enl = enlarge(model, model.N + (side == "super"))
    report, pt = price_with_dual(enl, side)
    return enl, report, pt


# -- hedges ---------------------------------------------------------------------


def _check(enl, report, strat, eta, x):
    sign = ONE if report.kind == "super" else -ONE
    rhs = [ZERO] * enl.num_paths
    if report.kind == "super":
        rhs = [enl.model.claim[enl.model.tree.paths[ep.base_index][ep.clocks[-1]]]
               for ep in enl.epaths]
    check_hedge(enl, strat, sign, x, rhs, exercise=eta, kind=report.kind)


def _unused_node(enl, used):
    return next(v for v in range(len(enl.enodes)) if v not in used)


def _negative_short(enl, report, strat, eta):
    strat.short_american[0] -= EPS
    return strat, eta, report.price


def _negative_liquidation(enl, report, strat, eta):
    strat.liquidation[0][_unused_node(enl, strat.liquidation[0])] = -EPS
    return strat, eta, report.price


def _negative_exercise(enl, report, strat, eta):
    eta[_unused_node(enl, eta)] = -EPS
    return strat, eta, report.price


def _liquidation_mass(enl, report, strat, eta):
    nu = strat.liquidation[0]
    nu[min(nu)] += EPS
    return strat, eta, report.price


def _exercise_mass(enl, report, strat, eta):
    eta[min(eta)] += EPS
    return strat, eta, report.price


def _cash(enl, report, strat, eta):
    # the price is optimal, so some path is tight and loses the 1/10**30
    return strat, eta, report.price + (EPS if report.kind == "sub" else -EPS)


@pytest.mark.parametrize("side, move, match", [
    ("sub", _negative_short, "negative static or exercise position"),
    ("super", _negative_liquidation, "negative static or exercise position"),
    ("sub", _negative_exercise, "negative static or exercise position"),
    ("super", _liquidation_mass, "liquidation mass .* != position"),
    ("sub", _exercise_mass, "liquidation mass .* != position"),
    ("sub", _cash, "sub hedge fails on path"),
    ("super", _cash, "super hedge fails on path"),
])
def test_check_hedge_rejects(side, move, match):
    enl, report, _ = _priced(side)
    _check(enl, report, report.strategy, report.exercise, report.price)
    strat, eta, x = move(enl, report, copy.deepcopy(report.strategy),
                         copy.deepcopy(report.exercise))
    with pytest.raises(PropertyViolation, match=match):
        _check(enl, report, strat, eta, x)


# two periods, a short whose clock may still fire at 1 or 2 after time 0
# (so the clock-indexed space ties its root copies) and a long American
TIED = {**two_period_dict(),
        "americans_short": [{"values": {"r": "0", "u": "0", "d": "1/2", "uu": "0", "ud": "0",
                                        "du": "0", "dd": "3/4"}, "price": "1/4"}],
        "americans_long": [{"values": {"r": "0", "u": "1", "d": "0", "uu": "3", "ud": "0",
                                       "du": "0", "dd": "0"}, "price": "1"}]}


@pytest.mark.parametrize("book", ["stock", "liquidation", "exercise"])
def test_check_hedge_rejects_a_moved_tie(book):
    rev = RevealedModel(load_model(TIED), 1)
    report = subhedge(rev)
    _check(rev, report, report.strategy, report.exercise, report.price)
    strat, eta = copy.deepcopy(report.strategy), dict(report.exercise)
    v, _ = rev.tied_pairs[0]
    moved, key = {"stock": (strat.stock, (v, 0)), "liquidation": (strat.liquidation[0], v),
                  "exercise": (eta, v)}[book]
    moved[key] = moved.get(key, ZERO) + EPS
    with pytest.raises(PropertyViolation, match="sub hedge is not non-anticipative"):
        _check(rev, report, strat, eta, report.price)


def test_the_hedges_the_rejections_move():
    sub, sup = _priced("sub")[1], _priced("super")[1]
    assert sub.exercise and sub.strategy.short_american == [ZERO]
    assert sup.strategy.long_american[0] > ZERO and sup.strategy.liquidation[0]


# -- measures -------------------------------------------------------------------


def _failed(pt, measure, **slack):
    """Row families (support, pos, mass, mart, f, h, g) the re-check rejects."""
    return {row[0].split("[")[0] for row in pt.verdicts(measure, **slack) if not row[-1]}


def _first(pt, measure, want):
    """First path where want(q, p) holds, in index order."""
    return next(p for p in pt.q_var if want(measure.get(p, ZERO), p))


@pytest.mark.parametrize("side, family", [
    ("super", "support"), ("super", "pos"), ("sub", "mass"), ("super", "mart"),
    ("sub", "f"), ("sub", "h"), ("super", "h"), ("super", "g"),
])
def test_measure_check_rejects(side, family):
    enl, report, pt = _priced(side)
    measure = dict(report.measure)
    if family == "support":
        # the polytope of the measure's support, the measure keyed by its paths
        keep = sorted(measure)
        pt = build_polytope(enl.restricted(keep))
        measure = {i: measure[p] for i, p in enumerate(keep)}
    assert _failed(pt, measure) == set()
    pt.require(measure, "priced measure")
    charged = lambda q, p: q > ZERO
    # the short put at its clock and the European at the horizon, read off path p
    base = lambda p: enl.model.tree.paths[enl.epaths[p].base_index]
    short = lambda p: enl.model.americans_short[0][0][base(p)[enl.epaths[p].clocks[0]]]
    if family == "support":
        # mass on a key that is no path of the space
        p, delta = pt.enl.num_paths, EPS
    elif family == "pos":
        p, delta = _first(pt, measure, lambda q, p: q == ZERO), -EPS
    elif family == "h":
        # the short row is tight: less mass where it pays lowers E_Q[h]
        p, delta = _first(pt, measure, lambda q, p: q and short(p)), -EPS
    elif family == "f":
        p, delta = _first(pt, measure, lambda q, p: enl.model.europeans[0][0][base(p)[-1]]), EPS
    else:
        # mass, mart and g: more mass on a charged path; the long row is
        # tight on the super side and every path there reaches a positive g
        p, delta = _first(pt, measure, charged), EPS
    measure[p] = measure.get(p, ZERO) + delta
    assert family in _failed(pt, measure)
    with pytest.raises(PropertyViolation, match="left the polytope"):
        pt.require(measure, "moved measure")


def test_positivity_rows_at_a_slack():
    # below zero the slack excuses a price row's shortfall, never a negative mass
    model = load_model(binomial_short_put_dict()).with_prices(gammas=[Q(3, 4)])
    pt = build_polytope(enlarge(model, model.N))
    cert = ftap_certificate(pt)
    assert not cert.holds and cert.slack == Q(-5, 12)
    measure, (p, q) = dict(cert.measure), (0, 1)
    measure[q] = measure.get(q, ZERO) + measure.get(p, ZERO) + EPS
    measure[p] = -EPS
    assert "pos" in _failed(pt, measure, min_slack=cert.slack)
    # a floor scales the slack path by path, and is 0 off its paths
    model = load_model(binomial_short_put_dict())
    pt = build_polytope(enlarge(model, model.N))
    cert = ftap_certificate(pt)
    assert cert.holds
    p = 0
    w = cert.measure[p] / cert.slack
    assert _failed(pt, cert.measure, min_slack=cert.slack, floor={p: w}) == set()
    assert "pos" in _failed(pt, cert.measure, min_slack=ONE)
    assert "pos" not in _failed(pt, cert.measure, min_slack=ONE, floor={})
    assert _failed(pt, cert.measure, min_slack=cert.slack, floor={p: w + EPS}) == {"pos"}


def test_measure_rows_the_rejections_move_are_tight():
    for side, tight in (("sub", {"f[0]", "h[0]"}), ("super", {"h[0]", "g[0;sup]"})):
        _, report, pt = _priced(side)
        assert {name for name, lhs, rel, rhs, _, _ in pt.verdicts(report.measure)
                if rel != "=" and lhs == rhs and not name.startswith("pos")} == tight


# -- the uniform-slack reader ---------------------------------------------------


def _slack_lp_returns(monkeypatch, change):
    """support_slack's outcome passed through change(pt, outcome)."""
    real = MeasurePolytope.support_slack
    monkeypatch.setattr(MeasurePolytope, "support_slack",
                        lambda self, **kwargs: change(self, real(self, **kwargs)))


def _move_witness(monkeypatch, p, delta):
    """The slack LP's witness with Q(p) moved by delta."""
    def change(pt, out):
        return out._replace(point=moved(out.point, pt.q_var[p], delta))

    _slack_lp_returns(monkeypatch, change)


def _at_floor(pt, cert, floor=None):
    """A path whose mass sits exactly at the slack times its floor weight."""
    weight = lambda p: ONE if floor is None else floor.get(p, ZERO)
    return next(p for p in pt.q_var
                if weight(p) and cert.measure.get(p, ZERO) == cert.slack * weight(p))


def test_slack_reader_rejects_an_unexpected_status(monkeypatch):
    pt = build_polytope(enlarge(load_model(binomial_short_put_dict()), 1))
    _slack_lp_returns(monkeypatch, lambda pt, out: out._replace(status="unbounded"))
    with pytest.raises(PropertyViolation, match="^slack LP unexpectedly unbounded$"):
        ftap_certificate(pt)


def _short_put_reader(**kwargs):
    model = load_model(binomial_short_put_dict())
    return build_polytope(enlarge(model, model.N)), kwargs


def _selector_reader():
    model = load_model(trinomial_kernels_dict(2))
    enl = supported_space(enlarge(model, model.N))
    floor = vertex_measure(enl, selectors(model)[0])
    return build_polytope(enl), {"floor": floor}


@pytest.mark.parametrize("reader", [
    pytest.param(_short_put_reader, id="strict"),
    pytest.param(lambda: _short_put_reader(prices=False), id="closed"),
    pytest.param(_selector_reader, id="selector"),
])
def test_slack_reader_rejects_a_path_below_the_slack(monkeypatch, reader):
    pt, kwargs = reader()
    cert = ftap_certificate(pt, **kwargs)
    assert cert.holds
    p = _at_floor(pt, cert, kwargs.get("floor"))
    measure = {**cert.measure, p: cert.measure[p] - EPS}
    assert "pos" in _failed(pt, measure, min_slack=cert.slack, **kwargs)
    _move_witness(monkeypatch, p, -EPS)
    with pytest.raises(PropertyViolation, match="^slack witness failed re-validation$"):
        ftap_certificate(pt, **kwargs)


def test_closed_slack_reader_rejects_a_price_row_past_its_quote(monkeypatch):
    model = load_model(binomial_short_put_dict())
    enl = enlarge(model, model.N)
    pt = build_polytope(enl)
    cert = ftap_certificate(pt, prices=False)
    # the put's bid binds at the closed witness: the LP left it unslackened,
    # and so does the re-check, which a clearance by the slack would fail
    assert _failed(pt, cert.measure, min_slack=cert.slack, prices=False) == set()
    assert _failed(pt, cert.measure, min_slack=cert.slack) == {"h"}
    # less mass where the put pays takes E_Q[h] under its bid
    put = model.americans_short[0][0]
    at_clock = lambda p: model.tree.paths[enl.epaths[p].base_index][enl.epaths[p].clocks[0]]
    p = _first(pt, cert.measure, lambda q, p: q and put[at_clock(p)])
    measure = {**cert.measure, p: cert.measure[p] - EPS}
    assert "h" in _failed(pt, measure, min_slack=cert.slack, prices=False)
    _move_witness(monkeypatch, p, -EPS)
    with pytest.raises(PropertyViolation, match="^slack witness failed re-validation$"):
        ftap_certificate(pt, prices=False)


# -- gains against a Fraction reference -----------------------------------------


def _frac(v) -> Fraction:
    return Fraction(int(v.numerator), int(v.denominator))


def reference_gain(enl, strat: SemiStaticStrategy, p: int) -> Fraction:
    """Phi on enlarged path p, one Fraction at a time, straight from the model."""
    model, ep = enl.model, enl.epaths[p]
    path = model.tree.paths[ep.base_index]
    total = Fraction(0)
    for t, v in enumerate(ep.node_seq[:-1]):
        here, nxt = model.stock[path[t]], model.stock[path[t + 1]]
        for d in range(model.dim):
            h = _frac(strat.stock.get((v, d), ZERO))
            total += h * (_frac(nxt[d]) - _frac(here[d]))
    for a, (payoff, alpha) in zip(strat.long_european, model.europeans):
        total += _frac(a) * (_frac(payoff[path[-1]]) - _frac(alpha))
    for b, nu, (proc, beta) in zip(strat.long_american, strat.liquidation,
                                   model.americans_long):
        for nid, v in zip(path, ep.node_seq):
            total += _frac(nu.get(v, ZERO)) * _frac(proc[nid])
        total -= _frac(b) * _frac(beta)
    for c, clock, (proc, gamma) in zip(strat.short_american, ep.clocks,
                                       model.americans_short):
        total -= _frac(c) * (_frac(proc[path[clock]]) - _frac(gamma))
    return total


def _europe(data):
    leaves = [n["id"] for n in data["nodes"] if n["time"] == data["horizon"]]
    data["europeans"] = [{"payoff": {v: f"{k}/3" for k, v in enumerate(leaves)}, "price": "1/2"}]
    return data


GAIN_MODELS = [load_model(d) for d in (
    binomial_dict(), binomial_short_put_dict(), trinomial_dict(), two_period_dict(),
    _europe(binomial_put_book_dict(2, short_bid="1/2", long_ask="5/2")), THREE_BOOKS,
)]
SCALARS = st.fractions(-3, 3, max_denominator=12)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.data())
def test_integer_gains_equal_the_fraction_reference(data):
    model = data.draw(st.sampled_from(GAIN_MODELS), "model")
    enl = enlarge(model, model.N + data.draw(st.integers(0, 1), "extra clock"))
    draw = lambda: Q(data.draw(SCALARS))
    stock = {(v, d): draw() for v, node in enumerate(enl.enodes)
             if node.time < enl.horizon for d in range(model.dim)}
    book = lambda n: [abs(draw()) for _ in range(n)]
    b = book(model.M)
    liquidation = []
    for bj in b:
        # stop a share of what is left at each node, all of it at the leaves
        nu, left = {}, {r: bj for r in enl.roots}
        for v in sorted(range(len(enl.enodes)), key=lambda v: enl.enode(v).time):
            share = min(abs(draw()), ONE) if enl.children[v] else ONE
            nu[v] = left[v] * share
            left.update((kid, left[v] - nu[v]) for kid in enl.children[v])
        liquidation.append(nu)
    strat = SemiStaticStrategy(stock=stock, long_european=book(model.L), long_american=b,
                               short_american=book(model.N), liquidation=liquidation)
    gains = path_gains(enl, strat)
    assert sorted(gains) == list(range(enl.num_paths))
    for p, gain in gains.items():
        assert _frac(gain) == reference_gain(enl, strat, p)
    half = [p for p in range(enl.num_paths) if p % 2]
    sub = enl.restricted(half)
    on_sub = strat._replace(
        stock={(v, d): h for (v, d), h in stock.items() if v in sub.children},
        liquidation=[{v: m for v, m in nu.items() if v in sub.children} for nu in liquidation])
    assert path_gains(sub, on_sub) == {i: gains[p] for i, p in enumerate(half)}
