"""One gain expression: the builder and the evaluator of Phi agree.

Random positions are drawn on the fixture models; the builder's
coefficients, mapped onto each LP's variables and dotted with the
positions, must equal the evaluator on every enlarged path, and
positions copied from the enlarged space onto the space with every
clock revealed (the clock-indexed formulation) must give the same gain
on the matching (base path, clock vector).
"""
from __future__ import annotations

import random

import pytest

from amhedge import campaign
from amhedge.divisible import RevealedModel
from amhedge.enlarged import enlarge
from amhedge.hedging import GainLP, nonanticipative
from amhedge.market import load_model
from amhedge.measures import build_polytope
from amhedge.strategies import enlarged_stopping_times
from amhedge.rationals import ZERO, Q

from conftest import binomial_dict, int_vector, path_gains

FULL_BOOK = binomial_dict(
    europeans=[{"payoff": {"u": "1", "d": "0"}, "price": "1/3"}],
    americans_long=[{"values": {"r": "1/4", "u": "0", "d": "1/2"}, "price": "1/3"}],
    americans_short=[{"values": {"r": "0", "u": "0", "d": "1/2"}, "price": "1/4"}],
)


def _two_dim_two_period(two_period):
    """The two-period fixture with a second stock leg and one option of each book."""
    tree = two_period.tree
    data = binomial_dict(
        horizon=2,
        nodes=[{"id": n.id, "time": n.time, "parent": n.parent} for n in tree.nodes.values()],
        stock={"dim": 2, "values": {
            nid: [str(two_period.stock[nid][0]), str(n.time)] for nid, n in tree.nodes.items()
        }},
        claim={"values": {nid: str(two_period.claim[nid]) for nid in tree.nodes}},
        weights={leaf: "1/4" for leaf in tree.leaves},
        europeans=[{"payoff": {leaf: str(i) for i, leaf in enumerate(tree.leaves)}, "price": "1"}],
        americans_long=[{"values": {nid: "1/2" for nid in tree.nodes}, "price": "1/3"}],
        americans_short=[{"values": {nid: str(n.time) for nid, n in tree.nodes.items()},
                          "price": "1/2"}],
    )
    return load_model(data)


@pytest.fixture(params=["binomial", "binomial_short_put", "trinomial", "two_period",
                        "strict_chain_market", "full_book", "two_dim"])
def model(request):
    if request.param == "strict_chain_market":
        return campaign.strict_chain_market()
    if request.param == "full_book":
        return load_model(FULL_BOOK)
    if request.param == "two_dim":
        return _two_dim_two_period(request.getfixturevalue("two_period"))
    return request.getfixturevalue(request.param)


def _draw(rng):
    return Q(rng.randint(-6, 6), rng.choice((1, 2, 3, 5)))


def _random_positions(g: GainLP, rng: random.Random) -> list[Q]:
    """Random values for every variable, liquidation masses summing to b_j per path."""
    x = [_draw(rng) for _ in g.lp.var_names]
    T = g.enl.horizon
    for j, nu in enumerate(g.nu_var):
        b = x[g.static["b"][j]]
        for ep in g.enl.epaths:
            # the terminal enlarged node belongs to this path alone
            seq = ep.node_seq
            x[nu[seq[T]]] = b - sum((x[nu[v]] for v in seq[:T]), ZERO)
    return x


def _dot(coeffs: dict[int, Q], x: list[Q]) -> Q:
    return sum((c * x[var] for var, c in coeffs.items()), ZERO)


@pytest.mark.parametrize("restricted", [False, True])
@pytest.mark.parametrize("extra_clock", [0, 1])
def test_builder_matches_evaluator_on_every_path(model, restricted, extra_clock):
    # restricted: the space on its even-numbered paths (EnlargedModel.restricted)
    rng = random.Random(2016 + 2 * extra_clock + restricted)
    enl = enlarge(model, model.N + extra_clock)
    if restricted:
        enl = enl.restricted(range(0, enl.num_paths, 2))
    g = GainLP(enl)
    for _ in range(3):
        x = _random_positions(g, rng)
        gains = path_gains(enl, g.strategy_at(int_vector(x)))
        for p in range(enl.num_paths):
            assert _dot(g.gain_coeffs(p), x) == gains[p]


@pytest.mark.parametrize("extra_clock", [0, 1])
def test_clock_indexed_copy_has_the_enlarged_gain(model, extra_clock):
    rng = random.Random(7 + extra_clock)
    n = model.N + extra_clock
    enl = enlarge(model, n)
    g = GainLP(enl)
    strat = g.strategy_at(int_vector(_random_positions(g, rng)))
    gains = path_gains(enl, strat)

    rev = RevealedModel(model, n)
    clp = GainLP(rev)
    x = [ZERO] * len(clp.lp.var_names)
    book = {"a": strat.long_european, "b": strat.long_american, "c": strat.short_american}
    for kind, vs in clp.static.items():
        for var, val in zip(vs, book[kind]):
            x[var] = val
    for p, ep in enumerate(rev.epaths):
        # both spaces list their paths in one order
        assert (ep.base_index, ep.clocks) == (enl.epaths[p].base_index, enl.epaths[p].clocks)
        for t, (v, u) in enumerate(zip(ep.node_seq, enl.epaths[p].node_seq)):
            for j, nu in enumerate(clp.nu_var):
                x[nu[v]] = strat.liquidation[j].get(u, ZERO)
            if t < model.tree.horizon:
                for d in range(model.dim):
                    x[clp.stock[(v, d)]] = strat.stock.get((u, d), ZERO)
    copied = clp.strategy_at(int_vector(x))
    # an adapted strategy never reads a clock before it fires
    assert nonanticipative(rev, copied)
    copied_gains = path_gains(rev, copied)
    for p in range(rev.num_paths):
        assert _dot(clp.gain_coeffs(p), x) == gains[p]
        assert copied_gains[p] == gains[p]

    # positions that do read the clocks: builder and evaluator still agree
    x = _random_positions(clp, rng)
    anticipating = path_gains(rev, clp.strategy_at(int_vector(x)))
    for p in range(rev.num_paths):
        assert _dot(clp.gain_coeffs(p), x) == anticipating[p]


def test_check_fails_without_raising_on_a_signed_measure():
    model = load_model(FULL_BOOK)
    enl = enlarge(model, model.N)
    pt = build_polytope(enl)
    # the two paths below the root with the clock fired at 0 cancel out
    measure = {
        enl.path_key[(0, (0,))]: Q(1),
        enl.path_key[(1, (0,))]: Q(-1),
        enl.path_key[(0, (1,))]: Q(1, 2),
        enl.path_key[(1, (1,))]: Q(1, 2),
    }
    rows = {row[0]: row for row in pt.verdicts(measure)}
    assert not all(row[-1] for row in rows.values())
    _, lhs, _, _, den, _ = rows["g[0;sup]"]
    values = pt.long_values[0]
    seqs = [enl.epaths[p].node_seq for p in range(enl.num_paths)]
    best = max(
        sum(q * values[seqs[p][tau.time_on(seqs[p])]] for p, q in measure.items())
        for tau in enlarged_stopping_times(enl)
    )
    assert Q(lhs, den) == best
