"""The measure LP, the gain rows and the enlarged forest against reference builds.

MeasurePolytope and GainLP read their stock moves from one table per base
edge (MarketModel.base_steps) and their payoffs from per-leaf, per-path
and per-node tables, and EnlargedModel computes each clock tuple's
statuses once.  The references below are the builds those replaced,
walked enlarged path by enlarged path; the LPs and forests must come out
identical, row order and coefficient order included.  On a path subset
the reference walks the listed paths of the whole space, and the build
runs on the space restricted to them (EnlargedModel.restricted).
"""
from __future__ import annotations

import itertools
import random

import pytest

from amhedge.campaign import random_sna_model
from amhedge.divisible import RevealedModel
from amhedge.enlarged import EnlargedNode, EnlargedPath, enlarge
from amhedge.hedging import GainLP
from amhedge.lp import LinearProgram, format_lp
from amhedge.market import load_model
from amhedge.measures import MeasurePolytope
from amhedge.rationals import ONE, Q, ZERO
from amhedge.robust import supported_paths

from conftest import (
    binomial_put_book_dict,
    trinomial_dict,
    trinomial_kernels_dict,
    unbranched_book_dicts,
)
from test_report_bytes import CAMPAIGN_MODELS, CONFTEST_MODELS


def flat_first_dict() -> dict:
    """Two trinomial periods whose first move from the root is flat, so
    the first path's row at the root opens only after the rows below it."""
    stock = {"r": "1", "b": "1", "a": "2", "c": "1/2", "ba": "2", "bc": "1/2",
             "aa": "4", "ac": "1", "ca": "1", "cc": "1/4"}
    return {
        "horizon": 2,
        "nodes": [{"id": "r", "time": 0}] + [
            {"id": v, "time": len(v), "parent": v[:-1] or "r"} for v in stock if v != "r"],
        "stock": {"dim": 1, "values": {v: [s] for v, s in stock.items()}},
        "claim": {"values": {v: "1" if v in ("a", "aa") else "0" for v in stock}},
        "weights": {v: "1/6" for v in stock if len(v) == 2},
    }


EXTRA_MODELS = {
    "flat_first": lambda: load_model(flat_first_dict()),
    "put_book_short": lambda: load_model(binomial_put_book_dict(2, short_bid="1/4")),
    "put_book_long": lambda: load_model(binomial_put_book_dict(3, long_ask="2")),
    "put_book_both": lambda: load_model(
        binomial_put_book_dict(2, short_bid="1/4", long_ask="2")),
    **{name: (lambda d=d: load_model(d)) for name, d in unbranched_book_dicts().items()},
    "trinomial_kernels": lambda: load_model(trinomial_kernels_dict(2)),
    **CAMPAIGN_MODELS,
}


def _model(request, name):
    if name in CONFTEST_MODELS:
        return request.getfixturevalue(name)
    return EXTRA_MODELS[name]()


def _restricted(enl, paths):
    return enl if paths is None else enl.restricted(paths)


def _reference_lp(enl, paths=None) -> LinearProgram:
    """The measure LP on ``paths`` (default all) as built one enlarged path
    and time at a time: a stock step per (path, t), each coefficient summed
    into its row from ZERO, and every payoff read off the path."""
    model = enl.model
    paths = list(range(enl.num_paths)) if paths is None else sorted(set(paths))
    lp = LinearProgram()
    q_var = {p: lp.add_var(f"Q[{enl.epaths[p].label}]") for p in paths}
    lp.add_constraint({v: ONE for v in q_var.values()}, "=", ONE, name="mass")

    def stock_step(p, t):
        base = model.tree.paths[enl.epaths[p].base_index]
        now, nxt = model.stock[base[t]], model.stock[base[t + 1]]
        return tuple(b - a for a, b in zip(now, nxt))

    rows: dict[tuple, dict[int, Q]] = {}
    for p in paths:
        for t in range(enl.horizon):
            node = enl.epaths[p].node_seq[t]
            for d, m in enumerate(stock_step(p, t)):
                if m:
                    row = rows.setdefault((node, d), {})
                    row[q_var[p]] = row.get(q_var[p], ZERO) + m
    for (node, d), row in sorted(rows.items()):
        lp.add_constraint(row, "=", ZERO, name=f"mart[{enl.enode(node).label};{d}]")
    path_of = {p: model.tree.paths[enl.epaths[p].base_index] for p in paths}
    for i, (payoff, alpha) in enumerate(model.europeans):
        row = {q_var[p]: payoff[path_of[p][enl.horizon]] for p in paths}
        lp.add_constraint(row, "<=", alpha, name=f"f[{i}]")
    for k, (proc, gamma) in enumerate(model.americans_short):
        row = {q_var[p]: proc[path_of[p][enl.epaths[p].clocks[k]]] for p in paths}
        lp.add_constraint(row, ">=", gamma, name=f"h[{k}]")
    # the Snell blocks are built as before; only their values are read here
    blocks = MeasurePolytope(_restricted(enl, paths))
    for j, (proc, beta) in enumerate(model.americans_long):
        values = {v: proc[node.base] for v, node in enumerate(enl.enodes)}
        root, shift, _ = blocks.snell_block(lp, values, f"g{j}")
        lp.add_constraint(root, "<=", beta - shift, name=f"g[{j}]")
    return lp


def _assert_same_lp(enl, paths=None) -> None:
    pt = MeasurePolytope(_restricted(enl, paths))
    ref = _reference_lp(enl, paths)
    assert format_lp(pt.lp) == format_lp(ref)
    # the tableau reads each row's coefficients in their insertion order
    assert [list(r.coeffs) for r in pt.lp.rows] == [list(r.coeffs) for r in ref.rows]
    model = enl.model
    for j, (proc, _) in enumerate(model.americans_long):
        assert pt.long_values[j] == {v: proc[node.base]
                                     for v, node in enumerate(enl.enodes)}


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("name", [*CONFTEST_MODELS, *EXTRA_MODELS])
def test_measure_lp_matches_the_path_by_path_build(name, extra, request):
    model = _model(request, name)
    _assert_same_lp(enlarge(model, model.N + extra))


def test_measure_lp_on_a_path_subset_and_a_kernel_support():
    model = load_model(trinomial_kernels_dict(2))
    for n in (model.N, model.N + 1):
        enl = enlarge(model, n)
        support = supported_paths(enl)
        assert 0 < len(support) < enl.num_paths
        _assert_same_lp(enl, support)
        # listed out of index order, with a repeat
        _assert_same_lp(enl, [p for p in range(enl.num_paths) if p % 3 != 1][::-1] + [0])


@pytest.mark.parametrize("seed", range(12))
def test_measure_lp_on_random_markets(seed):
    model = random_sna_model(random.Random(seed)).model
    for n in (model.N, model.N + 1):
        _assert_same_lp(enlarge(model, n))


def _reference_gain_row(g: GainLP, p: int) -> dict:
    """Phi(path p) as built one enlarged path and time at a time: a stock
    step per (path, t), each payoff read off the path, and each
    coefficient summed into the row from ZERO."""
    model, enl, ep = g.model, g.enl, g.enl.epaths[p]
    path, seq = model.tree.paths[ep.base_index], ep.node_seq
    row: dict = {}

    def bump(var, val):
        if val:
            row[var] = row.get(var, ZERO) + val

    for t in range(enl.horizon):
        now, nxt = model.stock[path[t]], model.stock[path[t + 1]]
        for d, (a, b) in enumerate(zip(now, nxt)):
            bump(g.stock[(seq[t], d)], b - a)
    for i, (payoff, alpha) in enumerate(model.europeans):
        bump(g.static["a"][i], payoff[path[enl.horizon]] - alpha)
    for j, (proc, beta) in enumerate(model.americans_long):
        bump(g.static["b"][j], -beta)
        for t in range(enl.horizon + 1):
            bump(g.nu_var[j][seq[t]], proc[path[t]])
    for k, (proc, gamma) in enumerate(model.americans_short):
        bump(g.static["c"][k], -(proc[path[ep.clocks[k]]] - gamma))
    return row


class _ReferenceGainLP(GainLP):
    gain_coeffs = _reference_gain_row


def _gain_lp(cls, enl) -> LinearProgram:
    """A GainLP's path rows, then its common rows (liquidation, ties)."""
    g = cls(enl)
    for p in range(enl.num_paths):
        g.lp.add_constraint(g.gain_coeffs(p), ">=", ZERO, name=f"gain[p{p}]")
    g.add_common_rows()
    return g.lp


def _assert_same_gain_lp(enl, paths=None) -> None:
    space = _restricted(enl, paths)
    lp = _gain_lp(GainLP, space)
    ref = _gain_lp(_ReferenceGainLP, space)
    assert format_lp(lp) == format_lp(ref)
    assert [list(r.coeffs) for r in lp.rows] == [list(r.coeffs) for r in ref.rows]
    # positions are carried on the nodes of the listed paths and traded
    # on those before the horizon
    seqs = [enl.epaths[p].node_seq for p in sorted(set(range(enl.num_paths) if paths is None
                                                       else paths))]
    g = GainLP(space)
    assert g.carry_nodes == sorted({v for seq in seqs for v in seq})
    assert sorted({v for v, _ in g.stock}) == sorted({v for seq in seqs for v in seq[:-1]})


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("name", [*CONFTEST_MODELS, *EXTRA_MODELS])
def test_gain_rows_match_the_path_by_path_build(name, extra, request):
    model = _model(request, name)
    _assert_same_gain_lp(enlarge(model, model.N + extra))


def test_gain_rows_cover_every_book():
    # the fixtures above hold Europeans, longs and shorts, each somewhere
    models = [EXTRA_MODELS[name]() for name in EXTRA_MODELS]
    assert all(any(getattr(m, book) >= 1 for m in models) for book in "LMN")


def test_gain_rows_on_a_path_subset_and_random_markets():
    model = load_model(trinomial_kernels_dict(2))
    enl = enlarge(model, model.N)
    _assert_same_gain_lp(enl, supported_paths(enl))
    _assert_same_gain_lp(enl, [p for p in range(enl.num_paths) if p % 3 != 1][::-1] + [0])
    for seed in range(6):
        model = random_sna_model(random.Random(seed)).model
        for n in (model.N, model.N + 1):
            _assert_same_gain_lp(enlarge(model, n))


@pytest.mark.parametrize("n", [1, 2])
def test_gain_rows_on_the_revealed_space_with_its_grid(n):
    space = RevealedModel(EXTRA_MODELS["put_book_short"](), n)
    assert space.tied_pairs
    _assert_same_gain_lp(space)


def _reference_forest(enl):
    """enodes, epaths, children and roots as built by calling status_at
    once per base path, clock tuple and time."""
    T = enl.horizon
    enodes, index, epaths, children, roots = [], {}, [], {}, {}
    for base_index, base_path in enumerate(enl.model.tree.paths):
        for clocks in itertools.product(range(T + 1), repeat=enl.n):
            seq = []
            for t in range(T + 1):
                status = enl.status_at(clocks, t)
                key = (base_path[t], status)
                idx = index.get(key)
                if idx is None:
                    idx = index[key] = len(enodes)
                    enodes.append(EnlargedNode(base_path[t], t, status))
                    children[idx] = {}
                seq.append(idx)
            for t in range(T):
                children[seq[t]][seq[t + 1]] = None
            roots[seq[0]] = None
            epaths.append(EnlargedPath(base_index, clocks, tuple(seq)))
    return enodes, epaths, [(v, tuple(kids)) for v, kids in children.items()], tuple(roots)


def _assert_same_forest(enl) -> None:
    enodes, epaths, children, roots = _reference_forest(enl)
    assert enl.enodes == enodes
    assert enl.epaths == epaths
    assert list(enl.children.items()) == children
    assert enl.roots == roots


def _trinomial_short():
    # trinomial with one shorted American put struck at 1, bid at 1/8
    put = {"values": {"r": "0", "a": "0", "b": "0", "c": "1/2"}, "price": "1/8"}
    return load_model({**trinomial_dict(), "americans_short": [put]})


@pytest.mark.parametrize("name, n", [
    ("binomial", 0), ("binomial", 1), ("binomial_short_put", 1), ("binomial_short_put", 2),
    ("trinomial", 0), ("trinomial", 1), ("trinomial_short", 1), ("trinomial_short", 2),
    ("two_period", 0), ("two_period", 1),
])
def test_forest_matches_the_status_at_loop(name, n, request):
    model = _trinomial_short() if name == "trinomial_short" else request.getfixturevalue(name)
    enl = enlarge(model, n)
    _assert_same_forest(enl)
    other = enl.with_model(model.shifted_prices(Q(1, 8)))
    _assert_same_forest(other)
    assert other.enodes is enl.enodes and other.children is enl.children


@pytest.mark.parametrize("n", [1, 2])
def test_revealed_forest_matches_the_status_at_loop(binomial_short_put, n):
    # every node knows the whole clock vector: status_at is overridden
    _assert_same_forest(RevealedModel(binomial_short_put, n))
