"""Enlarged space: forest shape, clock weights, and claim extension."""
from __future__ import annotations

import pytest

from amhedge.divisible import RevealedModel
from amhedge.enlarged import enlarge, extend_claim
from amhedge.errors import ModelFormatError
from amhedge.market import emit_model, load_model
from amhedge.measures import build_polytope
from amhedge.rationals import ONE, Q, ZERO

from conftest import binomial_put_book_dict, binomial_short_put_dict


def test_zero_clocks_is_base_tree(binomial):
    enl = enlarge(binomial, 0)
    assert enl.num_paths == 2
    assert len(enl.enodes) == 3
    assert [n.label for n in enl.enodes[:1]] == ["r"]
    assert enl.epaths[0].clocks == ()
    assert enl.weights[0] == Q(1, 2)


def test_one_clock_shape(binomial_short_put):
    enl = enlarge(binomial_short_put, 1)
    # 2 base paths x 2 clock values
    assert enl.num_paths == 4
    # r splits by whether the clock has run: r|0 and r|*
    labels = {n.label for n in enl.enodes}
    assert labels == {"r|0", "r|*", "u|0", "u|1", "d|0", "d|1"}
    # the forest has one root per time-0 information atom
    assert len(enl.roots) == 2
    for r in enl.roots:
        assert enl.enode(r).time == 0
        assert len(enl.children[r]) == 2


def test_n_must_match_model(binomial_short_put):
    with pytest.raises(ModelFormatError):
        enlarge(binomial_short_put, 0)
    with pytest.raises(ModelFormatError):
        enlarge(binomial_short_put, 3)


def test_uniform_clock_weights(binomial_short_put):
    enl = enlarge(binomial_short_put, 1)
    assert enl.clock_mass == Q(1, 2)
    assert sum(enl.weights) == ONE
    assert enl.weights[0] == Q(1, 4)


def test_restricted_matches_a_brute_force_build():
    model = load_model(binomial_put_book_dict(2, short_bid="1/4"))
    enl = enlarge(model, model.N + 1)
    assert enl.num_paths == 36
    # a subset of the clock paths, listed out of index order
    paths = [p for p in range(enl.num_paths) if p % 3 != 1][::-1]
    sub = enl.restricted(paths)
    keep = sorted(paths)
    seqs = [enl.epaths[p].node_seq for p in keep]
    nodes = {v for seq in seqs for v in seq}
    assert list(sub.through) == list(sub.children) == sorted(nodes)
    for v in nodes:
        assert sub.through[v] == [i for i, seq in enumerate(seqs) if v in seq]
        steps = {seq[t + 1] for seq in seqs for t in range(enl.horizon) if seq[t] == v}
        assert sub.children[v] == tuple(c for c in enl.children[v] if c in steps)
    assert sub.roots == tuple(r for r in enl.roots if r in nodes)
    assert len(nodes) < len(enl.enodes)


def test_restricted_keeps_nodes_paths_and_weights():
    data = binomial_put_book_dict(2, short_bid="1/4")
    # unequal base-path weights, so that a path out of place changes a weight
    data["weights"] = dict(zip(sorted(data["weights"]), ["1/10", "2/10", "3/10", "4/10"]))
    model = load_model(data)
    enl = enlarge(model, model.N)
    keep = [p for p in range(enl.num_paths) if enl.epaths[p].clocks[0] != 1]
    sub = enl.restricted(keep)
    assert sub.num_paths == len(keep) < enl.num_paths
    # nodes keep their indices and labels, paths their order and weights
    assert sub.enodes is enl.enodes
    assert sub.epaths == [enl.epaths[p] for p in keep]
    assert sub.weights == [enl.weights[p] for p in keep]
    for i, p in enumerate(keep):
        ep = enl.epaths[p]
        assert sub.path_key[(ep.base_index, ep.clocks)] == i
    # the parent is left as it was
    assert enl.num_paths == len(model.tree.paths) * (model.tree.horizon + 1) ** enl.n
    assert list(enl.children) == list(range(len(enl.enodes)))


def test_restricted_builds_its_own_forest_and_survives_with_model(binomial_short_put):
    enl = enlarge(binomial_short_put, 1)
    full = enl.through    # the parent's forest, computed before the copy
    assert sum(map(len, full.values())) == enl.num_paths * (enl.horizon + 1)
    sub = enl.restricted([0, 1])
    assert sub.through is not full and enl.through is full
    assert sub.through == {v: [i for i, ep in enumerate(sub.epaths) if v in ep.node_seq]
                           for v in sub.children}
    other = sub.with_model(binomial_short_put.shifted_prices(Q(1, 8)))
    assert other.epaths is sub.epaths and other.children is sub.children
    assert other.through is sub.through
    assert other.weights == sub.weights


def test_restricted_refuses_no_paths_and_a_mixed_space(binomial_short_put, two_period):
    enl = enlarge(binomial_short_put, 1)
    with pytest.raises(ValueError, match="at least one path"):
        enl.restricted([])
    # a dropped node would cut the chain of a tied class
    revealed = RevealedModel(two_period, 1)
    assert revealed.tied_pairs
    with pytest.raises(ValueError, match="without tied pairs"):
        revealed.restricted([0])


def test_status_reveals_clock_at_its_time(binomial_short_put):
    enl = enlarge(binomial_short_put, 1)
    for p in range(enl.num_paths):
        ep = enl.epaths[p]
        for t, v in enumerate(ep.node_seq):
            node = enl.enode(v)
            want = tuple(tk if tk <= t else None for tk in ep.clocks)
            assert node.status == want
            assert node.time == t


def test_short_value_reads_exercise_clock(binomial_short_put):
    # the measure LP's h[0] row charges each path the put at its clock
    pt = build_polytope(enlarge(binomial_short_put, 1))
    put = {"r": ZERO, "u": ZERO, "d": Q(1, 2)}
    coeffs, _ = pt.lp.rows[pt.h_rows[0]].rational()
    for p, ep in enumerate(pt.enl.epaths):
        base = binomial_short_put.tree.paths[ep.base_index]
        assert coeffs.get(pt.q_var[p], ZERO) == put[base[ep.clocks[0]]]


def test_extend_claim_sub_is_node_indexed(binomial_short_put):
    enl = enlarge(binomial_short_put, 1)
    claim_at = extend_claim(enl, "sub")
    for v, node in enumerate(enl.enodes):
        assert claim_at[v] == binomial_short_put.claim[node.base]


def test_extend_claim_super_reads_last_clock(binomial_short_put):
    enl = enlarge(binomial_short_put, 2)
    target = extend_claim(enl, "super")
    for p in range(enl.num_paths):
        ep = enl.epaths[p]
        base = binomial_short_put.tree.paths[ep.base_index]
        assert target[p] == binomial_short_put.claim[base[ep.clocks[-1]]]


def test_extend_claim_super_needs_extra_clock(binomial_short_put):
    enl = enlarge(binomial_short_put, 1)
    with pytest.raises(ModelFormatError):
        extend_claim(enl, "super")
    # and the sub role needs n = N
    with pytest.raises(ModelFormatError):
        extend_claim(enlarge(binomial_short_put, 2), "sub")


def test_stock_step(two_period):
    # the measure LP's table of stock moves, one per base edge
    steps, den = two_period.base_steps()
    # path 0 = r -> u -> uu: increments +1 then +2, Python ints over den
    assert [Q(m, den) for m in steps["u"]] == [ONE]
    assert [Q(m, den) for m in steps["uu"]] == [Q(2)]
    assert all(type(m) is int for move in steps.values() for m in move)


def test_path_count_scales_with_clocks(two_period):
    # (T + 1)^n clock tuples per base path
    assert enlarge(two_period, 0).num_paths == 4
    assert enlarge(two_period, 1).num_paths == 12


def test_path_index_lookup(binomial_short_put):
    enl = enlarge(binomial_short_put, 1)
    for p in range(enl.num_paths):
        ep = enl.epaths[p]
        assert enl.path_key[(ep.base_index, ep.clocks)] == p


def test_labels(binomial_short_put):
    enl = enlarge(binomial_short_put, 1)
    ep = enl.epaths[0]
    assert ep.label == f"p{ep.base_index}@" + ",".join(map(str, ep.clocks))


def test_with_model_shares_the_forest():
    # unequal base-path weights, so that the copy's weights can go wrong
    model = load_model({**binomial_short_put_dict(), "weights": {"u": "1/3", "d": "2/3"}})
    enl = enlarge(model, 1)
    weights = list(enl.weights)
    assert len(set(weights)) == 2
    shifted = model.shifted_prices(Q(1, 8))
    other = enl.with_model(shifted)
    assert other.model is shifted and enl.model is model
    assert other.epaths is enl.epaths and other.children is enl.children
    assert other.weights == weights
    # another tree object, or another number of shorts, needs its own forest
    with pytest.raises(ValueError):
        enl.with_model(load_model(emit_model(model)))
    with pytest.raises(ValueError):
        enl.with_model(model._replace(americans_short=[]))


def test_copies_keep_the_forest_tables_and_recompute_the_rest(binomial_short_put):
    # every table is read before each copy, so a copy that kept one it
    # must recompute would read its parent's
    enl = enlarge(binomial_short_put, 1)
    through, weights, key = enl.through, enl.weights, enl.path_key
    leaf = {"u": Q(1, 3), "d": Q(2, 3)}
    other = enl.with_model(binomial_short_put._replace(weights=leaf))
    # the forest tables depend on the tree and n alone; the weights do not
    assert other.through is through and other.path_key is key
    paths = binomial_short_put.tree.paths
    assert other.weights == [leaf[paths[ep.base_index][-1]] * enl.clock_mass
                             for ep in enl.epaths] != weights
    assert enl.weights is weights
    keep = range(1, other.num_paths, 2)
    sub = other.restricted(keep)
    assert sub.path_key == {(enl.epaths[p].base_index, enl.epaths[p].clocks): i
                            for i, p in enumerate(keep)}
    assert sub.weights == [other.weights[p] for p in keep]
    assert sub.through == {v: [i for i, ep in enumerate(sub.epaths) if v in ep.node_seq]
                           for v in sub.children}
