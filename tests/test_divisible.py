"""Clock-indexed formulation against the enlarged space."""
from __future__ import annotations

import copy
import math
import random

import pytest

from amhedge import campaign, divisible, hedging
from amhedge.divisible import RevealedModel, verify_divisibility_equivalence
from amhedge.enlarged import enlarge
from amhedge.errors import PropertyViolation
from amhedge.hedging import subhedge, subhedge_european, superhedge
from amhedge.market import load_model
from amhedge.rationals import ONE, Q, ZERO

from conftest import binomial_dict
from test_pathwise_checks import TIED


def test_equivalence_short_put(binomial_short_put):
    report = verify_divisibility_equivalence(binomial_short_put)
    assert report.sub == report.super == Q(1, 3)
    # the claim payoff held to the end is its European value
    assert report.european == Q(1, 3)
    assert [eps for eps, _ in report.sna_grid] == list(divisible.EPS_GRID)


def test_equivalence_no_shorts(binomial):
    # N = 0: a single empty clock vector; both formulations coincide trivially
    report = verify_divisibility_equivalence(binomial)
    assert report.sub == Q(1, 3)


def test_equivalence_with_long_american():
    model = load_model(binomial_dict(
        americans_long=[{"values": {"r": "0", "u": "1", "d": "1/4"}, "price": "2/3"}],
        americans_short=[{"values": {"r": "0", "u": "0", "d": "1/2"}, "price": "1/4"}],
    ))
    report = verify_divisibility_equivalence(model)
    assert report.sub <= report.super


def test_equivalence_detects_sna_flips(binomial_short_put):
    # full support forces b < 1/3, so the shifted put row b >= 1/4 + eps
    # survives exactly while eps < 1/12; both formulations must agree
    report = verify_divisibility_equivalence(binomial_short_put)
    seen = dict(report.sna_grid)
    assert seen
    for eps, na in seen.items():
        assert na == (eps < Q(1, 12))


def test_needs_claim(binomial):
    model = binomial._replace(claim=None)
    with pytest.raises(ValueError):
        verify_divisibility_equivalence(model)


def test_tie_rows_bind_with_two_periods_and_a_short():
    # at T = 2 a clock not fired at time 0 may still fire at 1 or 2; a
    # strategy that knew which would hedge the claim cheaper
    model = campaign.random_sna_model(random.Random(6), force_n=1).model
    assert (model.tree.horizon, model.N) == (2, 1)
    rev = RevealedModel(model, model.N + 1)
    assert rev.tied_pairs
    assert superhedge(rev).price == superhedge(enlarge(model, model.N + 1)).price == Q(25, 9)
    anticipating = copy.copy(rev)
    anticipating.tied_pairs = ()
    assert superhedge(anticipating).price == Q(8, 3)
    assert verify_divisibility_equivalence(model).super == Q(25, 9)


def _move_price(monkeypatch, name, moved):
    """divisible's pricer ``name`` reports its price plus one on the spaces
    ``moved`` picks, and prices every other space as before."""
    real = getattr(divisible, name)

    def pricer(enl, *args):
        report = real(enl, *args)
        return report._replace(price=report.price + ONE) if moved(enl) else report

    monkeypatch.setattr(divisible, name, pricer)


@pytest.mark.parametrize("name, side", [
    ("subhedge", "sub"), ("superhedge", "super"), ("subhedge_european", "european"),
])
def test_a_price_moved_on_the_enlarged_space_is_raised(monkeypatch, binomial_short_put,
                                                       name, side):
    _move_price(monkeypatch, name, lambda enl: not isinstance(enl, RevealedModel))
    with pytest.raises(PropertyViolation, match=f"^{side} prices disagree: "
                       r"clock-indexed 1/3 vs enlarged 4/3$"):
        verify_divisibility_equivalence(binomial_short_put)


def _weight_points(rng, n, horizon, draws):
    """The uniform point and ``draws`` random points of per-clock exercise
    weights: n vectors over the times 0..horizon, each nonnegative and
    summing to 1."""
    times = range(horizon + 1)
    points = [[[Q(1, horizon + 1)] * len(times)] * n]
    for _ in range(draws):
        point = []
        for _ in range(n):
            raw = [rng.randint(0, 3) for _ in times]
            raw[rng.randrange(len(raw))] += 1
            point.append([Q(w, sum(raw)) for w in raw])
        points.append(point)
    return points


def _mixtures(space, points):
    """Per weight point and base path, the weight prod_k w[k][t_k] of each
    clock vector t of that path under independent exercise."""
    return [{space.path_key[(b, tvec)]: w for tvec in space.tuples
             if (w := math.prod(vec[tk] for vec, tk in zip(point, tvec)))}
            for point in points for b in range(len(space.model.tree.paths))]


def _with_mixture_rows(prog, mixtures):
    """A copy of a hedge LP with one row sum_p w_p row_p >= sum_p w_p rhs_p
    per mixture, its path rows hedge[p] read by name."""
    out = prog.copy()
    path_rows = {row.name: row for row in prog.rows}
    for k, mix in enumerate(mixtures):
        coeffs, rhs = {}, ZERO
        for p, w in mix.items():
            row_coeffs, row_rhs = path_rows[f"hedge[p{p}]"].rational()
            rhs += w * row_rhs
            for var, val in row_coeffs.items():
                coeffs[var] = coeffs.get(var, ZERO) + w * val
        out.add_constraint(coeffs, ">=", rhs, name=f"mix[{k}]")
    return out


@pytest.mark.parametrize("market", ["binomial_short_put", "tied"])
def test_mixture_rows_move_no_hedge_price(monkeypatch, request, market):
    # divisible exercise moves no price: rows mixing the clock vectors of a
    # base path with nonnegative exercise weights are implied by the path
    # rows, so writing them into a hedge LP moves none of its prices
    model = load_model(TIED) if market == "tied" else request.getfixturevalue(market)
    N, T = model.N, model.tree.horizon
    real, asked = hedging.solve, []
    monkeypatch.setattr(hedging, "solve", lambda prog: asked.append(prog) or real(prog))
    rng = random.Random(11)
    rev_sub, rev_sup = RevealedModel(model, N), RevealedModel(model, N + 1)
    psi = [model.claim[model.tree.paths[ep.base_index][T]] for ep in rev_sub.epaths]
    prices = []
    for price, space in ((subhedge, rev_sub), (superhedge, rev_sup),
                         (lambda enl: subhedge_european(enl, psi), rev_sub)):
        plain = price(space).price
        mixtures = _mixtures(space, _weight_points(rng, space.n, T, draws=4))
        assert any(len(mix) > 1 for mix in mixtures)
        out = real(_with_mixture_rows(asked[-1], mixtures))
        assert (out.status, out.value) == ("optimal", plain)
        prices.append(plain)
    report = verify_divisibility_equivalence(model)
    assert [report.sub, report.super, report.european] == prices


def test_a_flipped_no_arbitrage_verdict_is_raised(monkeypatch, binomial_short_put):
    real = divisible.detect_arbitrage

    def flipped(enl):
        report = real(enl)
        if isinstance(enl, RevealedModel):
            return report
        return report._replace(gain=ZERO if report.found else ONE)

    monkeypatch.setattr(divisible, "detect_arbitrage", flipped)
    with pytest.raises(PropertyViolation, match="^no-arbitrage verdicts disagree at eps=1/2$"):
        verify_divisibility_equivalence(binomial_short_put)
