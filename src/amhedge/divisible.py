"""Divisible vs. non-divisible exercise: the clock-indexed formulation.

Shorted American options admit two readings of "the holder may
exercise": at one of the discrete times 0..T (non-divisible, a clock
vector t in {0..T}^n), or spread over times by nonnegative weights
summing to one (divisible, a point of the weight simplex product V^n).
This module prices against the clock-indexed formulation directly -
one strategy copy per clock vector, tied together by explicit
non-anticipativity equalities - and checks its prices and no-arbitrage
verdicts against the enlarged space's, whose LPs are built apart.

The clock-indexed formulation is the enlarged space with every clock
revealed at time 0 (RevealedModel), so the one hedge driver of
``hedging`` prices it, with one tie row per node pair the space lists.
The divisible reading moves no price, since the hedge inequality is
linear in the exercise weights (verify_divisibility_equivalence).
"""
from __future__ import annotations

import itertools
from typing import NamedTuple

from .enlarged import EnlargedModel, enlarge
from .errors import PropertyViolation
from .hedging import detect_arbitrage, subhedge, subhedge_european, superhedge
from .market import MarketModel
from .rationals import Q, rat_str
from .strategies import indistinguishable_pairs

# quote shifts swept by the no-arbitrage checks
EPS_GRID = tuple(Q(1, 2 ** k) for k in range(1, 9))


class RevealedModel(EnlargedModel):
    """The enlarged space with every clock revealed at time 0.

    A node is (base node, whole clock vector), so each clock vector
    gets its own strategy copy: the clock-indexed formulation.  Two
    time-r nodes over one base node are tied when their clock vectors
    are indistinguishable at r (indistinguishable_pairs), which is the
    non-anticipativity a clock not yet fired imposes.
    """

    def __init__(self, model: MarketModel, n: int) -> None:
        super().__init__(model, n)
        self.tuples = list(itertools.product(range(self.horizon + 1), repeat=n))
        index = {(node.base, node.status): i for i, node in enumerate(self.enodes)}
        self.tied_pairs = tuple(
            (index[(nid, s)], index[(nid, t)])
            for r in range(self.horizon)
            for s, t in indistinguishable_pairs(self.tuples, r)
            for nid, node in model.tree.nodes.items() if node.time == r
        )

    def status_at(self, clocks: tuple[int, ...], t: int) -> tuple[int, ...]:
        """Every node knows the whole clock vector."""
        return clocks


class DivisibilityReport(NamedTuple):
    """The agreed prices and the (eps, NA) verdicts."""

    sub: Q
    super: Q
    european: Q
    sna_grid: list[tuple[Q, bool]]


def verify_divisibility_equivalence(model: MarketModel) -> DivisibilityReport:
    """Clock-indexed vs enlarged-space prices and no-arbitrage verdicts.

    Computes sub/super/European prices in the clock-indexed LP and on
    the enlarged space and asserts exact agreement; then compares the
    no-arbitrage verdicts of the two formulations at
    model.shifted_prices(eps) for every eps in EPS_GRID.

    Divisible exercise needs no LP of its own.  Weights w >= 0 on the
    clock vectors of a base path enter the hedge inequality linearly,
    as sum_t w_t row_t >= sum_t w_t rhs_t, so a hedge that holds on
    every path (each optimizer and witness passes check_hedge) holds
    for every such w: those rows would leave each LP's feasible set,
    and so its price and verdict, as they are.
    """
    if model.claim is None:
        raise ValueError("divisibility verification needs a claim")
    N = model.N
    T = model.tree.horizon
    rev_sub, rev_sup = RevealedModel(model, N), RevealedModel(model, N + 1)
    enl_sub = enlarge(model, N)
    # both spaces list their paths base path first, then clock vector
    psi = [model.claim[model.tree.paths[ep.base_index][T]] for ep in rev_sub.epaths]

    sub = subhedge(rev_sub)
    sup = superhedge(rev_sup)
    euro = subhedge_european(rev_sub, psi)
    for name, a, b in (
        ("sub", sub.price, subhedge(enl_sub).price),
        ("super", sup.price, superhedge(enlarge(model, N + 1)).price),
        ("european", euro.price, subhedge_european(enl_sub, psi).price),
    ):
        if a != b:
            raise PropertyViolation(
                f"{name} prices disagree: clock-indexed {rat_str(a)} vs enlarged {rat_str(b)}"
            )

    sna_rows: list[tuple[Q, bool]] = []
    for eps in EPS_GRID:
        shifted = model.shifted_prices(eps)
        found = detect_arbitrage(rev_sub.with_model(shifted)).found
        if found != detect_arbitrage(enl_sub.with_model(shifted)).found:
            raise PropertyViolation(
                f"no-arbitrage verdicts disagree at eps={rat_str(eps)}"
            )
        sna_rows.append((eps, not found))

    return DivisibilityReport(sub=sub.price, super=sup.price, european=euro.price,
                              sna_grid=sna_rows)
