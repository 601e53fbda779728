"""Divisible vs. non-divisible exercise: the clock-indexed formulation.

Shorted American options admit two readings of "the holder may
exercise": at one of the discrete times 0..T (non-divisible, a clock
vector t in {0..T}^n), or spread over times by nonnegative weights
summing to one (divisible, a point of the weight simplex product V^n).
This module prices against the clock-indexed formulation directly -
one strategy copy per clock vector, tied together by explicit
non-anticipativity equalities - and certifies that the divisible
reading changes nothing: the optimizer holds at every weight grid
point, so adding the grid's constraints to the LP could move no value.

The clock-indexed formulation is the enlarged space with every clock
revealed at time 0 (RevealedModel), so the one hedge driver of
``hedging`` prices it; the space lists the node pairs to tie and, with
a grid, the mixtures every hedge must also satisfy.  No LP writes a
mixture: hedging.check_hedge re-checks the ties and the mixtures, and
that check of the optimizer on the grid space is the certificate.
"""
from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

from .enlarged import EnlargedModel, enlarge, extend_claim
from .errors import PropertyViolation
from .hedging import check_hedge, detect_arbitrage, subhedge, subhedge_european, superhedge
from .market import MarketModel
from .rationals import ONE, ZERO, Q, rat_str
from .strategies import _mixture_weight, dirac_weights, indistinguishable_pairs

__all__ = [
    "EPS_GRID", "DivisibilityReport", "RevealedModel", "verify_divisibility_equivalence",
    "weight_grid",
]

# quote shifts swept by the no-arbitrage grid checks
EPS_GRID = tuple(Q(1, 2 ** k) for k in range(1, 9))


def weight_grid(n: int, horizon: int) -> list[tuple[tuple[Q, ...], ...]]:
    """Deterministic rational grid of exercise-weight vectors in V^n.

    All Dirac vectors, the all-uniform point, per-clock mixed points
    (one clock uniform, the rest at time 0), and an endpoint split.
    """
    times = range(horizon + 1)
    diracs = [
        tuple(tuple(dirac_weights(tvec, horizon)))
        for tvec in itertools.product(times, repeat=n)
    ]
    grid = [tuple(tuple(vec) for vec in point) for point in diracs]
    uni = tuple(Q(1, horizon + 1) for _ in times)
    grid.append(tuple(uni for _ in range(n)))
    zero_dirac = tuple(ONE if t == 0 else ZERO for t in times)
    for k in range(n):
        point = tuple(uni if kk == k else zero_dirac for kk in range(n))
        grid.append(point)
    if horizon >= 1:
        half = tuple(
            Q(1, 2) if t in (0, horizon) else ZERO for t in times
        )
        grid.append(tuple(half for _ in range(n)))
    seen = set()
    out = []
    for point in grid:
        if point not in seen:
            seen.add(point)
            out.append(point)
    return out


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
        index = self._enode_index
        self.tied_pairs = tuple(
            (index[(nid, s)], index[(nid, t)])
            for r in range(self.horizon)
            for s, t in indistinguishable_pairs(self.tuples, r)
            for nid in model.tree.nodes_at(r)
        )

    def status_at(self, clocks: tuple[int, ...], t: int) -> tuple[int, ...]:
        """Every node knows the whole clock vector."""
        return clocks

    def with_grid(self, grid: list[tuple[tuple[Q, ...], ...]]) -> "RevealedModel":
        """This space whose hedges must also hold at each grid point's mixture.

        A grid point mixes the clock vectors of each base path with the
        weights of independent exercise; Dirac points are paths already.
        """
        other = copy.copy(self)
        other.mixtures = tuple(
            {self.path_index(b, tvec): w for tvec in self.tuples
             if (w := _mixture_weight(point, tvec))}
            for point in grid if not all(max(vec) == ONE for vec in point)
            for b in range(len(self.model.tree.paths))
        )
        return other


@dataclass
class DivisibilityReport:
    """The agreed prices, the grid re-checks made and the (eps, NA) verdicts."""

    sub: Q
    super: Q
    european: Q
    lift_checks: int
    sna_grid: list[tuple[Q, bool]]


def verify_divisibility_equivalence(model: MarketModel) -> DivisibilityReport:
    """Clock-indexed vs enlarged-space prices, and divisible certification.

    Computes sub/super/European prices in the clock-indexed LP and on
    the enlarged space and asserts exact agreement.  Each optimizer must
    pass check_hedge on the grid space (with_grid), on every path and
    mixture, which decides the grid LP (the hedge LP plus a row sum_p w_p
    row_p >= sum_p w_p rhs_p per mixture) for a max or a min alike: it
    holds every row of the plain LP, so its optimum is no better, and the
    plain optimizer is feasible in it, so its optimum is no worse.  With
    weights w >= 0 the path rows imply every mixture row, so the check
    passes and no grid LP is solved.  No-arbitrage verdicts of the two
    formulations are compared at model.shifted_prices(eps) for every eps
    in EPS_GRID, the clock-indexed one without mixture rows, which leave
    its feasible set as it is; a witness is re-checked on the grid space.
    """
    if model.claim is None:
        raise ValueError("divisibility verification needs a claim")
    N = model.N
    T = model.tree.horizon
    grid_sub = weight_grid(N, T)
    grid_super = weight_grid(N + 1, T)
    rev_sub, rev_sup = RevealedModel(model, N), RevealedModel(model, N + 1)
    enl_sub = enlarge(model, N)
    # both spaces list their paths base path first, then clock vector
    psi = [model.claim.scalar(model.tree.paths[ep.base_index][T]) for ep in rev_sub.epaths]

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

    rev_grid, sup_grid = rev_sub.with_grid(grid_sub), rev_sup.with_grid(grid_super)
    zeros = [ZERO] * rev_grid.num_paths
    # Dirac grid points are the space's paths, the others its mixtures:
    # one check per grid point and base path
    checks = 0
    for space, report, rhs in ((rev_grid, sub, zeros),
                               (sup_grid, sup, extend_claim(sup_grid, "super")),
                               (rev_grid, euro, [-v for v in psi])):
        gains, _ = check_hedge(space, report.strategy, ONE if report.kind == "super" else -ONE,
                               report.price, rhs, exercise=report.exercise,
                               kind=f"{report.kind} grid")
        checks += len(gains) + len(space.mixtures)

    sna_rows: list[tuple[Q, bool]] = []
    for eps in EPS_GRID:
        shifted = model.shifted_prices(eps)
        arb = detect_arbitrage(rev_sub.with_model(shifted))
        if arb.found:
            check_hedge(rev_grid.with_model(shifted), arb.strategy, ONE, ZERO, zeros,
                        kind="arbitrage grid witness")
        if arb.found != detect_arbitrage(enl_sub.with_model(shifted)).found:
            raise PropertyViolation(
                f"no-arbitrage verdicts disagree at eps={rat_str(eps)}"
            )
        sna_rows.append((eps, not arb.found))

    return DivisibilityReport(sub=sub.price, super=sup.price, european=euro.price,
                              lift_checks=checks, sna_grid=sna_rows)
