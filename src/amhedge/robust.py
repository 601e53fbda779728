"""Model uncertainty: kernel families and quasi-sure hedging.

Uncertainty is a finite set of one-step transition laws (vertices) per
non-terminal node; the scenario class is every product of per-node
selections.  Quasi-sure statements reduce to statements on the union
of the selector supports, so every hedging problem stays an exact LP
over the supported enlarged paths and every dual runs over martingale
measures carried there.  Consistency is one LP as well: mixing the
measures that dominate each selector gives one measure strictly
positive on every supported path, so the quasi-sure FTAP is the
uniform-slack certificate of the classical one on the supported paths
(the finite, product-form case of Bouchard & Nutz, Ann. Appl. Probab.
25 (2015)).  No engine path enumerates selectors; the per-selector
sweep is the campaign's oracle.

The family is the market's own ``MarketModel.kernels``; everything here
reads it off the space or market it is given, checked by
check_kernel_family each time.  supported_space is the one place the
quasi-sure restriction is taken: the space cut to its supported paths
(EnlargedModel.restricted).  Quasi-sure prices and the quasi-sure FTAP
are measures.price_with_dual and ftap_certificate on that space, and
the backward induction is measures.dp_superhedge on it.  An enlarged
space does not depend on the kernels, so another family on the same
space is ``enl.with_model(dataclasses.replace(model, kernels=...))``.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .enlarged import EnlargedModel, enlarge
from .errors import CapExceededError, ModelFormatError, PropertyViolation
from .hedging import ArbitrageReport, detect_arbitrage
from .lp import LinearProgram, solve
from .market import EventTree, MarketModel, check_kernel_family
from .measures import (
    MeasureCertificate,
    MeasurePolytope,
    build_polytope,
    ftap_certificate,
    snell_value,
)
from .rationals import ONE, ZERO, Q, rat_str
from .strategies import enlarged_stopping_times

DEFAULT_SELECTOR_CAP = 4096


def kernel_family(model: MarketModel) -> dict[str, list[tuple[Q, ...]]]:
    """The market's kernel family in node order (time, then id), every vertex set checked."""
    tree = model.tree
    if model.kernels is None:
        raise ModelFormatError("no kernel family given")
    internal = sorted((nid for nid in tree.nodes if tree.children[nid]),
                      key=lambda nid: (tree.nodes[nid].time, nid))
    for nid in internal:
        check_kernel_family(tree, nid, model.kernels.get(nid, []))
    return {nid: model.kernels[nid] for nid in internal}


def supported_paths(enl: EnlargedModel) -> list[int]:
    """Enlarged paths whose base path runs along charged edges only.

    Every vertex is a distribution, so the support always holds a
    complete path; clocks do not matter.
    """
    kids = enl.model.tree.children
    edges = {(nid, kid) for nid, vertices in kernel_family(enl.model).items()
             for vec in vertices for kid, w in zip(kids[nid], vec) if w > 0}
    keep = {idx for idx, path in enumerate(enl.model.tree.paths)
            if all(edge in edges for edge in zip(path, path[1:]))}
    return [p for p, ep in enumerate(enl.epaths) if ep.base_index in keep]


def supported_space(enl: EnlargedModel) -> EnlargedModel:
    """The quasi-sure space: enl restricted to its supported paths, or enl
    itself where the kernels charge every path."""
    paths = supported_paths(enl)
    return enl if len(paths) == enl.num_paths else enl.restricted(paths)


def num_selectors(model: MarketModel) -> int:
    return math.prod(len(vertices) for vertices in kernel_family(model).values())


def selectors(model: MarketModel) -> list[tuple[int, ...]]:
    """Every choice of one vertex per node, in node order."""
    total = num_selectors(model)
    if total > DEFAULT_SELECTOR_CAP:
        raise CapExceededError("kernel selectors", total, DEFAULT_SELECTOR_CAP)
    return list(itertools.product(*(range(len(v)) for v in kernel_family(model).values())))


def product_measure(tree: EventTree, laws: dict[str, dict[str, Q]]) -> dict[int, Q]:
    """Base-path probabilities of per-node one-step laws (child -> mass); zeros dropped."""
    out: dict[int, Q] = {}
    for pi, path in enumerate(tree.paths):
        q = ONE
        for a, b in zip(path, path[1:]):
            q *= laws[a].get(b, ZERO)
        if q:
            out[pi] = q
    return out


def vertex_measure(enl: EnlargedModel, selector: tuple[int, ...]) -> dict[int, Q]:
    """Selector product measure spread uniformly over the clocks."""
    kids = enl.model.tree.children
    laws = {nid: dict(zip(kids[nid], vertices[i]))
            for (nid, vertices), i in zip(kernel_family(enl.model).items(), selector)}
    base = product_measure(enl.model.tree, laws)
    return {p: base[ep.base_index] * enl.clock_dist[ep.clocks]
            for p, ep in enumerate(enl.epaths) if ep.base_index in base}


def drop_options(model: MarketModel, *, europeans: bool = False) -> MarketModel:
    """The same kernels and claim with the option books dropped.

    With ``europeans`` the European book stays.  Without shorted
    Americans only the claim's clock is left, so the hedges of this
    market run on its n = 0 and n = 1 enlargements.
    """
    return dataclasses.replace(
        model,
        europeans=list(model.europeans) if europeans else [],
        americans_long=[],
        americans_short=[],
    )


# -- no-arbitrage under uncertainty ------------------------------------------


def robust_na(enl: EnlargedModel) -> tuple[ArbitrageReport, MeasureCertificate]:
    """No-arbitrage from dynamic trading alone, with its dual certificate.

    Both sides run on the supported space of the stock-only market's
    n = 0 space: clocks do not matter to a stock hedge (a stock arbitrage
    on a space with clocks stays one with every clock fixed at T), and a
    base-path measure lifts uniformly over clocks.  Primal:
    detect_arbitrage, its witness keyed by that space's nodes.
    Certificate: a martingale measure strictly positive on every
    supported path, the positive uniform slack of that market's
    MeasurePolytope, which has no price rows.  The biconditional (no
    arbitrage found iff the certificate holds) is enforced.
    """
    stock = supported_space(enlarge(drop_options(enl.model), 0))
    arb = detect_arbitrage(stock)
    cert = ftap_certificate(MeasurePolytope(stock))
    if arb.found == cert.holds:
        raise PropertyViolation(
            "primal no-arbitrage verdict disagrees with the supported martingale measure"
        )
    return arb, cert


# -- pricing consistency ------------------------------------------------------


def submarket_slacks(enl: EnlargedModel, full: MeasureCertificate) -> list[Q | None]:
    """Slacks for the markets holding only the first m long options each.

    ``full`` is the quasi-sure certificate on enl (ftap_certificate on its
    supported space); its slack is the entry m = M, and each smaller
    market solves its own uniform-slack LP on that space.
    Adding one more long option only shrinks the feasible set, so the
    slack sequence must be nonincreasing; asserted here.
    """
    model = enl.model
    space = supported_space(enl)
    slacks: list[Q | None] = []
    for m in range(model.M):
        sub_model = dataclasses.replace(model, americans_long=model.americans_long[:m])
        sub_pt = build_polytope(space.with_model(sub_model))
        slacks.append(ftap_certificate(sub_pt).slack)
    slacks.append(full.slack)
    for prev, cur in zip(slacks, slacks[1:]):
        if cur is not None and (prev is None or cur > prev):
            raise PropertyViolation("sub-market slack grew after adding an option")
    return slacks


def ftap_transfer(
    pt_low: MeasurePolytope, pt_high: MeasurePolytope
) -> tuple[MeasureCertificate, MeasureCertificate]:
    """Pricing consistency transfers between the two enlargement depths.

    pt_low and pt_high are the supported polytopes of the n = N space, N
    the number of short options, and of the space with one extra clock.
    The verdicts of ftap_certificate on both must match; both are
    returned.
    """
    model = pt_low.enl.model
    if (pt_low.enl.n, pt_high.enl.n) != (model.N, model.N + 1):
        raise ValueError("ftap_transfer needs the n = N and n = N + 1 spaces")
    low, high = ftap_certificate(pt_low), ftap_certificate(pt_high)
    if low.holds != high.holds:
        raise PropertyViolation("pricing consistency verdict changed with the extra clock")
    return low, high


# -- direct check of the liquidation/measure interchange ----------------------


@dataclass
class MinimaxReport:
    value: Q
    num_taus: int


def verify_minimax(
    enl: EnlargedModel,
    streams: Sequence[dict[int, Q]],
    vertices: Sequence[dict[int, Q]],
) -> MinimaxReport:
    """Exchange of liquidation and worst-case expectation, checked exactly.

    Three quantities over a finitely generated measure set, on enl
    restricted to the paths the vertices charge: the best
    guaranteed liquidation value (an LP), the worst case of the best
    adapted liquidation, and the worst case of the best pure-stopping
    tuple (an LP over the enumerated stopping times).  The second is the
    LP dual of the first: minus the verified duals of its vertex rows are
    a worst-case mixture lambda, checked to be a distribution, and at
    lambda the best adapted liquidation is the sum over streams of their
    Snell values, folded back by snell_value without an LP.  That sum is
    at most the first value by weak duality and at least it for every
    mixture, so exact triple equality proves the interchange.
    """
    if not vertices or not streams:
        raise ModelFormatError("need at least one stream and one measure vertex")
    paths = sorted({p for R in vertices for p in R if R[p]})
    if not paths:
        raise ModelFormatError("measure vertices are all zero")
    space = enl.restricted(paths)
    # each vertex keyed by the restricted space's path indices
    vertices = [{i: R[p] for i, p in enumerate(paths) if R.get(p)} for R in vertices]
    K = len(streams)
    through = space.through
    reach = [{v: sum((R.get(p, ZERO) for p in ps), ZERO) for v, ps in through.items()}
             for R in vertices]
    values = [{v: g.get(v, ZERO) for v in through} for g in streams]

    # best guaranteed value of an adapted liquidation of each stream
    lhs_lp = LinearProgram()
    u = lhs_lp.add_var("u", nonneg=False)
    mu = {(k, v): lhs_lp.add_var(f"mu[{k};{v}]") for k in range(K) for v in through}
    vertex_rows = []
    for i in range(len(vertices)):
        row = {u: -ONE}
        for k in range(K):
            for v in through:
                coef = values[k][v] * reach[i][v]
                if coef:
                    row[mu[(k, v)]] = row.get(mu[(k, v)], ZERO) + coef
        vertex_rows.append(lhs_lp.add_constraint(row, ">=", ZERO, name=f"vertex[{i}]"))
    for k in range(K):
        for p, ep in enumerate(space.epaths):
            # one node per date on a path, so each mu enters once
            row = {mu[(k, v)]: 1 for v in ep.node_seq}
            lhs_lp.add_constraint(row, "=", 1, name=f"unit[{k};p{p}]", den=1)
    lhs_lp.set_objective("max", {u: ONE})
    lhs_out = solve(lhs_lp)
    if lhs_out.status != "optimal":
        raise PropertyViolation(f"guaranteed-liquidation LP unexpectedly {lhs_out.status}")

    # worst-case mixture against the best liquidation, read off the duals
    lam = [-lhs_out.duals[r] for r in vertex_rows]
    if any(w < ZERO for w in lam) or sum(lam, ZERO) != ONE:
        raise PropertyViolation("duals of the vertex rows are not a mixture")
    mixture = {p: sum((w * R.get(p, ZERO) for w, R in zip(lam, vertices)), ZERO)
               for p in range(space.num_paths)}
    middle = sum((snell_value(space, g, mixture) for g in values), ZERO)

    # worst-case mixture against the best pure stopping tuple
    taus = enlarged_stopping_times(space)
    rhs_lp = LinearProgram()
    lam2 = [rhs_lp.add_var(f"lam[{i}]") for i in range(len(vertices))]
    rhs_lp.add_constraint(dict.fromkeys(lam2, 1), "=", 1, name="simplex", den=1)
    u_k = [rhs_lp.add_var(f"u[{k}]", nonneg=False) for k in range(K)]
    for k in range(K):
        seen: set[tuple[Q, ...]] = set()
        for tau in taus:
            stopped = [values[k][ep.node_seq[tau.time_on(ep.node_seq)]] for ep in space.epaths]
            coefs = tuple(
                sum((q * stopped[p] for p, q in R.items()), ZERO) for R in vertices
            )
            if coefs in seen:
                continue
            seen.add(coefs)
            row = {u_k[k]: ONE}
            for i, coef in enumerate(coefs):
                if coef:
                    row[lam2[i]] = row.get(lam2[i], ZERO) - coef
            rhs_lp.add_constraint(row, ">=", ZERO, name=f"stop[{k};#{len(seen)}]")
    rhs_lp.set_objective("min", {var: ONE for var in u_k})
    rhs_out = solve(rhs_lp)
    if rhs_out.status != "optimal":
        raise PropertyViolation(f"worst-case stopping LP unexpectedly {rhs_out.status}")

    if not (lhs_out.value == middle == rhs_out.value):
        raise PropertyViolation(
            "liquidation interchange failed: "
            f"{rat_str(lhs_out.value)}, {rat_str(middle)}, {rat_str(rhs_out.value)}"
        )
    return MinimaxReport(value=lhs_out.value, num_taus=len(taus))
