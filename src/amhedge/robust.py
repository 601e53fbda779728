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
"""
from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .enlarged import EnlargedModel, enlarge
from .errors import CapExceededError, ModelFormatError, PropertyViolation, SnaFailure
from .hedging import HedgeReport, detect_arbitrage, enlarged_reading, evaluate_gain
from .lp import LinearProgram, solve
from .market import MarketModel, check_kernel_family
from .measures import (
    MartingalePolytope,
    MeasureCertificate,
    MeasurePolytope,
    build_polytope,
    ftap_certificate,
    one_step_polytope,
    price_with_dual,
    restricted_stopping_times,
)
from .rationals import ONE, ZERO, Q, rat, rat_str
from .strategies import DEFAULT_ENUM_CAP

DEFAULT_SELECTOR_CAP = 4096


@dataclass
class RobustModel:
    """A market plus per-node vertex sets of one-step transition laws."""

    model: MarketModel
    kernels: dict[str, list[tuple[Q, ...]]]
    node_order: list[str] = field(init=False)
    supported_edges: set[tuple[str, str]] = field(init=False)
    supported_base_paths: list[int] = field(init=False)

    def __post_init__(self) -> None:
        tree = self.model.tree
        internal = [nid for nid in tree.nodes if tree.children[nid]]
        for nid in internal:
            check_kernel_family(tree, nid, self.kernels.get(nid, []))
        self.node_order = sorted(internal, key=lambda nid: (tree.nodes[nid].time, nid))
        self.supported_edges = set()
        for nid in internal:
            kids = tree.children[nid]
            for vec in self.kernels[nid]:
                for kid, w in zip(kids, vec):
                    if w > 0:
                        self.supported_edges.add((nid, kid))
        self.supported_base_paths = []
        for idx, path in enumerate(tree.paths):
            if all((path[t], path[t + 1]) in self.supported_edges for t in range(len(path) - 1)):
                self.supported_base_paths.append(idx)
        if not self.supported_base_paths:
            raise ModelFormatError("kernel family supports no complete path")

    def num_selectors(self) -> int:
        total = 1
        for nid in self.node_order:
            total *= len(self.kernels[nid])
        return total

    def selectors(self) -> list[tuple[int, ...]]:
        total = self.num_selectors()
        if total > DEFAULT_SELECTOR_CAP:
            raise CapExceededError("kernel selectors", total, DEFAULT_SELECTOR_CAP)
        ranges = [range(len(self.kernels[nid])) for nid in self.node_order]
        return list(itertools.product(*ranges))

    def selector_base_measure(self, selector: tuple[int, ...]) -> dict[int, Q]:
        """Base-path probabilities of one product of kernel vertices."""
        tree = self.model.tree
        pick = {nid: self.kernels[nid][selector[i]] for i, nid in enumerate(self.node_order)}
        out: dict[int, Q] = {}
        for idx, path in enumerate(tree.paths):
            w = ONE
            for t in range(len(path) - 1):
                kids = tree.children[path[t]]
                w *= pick[path[t]][kids.index(path[t + 1])]
                if not w:
                    break
            if w:
                out[idx] = w
        return out

    def supported_children(self, nid: str) -> list[str]:
        return [kid for kid in self.model.tree.children[nid] if (nid, kid) in self.supported_edges]


def build_robust(model: MarketModel, kernels: dict | None = None) -> RobustModel:
    """Validate a kernel family (default: the model's own) into a RobustModel."""
    source = kernels if kernels is not None else model.kernels
    if source is None:
        raise ModelFormatError("no kernel family given")
    normalized = {
        nid: [tuple(rat(w) for w in vec) for vec in vertices]
        for nid, vertices in source.items()
    }
    return RobustModel(model=model, kernels=normalized)


def drop_options(rm: RobustModel, *, europeans: bool = False) -> RobustModel:
    """The same kernels and claim with the option books dropped.

    With ``europeans`` the European book stays.  Without shorted
    Americans only the claim's clock is left, so the hedges of this
    market run on its n = 0 and n = 1 enlargements.
    """
    model = dataclasses.replace(
        rm.model,
        europeans=list(rm.model.europeans) if europeans else [],
        americans_long=[],
        americans_short=[],
    )
    return RobustModel(model=model, kernels=rm.kernels)


@dataclass
class RobustEnlarged:
    """An enlarged space together with its quasi-sure support."""

    robust: RobustModel
    enl: EnlargedModel
    supported_paths: list[int] = field(init=False)

    def __post_init__(self) -> None:
        keep = set(self.robust.supported_base_paths)
        self.supported_paths = [
            p for p in range(self.enl.num_paths) if self.enl.epaths[p].base_index in keep
        ]

    def vertex_measure(self, selector: tuple[int, ...]) -> dict[int, Q]:
        """Selector product measure spread over clocks by the clock weights."""
        base = self.robust.selector_base_measure(selector)
        out: dict[int, Q] = {}
        for p in self.supported_paths:
            ep = self.enl.epaths[p]
            w = base.get(ep.base_index, ZERO)
            if w:
                out[p] = w * self.enl.clock_dist[ep.clocks]
        return out

    def supported_enodes(self) -> list[int]:
        seen: set[int] = set()
        for p in self.supported_paths:
            seen.update(self.enl.epaths[p].node_seq)
        return sorted(seen)


def enlarge_robust(rm: RobustModel, n: int) -> RobustEnlarged:
    return RobustEnlarged(robust=rm, enl=enlarge(rm.model, n))


# -- no-arbitrage under uncertainty ------------------------------------------


@dataclass
class RobustNaReport:
    holds: bool
    gain: Q
    witness: dict[tuple[int, int], Q] | None
    certificate: MeasureCertificate


def robust_na(renl: RobustEnlarged) -> RobustNaReport:
    """No-arbitrage from dynamic trading alone, with its dual certificate.

    Primal: detect_arbitrage on the supported paths of the stock-only
    market's n = 0 space (a stock arbitrage on a space with clocks stays
    one with every clock fixed at T); the witness is keyed by that
    space's nodes.  Certificate side: a martingale measure strictly
    positive on every supported path, i.e. positive uniform slack of a
    polytope without price rows.  Both sides are computed and the
    biconditional enforced.
    """
    stock = enlarge_robust(drop_options(renl.robust), 0)
    arb = detect_arbitrage(stock.enl, paths=stock.supported_paths)
    holds = not arb.found
    witness = None if holds else arb.strategy.stock
    positive, certificate = ftap_certificate(MartingalePolytope(renl.enl, renl.supported_paths))
    if holds != positive:
        raise PropertyViolation(
            "primal no-arbitrage verdict disagrees with the supported martingale measure"
        )
    return RobustNaReport(holds=holds, gain=arb.gain, witness=witness, certificate=certificate)


# -- backward dynamic programming ---------------------------------------------


@dataclass
class DpStage:
    """One backward step: values and hedge ratios on time-t nodes."""

    values: dict[int, Q]
    strategy: dict[tuple[int, int], Q]
    infeasible: list[int]
    lp_count: int


def _group_children(renl: RobustEnlarged, v: int) -> dict[str, list[int]]:
    """Supported enlarged children of v grouped by base child node."""
    enl = renl.enl
    node = enl.enode(v)
    groups: dict[str, list[int]] = {c: [] for c in renl.robust.supported_children(node.base)}
    for w in enl.children.get(v, ()):
        base = enl.enode(w).base
        if base in groups:
            groups[base].append(w)
    return groups


def dp_operator(renl: RobustEnlarged, chi: dict[int, Q], t: int) -> DpStage:
    """One-step value: best dominated martingale expectation per node.

    At each supported time-t node the measure splits over base children
    under the one-step martingale constraint while every unexercised
    clock branches freely, so clock directions enter through a plain
    maximum over status successors and the base direction through a
    small LP whose duals are the hedge ratios.
    """
    enl = renl.enl
    stock = enl.model.stock
    values: dict[int, Q] = {}
    strategy: dict[tuple[int, int], Q] = {}
    infeasible: list[int] = []
    lp_count = 0
    nodes = [v for v in renl.supported_enodes() if enl.enode(v).time == t]
    for v in nodes:
        node = enl.enode(v)
        here = stock.at(node.base)
        groups = _group_children(renl, v)
        best: dict[str, Q] = {}
        for c, enodes in groups.items():
            if not enodes:
                raise PropertyViolation(f"missing status successors under {node.label}")
            best[c] = max(chi[w] for w in enodes)
        lp, q_var, mart_rows = one_step_polytope(enl.model, node.base, list(groups))
        lp.set_objective("max", {q_var[c]: best[c] for c in groups if best[c]})
        out = solve(lp)
        lp_count += 1
        if out.status == "infeasible":
            infeasible.append(v)
            continue
        if out.status != "optimal":
            raise PropertyViolation(f"stage LP unexpectedly {out.status} at {node.label}")
        values[v] = out.value
        # verified duals of a max LP satisfy A^T y >= c, and the mass row's
        # dual is the value, so value + H . step >= best[c] with H the
        # duals of the mart rows; checked again here exactly
        ratios = {d: out.duals[r] for r, _, d in mart_rows}
        for c in groups:
            gain = sum((h * (stock.at(c)[d] - here[d]) for d, h in ratios.items()), ZERO)
            if out.value + gain < best[c]:
                raise PropertyViolation(f"stage duals do not cover successors at {node.label}")
        strategy.update(((v, d), h) for d, h in ratios.items() if h)
    return DpStage(values=values, strategy=strategy, infeasible=infeasible, lp_count=lp_count)


@dataclass
class DpReport:
    value: Q
    root_values: dict[int, Q]
    strategy: dict[tuple[int, int], Q]
    lp_count: int


def dp_superhedge(renl: RobustEnlarged, zeta: Sequence[Q] | dict[int, Q]) -> DpReport:
    """Backward induction of the one-step operator from a terminal payoff.

    The terminal payoff zeta[p] is read on every supported path p;
    paths and terminal nodes are in bijection because every clock is
    revealed by the horizon.  The folded value is the quasi-sure stock
    super-hedging price and the per-node hedge ratios telescope
    pathwise, which is verified exactly.
    """
    enl = renl.enl
    T = enl.horizon
    chi: dict[int, Q] = {}
    for p in renl.supported_paths:
        v = enl.epaths[p].node_seq[T]
        val = zeta[p]
        if v in chi and chi[v] != val:
            raise PropertyViolation("terminal payoff is not a function of the terminal node")
        chi[v] = val
    strategy: dict[tuple[int, int], Q] = {}
    lp_count = 0
    for t in range(T - 1, -1, -1):
        stage = dp_operator(renl, chi, t)
        if stage.infeasible:
            labels = [enl.enode(v).label for v in stage.infeasible]
            raise SnaFailure(
                "no one-step martingale measure at some nodes (local arbitrage)",
                certificate={"nodes": labels},
            )
        strategy.update(stage.strategy)
        lp_count += stage.lp_count
        chi = stage.values
    roots = sorted({enl.epaths[p].node_seq[0] for p in renl.supported_paths})
    root_values = {r: chi[r] for r in roots}
    value = max(root_values.values())
    for p in renl.supported_paths:
        gain = evaluate_gain(enl.model, *enlarged_reading(enl, strategy, p))
        if value + gain < zeta[p]:
            raise PropertyViolation("dp strategy fails to super-hedge pathwise")
    return DpReport(value=value, root_values=root_values, strategy=strategy, lp_count=lp_count)


# -- quasi-sure prices and pricing consistency ---------------------------------


def quasi_sure_price(renl: RobustEnlarged, side: str) -> HedgeReport:
    """The classical price and its dual, restricted to the supported paths."""
    return price_with_dual(renl.enl, side, paths=renl.supported_paths)[0]


def robust_ftap(renl: RobustEnlarged) -> tuple[bool, MeasureCertificate]:
    """Uniform-slack pricing consistency on the supported paths.

    Holds iff one martingale measure is strictly positive on every
    supported path and clears every price bound strictly.  Such a
    measure dominates every selector product measure; conversely the
    measures dominating each selector mix into one.  So this one LP
    decides what a sweep over the kernel selectors would, and the
    certificate's slack is its uniform slack.
    """
    return ftap_certificate(build_polytope(renl.enl, paths=renl.supported_paths))


def submarket_slacks(renl: RobustEnlarged, full: MeasureCertificate) -> list[Q | None]:
    """Slacks for the markets holding only the first m long options each.

    ``full`` is robust_ftap's certificate on renl; its slack is the entry
    m = M, and each smaller market solves its own uniform-slack LP.
    Adding one more long option only shrinks the feasible set, so the
    slack sequence must be nonincreasing; asserted here.
    """
    model = renl.enl.model
    slacks: list[Q | None] = []
    for m in range(model.M):
        sub_model = dataclasses.replace(model, americans_long=model.americans_long[:m])
        sub_pt = build_polytope(renl.enl.with_model(sub_model), paths=renl.supported_paths)
        slacks.append(ftap_certificate(sub_pt)[1].slack)
    slacks.append(full.slack)
    for prev, cur in zip(slacks, slacks[1:]):
        if cur is not None and (prev is None or cur > prev):
            raise PropertyViolation("sub-market slack grew after adding an option")
    return slacks


def ftap_transfer(
    pt_low: MeasurePolytope, pt_high: MeasurePolytope
) -> tuple[tuple[bool, MeasureCertificate], tuple[bool, MeasureCertificate]]:
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
    if low[0] != high[0]:
        raise PropertyViolation("pricing consistency verdict changed with the extra clock")
    return low, high


# -- direct check of the liquidation/measure interchange ----------------------


@dataclass
class MinimaxReport:
    value: Q
    lhs: Q
    middle: Q
    rhs: Q
    num_streams: int
    num_vertices: int
    num_taus: int


def verify_minimax(
    renl: RobustEnlarged,
    streams: Sequence[dict[int, Q]],
    vertices: Sequence[dict[int, Q]],
    *,
    cap: int = DEFAULT_ENUM_CAP,
) -> MinimaxReport:
    """Exchange of liquidation and worst-case expectation, checked exactly.

    Three quantities over a finitely generated measure set: the best
    guaranteed liquidation value, the worst case of the best adapted
    liquidation, and the worst case of the best pure-stopping tuple.
    All three are computed by independent LPs and exact triple equality
    is asserted.
    """
    enl = renl.enl
    if not vertices or not streams:
        raise ModelFormatError("need at least one stream and one measure vertex")
    paths = sorted({p for R in vertices for p in R if R[p]})
    if not paths:
        raise ModelFormatError("measure vertices are all zero")
    K = len(streams)
    nodes = sorted({v for p in paths for v in enl.epaths[p].node_seq})
    reach = [
        {
            v: sum((R.get(p, ZERO) for p in paths if v in enl.epaths[p].node_seq), ZERO)
            for v in nodes
        }
        for R in vertices
    ]

    def gval(k: int, v: int) -> Q:
        return streams[k].get(v, ZERO)

    # best guaranteed value of an adapted liquidation of each stream
    lhs_lp = LinearProgram()
    u = lhs_lp.add_var("u", nonneg=False)
    mu = {(k, v): lhs_lp.add_var(f"mu[{k};{v}]") for k in range(K) for v in nodes}
    for i in range(len(vertices)):
        row = {u: -ONE}
        for k in range(K):
            for v in nodes:
                coef = gval(k, v) * reach[i][v]
                if coef:
                    row[mu[(k, v)]] = row.get(mu[(k, v)], ZERO) + coef
        lhs_lp.add_constraint(row, ">=", ZERO, name=f"vertex[{i}]")
    for k in range(K):
        for p in paths:
            row = {}
            for v in enl.epaths[p].node_seq:
                row[mu[(k, v)]] = row.get(mu[(k, v)], ZERO) + ONE
            lhs_lp.add_constraint(row, "=", ONE, name=f"unit[{k};p{p}]")
    lhs_lp.set_objective("max", {u: ONE})
    lhs_out = solve(lhs_lp)
    if lhs_out.status != "optimal":
        raise PropertyViolation(f"guaranteed-liquidation LP unexpectedly {lhs_out.status}")

    # worst-case mixture against the best liquidation, solved jointly
    mid_lp = LinearProgram()
    lam = [mid_lp.add_var(f"lam[{i}]") for i in range(len(vertices))]
    mid_lp.add_constraint({var: ONE for var in lam}, "=", ONE, name="simplex")
    y = {(k, p): mid_lp.add_var(f"y[{k};p{p}]", nonneg=False) for k in range(K) for p in paths}
    for k in range(K):
        for v in nodes:
            row: dict[int, Q] = {}
            for p in paths:
                if v in enl.epaths[p].node_seq:
                    row[y[(k, p)]] = row.get(y[(k, p)], ZERO) + ONE
            for i in range(len(vertices)):
                coef = gval(k, v) * reach[i][v]
                if coef:
                    row[lam[i]] = row.get(lam[i], ZERO) - coef
            mid_lp.add_constraint(row, ">=", ZERO, name=f"cover[{k};{enl.enode(v).label}]")
    mid_lp.set_objective("min", {var: ONE for var in y.values()})
    mid_out = solve(mid_lp)
    if mid_out.status != "optimal":
        raise PropertyViolation(f"worst-case liquidation LP unexpectedly {mid_out.status}")

    # worst-case mixture against the best pure stopping tuple
    taus = restricted_stopping_times(enl, paths, cap)
    rhs_lp = LinearProgram()
    lam2 = [rhs_lp.add_var(f"lam[{i}]") for i in range(len(vertices))]
    rhs_lp.add_constraint({var: ONE for var in lam2}, "=", ONE, name="simplex")
    u_k = [rhs_lp.add_var(f"u[{k}]", nonneg=False) for k in range(K)]
    for k in range(K):
        seen: set[tuple[Q, ...]] = set()
        for tau in taus:
            stopped = {}
            for p in paths:
                seq = enl.epaths[p].node_seq
                stopped[p] = gval(k, seq[tau.time_on(seq)])
            coefs = tuple(
                sum((R.get(p, ZERO) * stopped[p] for p in paths), ZERO) for R in vertices
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

    if not (lhs_out.value == mid_out.value == rhs_out.value):
        raise PropertyViolation(
            "liquidation interchange failed: "
            f"{rat_str(lhs_out.value)}, {rat_str(mid_out.value)}, {rat_str(rhs_out.value)}"
        )
    return MinimaxReport(
        value=lhs_out.value,
        lhs=lhs_out.value,
        middle=mid_out.value,
        rhs=rhs_out.value,
        num_streams=K,
        num_vertices=len(vertices),
        num_taus=len(taus),
    )
