"""The oracles: independent checks of what ``price`` and ``ftap`` compute.

No request runs this module; ``verify`` (campaign) and the tests do.
Each check computes an engine result a second way and raises
PropertyViolation where the two disagree:

- dp_superhedge: one-step LPs folded back over the forest, against the
  stock super-hedging price of measures.price_with_dual;
- check_sna: the uniform-slack certificate against the arbitrage LP
  (hedging.detect_arbitrage) at quotes moved by half the slack;
- e2_chain: sub price <= sup_Q sup_tau <= super price, by enumerated
  stopping times;
- the lift, the push and the strict bracket: a certificate measure
  carried onto the space with one more clock, re-checked in its polytope;
- robust_na, submarket_slacks, ftap_transfer and verify_minimax: the
  quasi-sure verdicts against the arbitrage LP, smaller books and the
  extra clock, and the liquidation/measure interchange.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .enlarged import EnlargedModel, enlarge, extend_claim
from .errors import CapExceededError, ModelFormatError, PropertyViolation, SnaFailure
from .hedging import ArbitrageReport, SemiStaticStrategy, check_hedge, detect_arbitrage
from .lp import LinearProgram, LPOutcome, solve
from .market import EventTree, MarketModel
from .measures import (
    MeasureCertificate,
    MeasurePolytope,
    add_martingale_rows,
    build_polytope,
    ftap_certificate,
    snell_value,
)
from .rationals import ONE, ZERO, Q, over_common, rat_str
from .robust import kernel_family, num_selectors, supported_space
from .strategies import StoppingTime, enlarged_stopping_times

DEFAULT_SELECTOR_CAP = 4096

# mixture weights 1/2, 1/4, ... tried by the strict-interior line searches
_HALVINGS = 12


def one_step_polytope(
    model: MarketModel, nid: str, kids: Sequence[str]
) -> tuple[LinearProgram, dict[str, int], list[tuple[int, str, int]]]:
    """Mass and martingale rows of one-step laws from base node nid onto kids.

    Returns the LP, the probability variable of each child, and the
    (row index, node, stock dim) of every martingale row.
    """
    lp = LinearProgram()
    q_var = {kid: lp.add_var(f"q[{kid}]") for kid in kids}
    lp.add_constraint(dict.fromkeys(q_var.values(), 1), "=", 1, name="mass", den=1)
    steps, den = model.base_steps()
    moves = ((var, nid, steps[kid]) for kid, var in q_var.items())
    return lp, q_var, add_martingale_rows(lp, moves, den, str)


class DpReport(NamedTuple):
    value: Q
    strategy: dict[tuple[int, int], Q]
    lp_count: int


def _one_step_hedge(
    model: MarketModel, nid: str, succ: tuple[tuple[str, Q], ...]
) -> tuple[Q, dict[int, Q]]:
    """Best one-step martingale expectation of (child, value) pairs from
    base node nid, with its hedge ratios; SnaFailure if no law exists.

    Verified duals of a max LP satisfy A^T y >= c, and the mass row's
    dual is the value, so value + H . step >= the value of each child,
    H the duals of the mart rows; checked again here exactly.
    """
    lp, q_var, mart_rows = one_step_polytope(model, nid, [c for c, _ in succ])
    lp.set_objective("max", {q_var[c]: val for c, val in succ if val})
    out = solve(lp)
    if out.status == "infeasible":
        raise SnaFailure(f"no one-step martingale law at {nid} (local arbitrage)")
    if out.status != "optimal":
        raise PropertyViolation(f"one-step LP unexpectedly {out.status} at {nid}")
    ratios = out.mult.nonzero({d: r for r, _, d in mart_rows})
    here = model.stock[nid]
    for c, val in succ:
        gain = sum((h * (model.stock[c][d] - here[d]) for d, h in ratios.items()), ZERO)
        if out.value + gain < val:
            raise PropertyViolation(f"one-step duals do not cover {c} from {nid}")
    return out.value, ratios


def dp_superhedge(enl: EnlargedModel, zeta: Sequence[Q] | dict[int, Q]) -> DpReport:
    """Backward induction of one-step LPs from a terminal payoff.

    The induction runs over the space's forest (a kernel family's
    supported space gives its quasi-sure forest), and zeta[p] is read on
    each path; paths and terminal nodes are in bijection because every
    clock is revealed by the horizon.  At each
    node the measure splits over base children under the one-step
    martingale constraint while every unexercised clock branches freely,
    so clock directions enter through a plain maximum over status
    successors and the base direction through one_step_polytope, whose
    duals are the hedge ratios.  That LP depends only on the base node
    and the successor values, so each distinct one is solved once and
    ``lp_count`` counts them.  The folded value is the stock
    super-hedging price on the space; the per-node hedge ratios
    telescope pathwise, which check_hedge verifies on every path.
    """
    T = enl.horizon
    kids = enl.children
    chi: dict[int, Q] = {}
    for p, ep in enumerate(enl.epaths):
        if chi.setdefault(ep.node_seq[T], zeta[p]) != zeta[p]:
            raise PropertyViolation("terminal payoff is not a function of the terminal node")
    solved: dict[tuple, tuple[Q, dict[int, Q]]] = {}
    strategy: dict[tuple[int, int], Q] = {}
    for v in sorted((v for v in kids if kids[v]), key=lambda v: (-enl.enode(v).time, v)):
        base = enl.enode(v).base
        best: dict[str, Q] = {}
        for w in kids[v]:
            c = enl.enode(w).base
            best[c] = max(best.get(c, chi[w]), chi[w])
        key = (base, tuple((c, best[c]) for c in enl.model.tree.children[base] if c in best))
        if key not in solved:
            solved[key] = _one_step_hedge(enl.model, *key)
        chi[v], ratios = solved[key]
        strategy.update(((v, d), h) for d, h in ratios.items() if h)
    value = max(chi[r] for r in enl.roots)
    model = enl.model
    stock_only = SemiStaticStrategy(
        stock=strategy, long_european=[ZERO] * model.L, long_american=[ZERO] * model.M,
        short_american=[ZERO] * model.N, liquidation=[{} for _ in range(model.M)])
    check_hedge(enl, stock_only, ONE, value, zeta, kind="dp")
    return DpReport(value=value, strategy=strategy, lp_count=len(solved))


def solve_measure(pt: MeasurePolytope, work: LinearProgram) -> tuple[LPOutcome, dict[int, Q]]:
    """Solve an LP built on a copy of pt's (MeasurePolytope.extremum_lp or
    envelope_lp) and read its measure off; empty means an SNA failure."""
    out = solve(work)
    if out.status == "infeasible":
        raise SnaFailure("martingale polytope is empty at these prices")
    if out.status != "optimal":
        raise PropertyViolation(f"measure LP unexpectedly {out.status}")
    return out, out.point.nonzero(pt.q_var)


def check_sna(pt: MeasurePolytope) -> MeasureCertificate:
    """Strict no-arbitrage verdict with dual witness and primal cross-check.

    pt is the MeasurePolytope of the market's space, and the verdict is
    its ftap_certificate at the model's quotes.  When it holds, quotes
    moved by s*/2 in the trader's favour must still admit no arbitrage
    (verified primally).
    """
    enl = pt.enl
    cert = ftap_certificate(pt)
    if cert.holds:
        shifted = enl.with_model(enl.model.shifted_prices(cert.slack / 2))
        if detect_arbitrage(shifted).found:
            raise PropertyViolation("dual slack promises SNA but shifted prices admit arbitrage")
    return cert


def _add_clock(
    enl_from: EnlargedModel,
    pt: MeasurePolytope,
    measure: dict[int, Q],
    clock: Callable[[tuple[int, ...]], Iterable[tuple[int, Q]]],
) -> dict[int, Q]:
    """The measure moved onto pt's space, the (n+1)-clock space of the same
    model: each path's mass is split over the added clock's dates t by the
    shares that clock(node_seq) lists as (t, share) pairs."""
    enl_to = pt.enl
    if enl_to.n != enl_from.n + 1 or enl_to.model is not enl_from.model:
        raise ValueError("the added clock goes from the n-clock space to the (n+1)-clock space")
    out: dict[int, Q] = {}
    for p, q in measure.items():
        ep = enl_from.epaths[p]
        for t, share in clock(ep.node_seq):
            tgt = enl_to.path_key[(ep.base_index, ep.clocks + (t,))]
            out[tgt] = out.get(tgt, ZERO) + q * share
    return out


def lift_measure_uniform_clock(
    enl_from: EnlargedModel, pt: MeasurePolytope, measure: dict[int, Q]
) -> dict[int, Q]:
    """Spread the added clock uniformly over {0..T}; membership in pt re-checked.

    The added exercise clock of a shorted option that nobody monitors
    plays no role: the lifted measure stays in the closed polytope of
    the larger space.
    """
    dates = range(enl_from.horizon + 1)
    share = Q(1, len(dates))
    lifted = _add_clock(enl_from, pt, measure, lambda seq: ((t, share) for t in dates))
    pt.require(lifted, "lifted measure")
    return lifted


class PushReport(NamedTuple):
    pushed: dict[int, Q]
    value: Q                 # E_pushed[claim at the last clock]
    lam: Q


def push_stopping_measure(
    enl_from: EnlargedModel,
    pt: MeasurePolytope,
    measure: dict[int, Q],
    tau: StoppingTime,
    lifted: dict[int, Q],
) -> PushReport:
    """Concentrate the added clock on the stopping time tau.

    ``lifted`` is the measure's uniform lift (lift_measure_uniform_clock,
    which re-checked it in pt).  Asserts E_pushed[claim at the last
    clock] = E_Q[claim at tau], that the push lies in pt, the closed
    polytope of the larger space, and that mixing toward ``lifted`` with
    weight lambda stays inside - strictly when the input measure itself
    is strict (line search over lambda = 1/2, 1/4, ..., 1/2^12).
    """
    pushed = _add_clock(enl_from, pt, measure, lambda seq: ((tau.time_on(seq), ONE),))
    claim_from = extend_claim(enl_from, "sub")
    expect_from = ZERO
    for p, q in measure.items():
        seq = enl_from.epaths[p].node_seq
        expect_from += q * claim_from[seq[tau.time_on(seq)]]
    value = pt.expectation(pushed, extend_claim(pt.enl, "super"))
    if value != expect_from:
        raise PropertyViolation(
            f"pushed value {rat_str(value)} != stopped expectation {rat_str(expect_from)}"
        )
    pt.require(pushed, "pushed measure")
    for lam, mixed in _halving_mixtures(pushed, lifted):
        if all(row[-1] for row in pt.verdicts(mixed, strict=True)):
            return PushReport(pushed=pushed, value=value, lam=lam)
    raise PropertyViolation("no mixture weight kept the pushed measure strictly inside")


class ChainReport(NamedTuple):
    middle: Q     # sup_Q sup_tau
    num_taus: int
    taus: list[StoppingTime]


def e2_chain(pt: MeasurePolytope, lower: Q, upper: Q) -> ChainReport:
    """Exact three-term chain linking the dual prices.

    ``lower`` (inf_Q sup_tau) and ``upper`` (sup over the larger-space
    polytope) are the sub- and super-hedging dual values, solved by the
    caller.  The middle term sup_Q sup_tau over pt, the polytope of the
    n = N space, is bilinear; it swaps to sup_tau sup_Q and is computed
    here as an oracle: the stopping times of pt's space are enumerated
    and one LP is solved per distinct stopped-value vector.
    lower <= middle <= upper is asserted.  The report keeps the taus.
    """
    enl = pt.enl
    taus = enlarged_stopping_times(enl)
    claim_at = extend_claim(enl, "sub")
    seqs = [(p, ep.node_seq) for p, ep in enumerate(enl.epaths)]
    vecs: dict[tuple, dict[int, Q]] = {}
    for tau in taus:
        vec = {p: claim_at[seq[tau.time_on(seq)]] for p, seq in seqs}
        vecs.setdefault(tuple(vec.values()), vec)
    middle = max(solve_measure(pt, pt.extremum_lp(vec, "max"))[0].value
                 for vec in vecs.values())
    if not (lower <= middle <= upper):
        raise PropertyViolation(
            f"chain violated: {rat_str(lower)} <= {rat_str(middle)} <= {rat_str(upper)} fails"
        )
    return ChainReport(middle=middle, num_taus=len(vecs), taus=taus)


def strict_value_bracket(
    pt: MeasurePolytope,
    values: dict[int, Q] | Sequence[Q],
    argmax: dict[int, Q],
    strict_measure: dict[int, Q],
) -> list[tuple[Q, Q]]:
    """Bracket the closed-polytope maximum by strict-interior values.

    Mixes ``argmax``, a maximizer of E[values] over the closed polytope
    (the measure of price_with_dual's super side), toward a strictly
    feasible measure with weights 1/2, ..., 1/2^12; every mixture is
    verified strictly feasible and the values converge geometrically to
    the closed maximum, witnessing that optimizing over the strict set
    loses nothing.
    """
    # the two values as integer numerators over one denominator dv
    ((va, vb),), dv = over_common(
        [pt.expectation(argmax, values), pt.expectation(strict_measure, values)])
    out: list[tuple[Q, Q]] = []
    for lam, mixed in _halving_mixtures(argmax, strict_measure):
        if not all(row[-1] for row in pt.verdicts(mixed, strict=True)):
            raise PropertyViolation("strict mixture left the polytope")
        val = pt.expectation(mixed, values)
        scale = int(lam.denominator)
        if val != Q((scale - 1) * va + vb, dv * scale):
            raise PropertyViolation("mixture value is not the mixture of values")
        out.append((lam, val))
    return out


def _halving_mixtures(
    base: dict[int, Q], toward: dict[int, Q]
) -> Iterator[tuple[Q, dict[int, Q]]]:
    """(lam, (1 - lam) * base + lam * toward) for lam = 1/2, 1/4, ..., 1/2^12.

    Both measures are put over one denominator den once; the mixture at
    lam = 1/2^k is then ((2^k - 1) * base + toward) / (2^k * den) per path.
    """
    support = sorted(set(base) | set(toward))
    (b, t), den = over_common((base.get(p, ZERO) for p in support),
                              (toward.get(p, ZERO) for p in support))
    for k in range(1, _HALVINGS + 1):
        rest = (1 << k) - 1
        yield Q(1, 1 << k), {p: Q(rest * x + y, den << k) for p, x, y in zip(support, b, t)}


# -- kernel families -----------------------------------------------------------


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
    return {p: base[ep.base_index] * enl.clock_mass
            for p, ep in enumerate(enl.epaths) if ep.base_index in base}


def drop_options(model: MarketModel, *, europeans: bool = False) -> MarketModel:
    """The same kernels and claim with the option books dropped.

    With ``europeans`` the European book stays.  Without shorted
    Americans only the claim's clock is left, so the hedges of this
    market run on its n = 0 and n = 1 enlargements.
    """
    return model._replace(europeans=list(model.europeans) if europeans else [],
                          americans_long=[], americans_short=[])


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
        sub_model = model._replace(americans_long=model.americans_long[:m])
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


class MinimaxReport(NamedTuple):
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
    lam = [-lhs_out.mult.at(r) for r in vertex_rows]
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
