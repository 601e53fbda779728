"""Model factories and the randomized cross-validation battery.

Every factory draws from small rational grids, so all arithmetic stays
exact, and quotes its market through one path, _quoted_market: each book
sits a margin outside its value under a strictly positive product
martingale measure, the market's construction certificate, so strict
no-arbitrage holds by design.  The battery functions check each
pricing routine against an independently computed counterpart and raise
PropertyViolation on any disagreement, so a clean run is a verification
transcript over the sampled corpus.  All draws come from a caller-owned
random.Random, which makes every corpus reproducible from its seed.
"""
from __future__ import annotations

import contextlib
import os
import random
from typing import NamedTuple

from .divisible import EPS_GRID, verify_divisibility_equivalence
from .enlarged import EnlargedModel, enlarge, extend_claim
from .errors import PropertyViolation, SnaFailure
from .hedging import detect_arbitrage, subhedge, superhedge
from .lp import max_slack
from .market import EventTree, MarketModel, Node, load_model
from .measures import (
    MeasureCertificate,
    MeasurePolytope,
    build_polytope,
    ftap_certificate,
    price_with_dual,
    snell_value,
)
from .oracles import (
    check_sna,
    dp_superhedge,
    drop_options,
    e2_chain,
    ftap_transfer,
    lift_measure_uniform_clock,
    one_step_polytope,
    product_measure,
    push_stopping_measure,
    robust_na,
    selectors,
    solve_measure,
    strict_value_bracket,
    submarket_slacks,
    verify_minimax,
    vertex_measure,
)
from .rationals import ONE, ZERO, Q, rat_str
from .robust import kernel_family, num_selectors, supported_space
from .strategies import count_stopping_times

# strictly inside the smallest grid shift
BOUNDARY_OFFSET = Q(1, 512)

_DENOMS = (1, 2, 3, 4, 6, 8)
_MARGINS = (Q(1, 8), Q(1, 4), Q(3, 8), Q(1, 2))
_MAX_TAUS = 150
# each option book: its MarketModel field, the with_prices keyword that
# re-quotes it, its kind in pin_quote, and the sign of a quote move in the
# trader's favour (asks down, bids up)
_BOOKS = (("europeans", "alphas", "european", -1), ("americans_long", "betas", "long", -1),
          ("americans_short", "gammas", "short", 1))
# per adversarial mode: pin_quote's offset, the record's tag, check_ftap_grid's expectation
_ADVERSARIAL = ((None, "inject", "fail"), (ZERO, "pin", "fail"), (BOUNDARY_OFFSET, "offset", "sna"))


# -- canonical fixtures --------------------------------------------------------


def strict_chain_market() -> MarketModel:
    """Trinomial market whose best stopped value sits strictly under the
    super-hedging price: exercising against the shorted ask is worth
    more when its exercise profile can stay randomized."""
    return load_model({
        "horizon": 1,
        "nodes": [
            {"id": "n0", "time": 0},
            {"id": "n1", "time": 1, "parent": "n0"},
            {"id": "n2", "time": 1, "parent": "n0"},
            {"id": "n3", "time": 1, "parent": "n0"},
        ],
        "stock": {"dim": 1, "values": {
            "n0": ["3/2"], "n1": ["15/8"], "n2": ["9/8"], "n3": ["9/4"],
        }},
        "europeans": [
            {"payoff": {"n1": "3", "n2": "19/8", "n3": "1"}, "price": "99/40"},
            {"payoff": {"n1": "1/6", "n2": "8/3", "n3": "3"}, "price": "283/120"},
        ],
        "americans_short": [
            {"values": {"n0": "2", "n1": "7/8", "n2": "1", "n3": "23/8"},
             "price": "1023/512"},
        ],
        "claim": {"values": {"n0": "3/4", "n1": "0", "n2": "7/6", "n3": "1"}},
        "weights": {"n1": "1/3", "n2": "1/3", "n3": "1/3"},
    })


# -- rational grids ------------------------------------------------------------


def _grid_value(rng: random.Random, lo: Q, hi: Q) -> Q:
    """Uniform-ish draw from the rational grid {k/d} inside [lo, hi]."""
    d = rng.choice(_DENOMS)
    lo_k = int(lo * d)
    hi_k = int(hi * d)
    if Q(lo_k, d) < lo:
        lo_k += 1
    return Q(rng.randint(lo_k, max(lo_k, hi_k)), d)


def _random_adapted(rng: random.Random, tree: EventTree) -> dict[str, Q]:
    return {nid: _grid_value(rng, ZERO, Q(3)) for nid in tree.nodes}


# -- tree and stock factories --------------------------------------------------


def random_tree(rng: random.Random, horizon: int, max_branch: int = 3) -> EventTree:
    """Random event tree; ids follow discovery order so layouts reproduce.

    The root always branches as widely as allowed permits, so the
    market is degenerate only when max_branch is 1; deeper nodes may
    still thin out to single children.
    """
    nodes = [Node("n0", 0, None)]
    frontier = ["n0"]
    counter = 1
    for t in range(1, horizon + 1):
        lo = min(2, max_branch) if t == 1 else 1
        nxt: list[str] = []
        for parent in frontier:
            for _ in range(rng.randint(lo, max_branch)):
                nid = f"n{counter}"
                counter += 1
                nodes.append(Node(nid, t, parent))
                nxt.append(nid)
        frontier = nxt
    return EventTree(nodes, horizon)


def random_stock(rng: random.Random, tree: EventTree, dim: int = 1) -> dict[str, tuple[Q, ...]]:
    """Positive grid-valued stock whose one-step moves straddle the parent.

    Single children copy the parent price; with several children one
    move goes strictly up and one strictly down, which guarantees a
    full-support one-step martingale at every node.  A second component,
    when asked for, is an exact affine image of the first, so the same
    transition laws price it.
    """
    first: dict[str, Q] = {tree.root: rng.choice([ONE, Q(3, 2), Q(2)])}
    order = sorted(tree.nodes.values(), key=lambda node: (node.time, node.id))
    for node in order:
        kids = tree.children[node.id]
        if not kids:
            continue
        base = first[node.id]
        if len(kids) == 1:
            first[kids[0]] = base
            continue
        up = base * (ONE + rng.choice([Q(1, 4), Q(1, 2), ONE]))
        down = base * (ONE - rng.choice([Q(1, 4), Q(1, 2), Q(3, 4)]))
        moves = [up, down]
        for _ in range(len(kids) - 2):
            moves.append(base * (ONE + rng.choice([Q(-1, 2), Q(-1, 4), ZERO, Q(1, 4), Q(1, 2)])))
        rng.shuffle(moves)
        for kid, val in zip(kids, moves):
            first[kid] = val
    if dim == 1:
        return {nid: (v,) for nid, v in first.items()}
    # affine second leg: martingale under exactly the same one-step laws
    return {nid: (v, Q(2) + v / 2) for nid, v in first.items()}


def node_interior(model: MarketModel) -> dict[str, dict[str, Q]]:
    """Per-node full-support one-step martingale laws; PropertyViolation if
    some node admits no strictly positive martingale transition (a
    random_stock draw always admits one)."""
    tree = model.tree
    out: dict[str, dict[str, Q]] = {}
    for nid in sorted(tree.nodes, key=lambda n: (tree.nodes[n].time, n)):
        kids = tree.children[nid]
        if not kids:
            continue
        # dominating the all-ones vertex by a positive factor is full support
        law = _dominating_law(model, nid, [(ONE,) * len(kids)])
        if law is None:
            raise PropertyViolation(f"node {nid!r} has no full-support martingale law")
        out[nid] = law
    return out


def _quoted_market(
    rng: random.Random, probe: MarketModel, laws: dict[str, dict[str, Q]], L: int, M: int, N: int
) -> MarketModel:
    """``probe`` with random option books and a random claim, the one
    quoting path of both factories.

    The books are quoted a margin outside their prices under the product
    measure of ``laws``: buy-side quotes above the expectation (American
    asks above the exercise envelope), sell-side quotes below the
    clock-averaged expectation, so that measure prices every book
    strictly inside.  ``probe`` carries the tree, the stock, the weights
    and any kernels.  The books are drawn first, then the claim.
    """
    tree = probe.tree
    pmeas = product_measure(tree, laws)
    europeans = []
    for _i in range(L):
        payoff = {leaf: _grid_value(rng, ZERO, Q(3)) for leaf in tree.leaves}
        mean = sum((q * payoff[tree.paths[pi][-1]] for pi, q in pmeas.items()), ZERO)
        europeans.append((payoff, mean + rng.choice(_MARGINS)))
    americans_long = []
    if M:
        # with no clock the enlarged paths are the base paths, in order
        enl0 = enlarge(probe, 0)
    for _j in range(M):
        proc = _random_adapted(rng, tree)
        values = {v: proc[node.base] for v, node in enumerate(enl0.enodes)}
        americans_long.append((proc, snell_value(enl0, values, pmeas) + rng.choice(_MARGINS)))
    americans_short = []
    for _k in range(N):
        proc = _random_adapted(rng, tree)
        # the expected time-average of proc along the path
        mean = sum((q * sum((proc[nid] for nid in tree.paths[pi]), ZERO)
                    for pi, q in pmeas.items()), ZERO) / (tree.horizon + 1)
        americans_short.append((proc, mean - rng.choice(_MARGINS)))
    return probe._replace(europeans=europeans, americans_long=americans_long,
                          americans_short=americans_short, claim=_random_adapted(rng, tree))


# -- strictly arbitrage-free market factory ------------------------------------


class GeneratedModel(NamedTuple):
    """A market together with its construction-time interior certificate."""

    model: MarketModel
    laws: dict[str, dict[str, Q]]


def _within_budget(model: MarketModel) -> bool:
    # only e2_chain and verify_minimax enumerate stopping times, both on
    # the n = N space; the n = N + 1 count with longed asks bounds no
    # enumeration, but it bounds how large verify's markets get: without
    # it, verify --seed 1 took 3.2 s against 1.7 s on 2 CPUs and 7.5 s
    # against 2.3 s on one (medians of 3 runs; ROADMAP item 6)
    depths = (model.N, model.N + 1) if model.M else (model.N,)
    for n in depths:
        enl = enlarge(model, n)
        if count_stopping_times(enl.roots, enl.children.__getitem__, _MAX_TAUS) > _MAX_TAUS:
            return False
    return True


def random_sna_model(
    rng: random.Random,
    *,
    force_n: int | None = None,
    require_option: bool = False,
) -> GeneratedModel:
    """Random market priced strictly inside its martingale polytope.

    Buy-side quotes sit a margin above, sell-side a margin below, the
    expectations under a full-support product martingale measure
    (American asks above the exercise envelope), so strict no-arbitrage
    holds with slack at least min(margin, smallest path mass).
    """
    for _ in range(64):
        N = force_n if force_n is not None else rng.choice([0, 1, 1, 2])
        if N >= 2:
            T = 1
        elif N == 1:
            T = rng.choice([1, 1, 2])
        else:
            T = rng.choice([1, 1, 2, 2, 3])
        max_branch = 2 if T == 3 or (N >= 1 and T >= 2) else 3
        M = rng.choice([0, 0, 1, 1, 2])
        if M:
            T = min(T, 2)
            if N >= 1 or M == 2:
                max_branch = 2
        L = rng.randint(0, 2)
        if require_option and L + M + N == 0:
            L = 1
        dim = 2 if rng.random() < 0.2 else 1
        tree = random_tree(rng, T, max_branch)
        stock = random_stock(rng, tree, dim)
        probe = MarketModel(tree, stock, dict.fromkeys(tree.leaves, Q(1, len(tree.paths))))
        laws = node_interior(probe)
        model = _quoted_market(rng, probe, laws, L, M, N)
        if not _within_budget(model):
            continue
        return GeneratedModel(model=model, laws=laws)
    raise PropertyViolation("model factory failed to hit its budget in 64 attempts")


# -- adversarial corrosion of a healthy market ---------------------------------


def pin_quote(
    rng: random.Random, gm: GeneratedModel, offset: Q | None
) -> tuple[MarketModel, str]:
    """Set one random quote to its polytope extreme plus ``offset``.

    At offset 0 the best uniform slack is exactly zero: prices are
    consistent but not strictly so.  A positive offset moves the quote
    inside the polytope and keeps strict no-arbitrage alive with slack
    at most the offset.  ``offset`` None draws a margin and moves the
    quote past its extreme by it, so no consistent martingale measure
    is left and arbitrage must show at every shift.  Draws come in the
    order kind, margin, index; the kind's _BOOKS row re-quotes the option.
    """
    model = gm.model
    enl = enlarge(model, model.N)
    pt = build_polytope(enl)
    books = [book for book in _BOOKS if getattr(model, book[0])]
    if not books:
        raise ValueError("pinning a quote needs at least one quoted option")
    name, key, kind, sign = rng.choice(books)
    if offset is None:
        offset = -rng.choice([Q(1, 4), Q(1, 2), ONE])
    quotes = [q for _, q in getattr(model, name)]
    i = rng.randrange(len(quotes))
    values, paths = getattr(model, name)[i][0], model.tree.paths
    if kind == "european":
        vec = [values[paths[ep.base_index][-1]] for ep in enl.epaths]
        extreme = solve_measure(pt, pt.extremum_lp(vec, "min"))[0].value
    elif kind == "long":
        work, shift, _ = pt.envelope_lp(pt.long_values[i])
        extreme = solve_measure(pt, work)[0].value + shift
    else:
        vec = [values[paths[ep.base_index][ep.clocks[i]]] for ep in enl.epaths]
        extreme = solve_measure(pt, pt.extremum_lp(vec, "max"))[0].value
    quotes[i] = extreme - sign * offset
    return model.with_prices(**{key: quotes}), kind


# -- kernel-family factory -----------------------------------------------------


def _random_vertex(rng: random.Random, arity: int) -> tuple[Q, ...]:
    while True:
        raw = [rng.choice([0, 1, 1, 2, 3]) for _ in range(arity)]
        total = sum(raw)
        if total:
            return tuple(Q(w, total) for w in raw)


def _dominating_law(
    model: MarketModel, nid: str, vertices: list[tuple[Q, ...]]
) -> dict[str, Q] | None:
    """One-step martingale over the union support dominating every vertex."""
    tree = model.tree
    kids = tree.children[nid]
    supported = [kid for i, kid in enumerate(kids) if any(v[i] > 0 for v in vertices)]
    lp, qv, _ = one_step_polytope(model, nid, supported)
    dom = {lp.add_constraint({qv[kid]: 1}, ">=", 0, name=f"dom[{vi};{kid}]", den=1): vert[i]
           for vi, vert in enumerate(vertices) for i, kid in enumerate(kids) if vert[i] > 0}
    out = max_slack(lp, dom)
    if out.status != "optimal" or out.value <= ZERO:
        return None
    return out.point.nonzero({kid: qv[kid] for kid in supported})


def random_kernel_model(rng: random.Random) -> GeneratedModel:
    """Random market with per-node vertex families, consistently priced.

    Each node's law family admits a single martingale law dominating
    all its vertices at once, so the product measure dominates every
    selector uniformly and quasi-sure pricing consistency holds by
    construction.
    """
    for _ in range(64):
        T = rng.choice([1, 1, 2])
        max_branch = 3 if T == 1 else rng.choice([2, 3])
        L = rng.choice([0, 1])
        M = rng.choice([0, 1])
        N = rng.choice([0, 1])
        tree = random_tree(rng, T, max_branch)
        stock = random_stock(rng, tree)
        probe = MarketModel(tree, stock, dict.fromkeys(tree.leaves, Q(1, len(tree.paths))))
        interior = node_interior(probe)

        kernels: dict[str, list[tuple[Q, ...]]] = {}
        laws: dict[str, dict[str, Q]] = {}
        for nid in sorted(tree.nodes, key=lambda n: (tree.nodes[n].time, n)):
            kids = tree.children[nid]
            if not kids:
                continue
            for _try in range(8):
                count = rng.choice([1, 2, 2])
                vertices = [_random_vertex(rng, len(kids)) for _ in range(count)]
                law = _dominating_law(probe, nid, vertices)
                if law is not None:
                    break
            if law is None:
                # fall back to the interior law as a singleton family
                vertices = [tuple(interior[nid][k] for k in kids)]
                law = dict(interior[nid])
            kernels[nid] = vertices
            laws[nid] = law

        model = _quoted_market(rng, probe._replace(kernels=kernels), laws, L, M, N)
        if not _within_budget(model):
            continue
        return GeneratedModel(model=model, laws=laws)
    raise PropertyViolation("kernel factory failed to hit its budget in 64 attempts")


# -- battery: classical hedging dualities --------------------------------------


def _describe(model: MarketModel) -> dict:
    return {
        "horizon": model.tree.horizon,
        "paths": len(model.tree.paths),
        "dim": model.dim,
        "L": model.L,
        "M": model.M,
        "N": model.N,
    }


def check_duality(
    model: MarketModel,
) -> tuple[dict, tuple[Q, Q], MeasurePolytope, MeasurePolytope, dict[int, Q]]:
    """Certified sub and super prices against separately built hedge LPs.

    Each price comes from its measure LP (price_with_dual), with the
    measure re-checked from the model data and the hedge read off the
    duals re-checked pathwise; the hedge LP of subhedge/superhedge,
    built and solved on its own, must reach the price exactly.  Sub must
    not exceed super.  Returns the record, the (sub, super) prices, the
    polytopes of the n = N and n = N + 1 spaces, and the super price's
    closed maximizer, for check_chain.
    """
    sub, pt_sub = price_with_dual(enlarge(model, model.N), "sub")
    sup, pt_sup = price_with_dual(enlarge(model, model.N + 1), "super")
    for report, ref in ((sub, subhedge(pt_sub.enl)), (sup, superhedge(pt_sup.enl))):
        if report.price != ref.price:
            raise PropertyViolation(f"{report.kind} hedge LP reaches {rat_str(ref.price)}")
    if not sub.price <= sup.price:
        raise PropertyViolation("sub-hedge price exceeds super-hedge price")
    record = {
        **_describe(model),
        "sub": rat_str(sub.price),
        "super": rat_str(sup.price),
    }
    return record, (sub.price, sup.price), pt_sub, pt_sup, sup.measure


# -- battery: pricing consistency across the shift grid -------------------------


def check_ftap_grid(
    pt: MeasurePolytope, *, expect: str | None = None
) -> tuple[dict, MeasureCertificate]:
    """No-arbitrage of shifted prices against the measure-side criterion.

    ``pt`` is the polytope of the market's n = N space (check_duality's
    pt_sub); every shift builds the polytope of its forest at the shifted
    quotes.
    For every shift the trading-side verdict must coincide with the
    existence of a full-support consistent measure at the shifted
    quotes (ftap_certificate with the price rows closed, its witness
    re-checked); verdicts must be monotone in the shift, shifts below
    the uniform slack must stay clean, and a nonpositive slack must put
    arbitrage at every shift.  The record's ``na`` lists the verdicts in
    ascending shift order, that of the report's ``eps_grid``.
    """
    enl = pt.enl
    model = enl.model
    sna = check_sna(pt)
    if expect == "sna" and not sna.holds:
        raise PropertyViolation("factory promised strict no-arbitrage but it fails")
    if expect == "fail" and sna.holds:
        raise PropertyViolation("corrosion promised an inconsistency but none appears")
    verdicts = []
    seen_false = False
    for eps in sorted(EPS_GRID):    # ascending: verdicts may only degrade
        shifted = enl.with_model(model.shifted_prices(eps))
        na_primal = not detect_arbitrage(shifted).found
        na_dual = ftap_certificate(build_polytope(shifted), prices=False).holds
        if na_primal != na_dual:
            raise PropertyViolation(
                f"at shift {rat_str(eps)} trading says NA={na_primal} "
                f"but measures say NA={na_dual}")
        if seen_false and na_primal:
            raise PropertyViolation("no-arbitrage verdict is not monotone in the shift")
        seen_false = seen_false or not na_primal
        if sna.holds and eps <= sna.slack and not na_primal:
            raise PropertyViolation(
                f"shift {rat_str(eps)} sits inside slack {rat_str(sna.slack)} "
                "yet arbitrage appeared")
        if not sna.holds and na_primal:
            raise PropertyViolation(
                f"slack is not positive yet shift {rat_str(eps)} shows no arbitrage")
        verdicts.append(na_primal)
    record = {
        **_describe(model),
        "holds": sna.holds,
        "epsilon": rat_str(sna.slack) if sna.slack is not None else None,
        "na": verdicts,
    }
    return record, sna


# -- battery: price chain and measure transport --------------------------------


def check_chain(
    sna: MeasureCertificate,
    prices: tuple[Q, Q],
    pt_sub: MeasurePolytope,
    pt_sup: MeasurePolytope,
    argmax: dict[int, Q],
) -> dict:
    """Three-term price chain plus lift and push transports.

    ``prices``, ``pt_sub``, ``pt_sup`` and ``argmax`` are what
    check_duality returns: the chain ends are the dual prices it solved
    and matched to the hedging prices, the polytopes of both spaces, and
    the super side's closed maximizer.  The chain's middle term
    enumerates the stopping times of the n = N space.  ``sna`` must hold
    (check_ftap_grid with expect="sna" raises otherwise): its certificate
    measure is lifted to the larger space, pushed onto two of those
    stopping times, and mixed with ``argmax`` to bracket the closed
    maximum by strictly consistent measures.  The record leaves out the
    chain ends, which are check_duality's prices.
    """
    enl_sub = pt_sub.enl
    lower, upper = prices
    chain = e2_chain(pt_sub, lower, upper)
    lifted = lift_measure_uniform_clock(enl_sub, pt_sup, sna.measure)
    taus = chain.taus
    pushes = []
    for tau in (taus[0], taus[len(taus) // 2]):
        push = push_stopping_measure(enl_sub, pt_sup, sna.measure, tau, lifted)
        if push.value > chain.middle:
            raise PropertyViolation("pushed stop value exceeds the best stopped value")
        pushes.append(rat_str(push.value))
    bracket = strict_value_bracket(pt_sup, extend_claim(pt_sup.enl, "super"), argmax, lifted)
    return {
        "middle": rat_str(chain.middle),
        "strict_upper": chain.middle < upper,
        "num_taus": chain.num_taus,
        "pushes": pushes,
        "bracket_gap": rat_str(upper - bracket[-1][1]),
    }


# -- battery: structural degenerations -----------------------------------------


def check_degenerations(
    enl: EnlargedModel, enl_sup: EnlargedModel, sna: MeasureCertificate, prices: tuple[Q, Q]
) -> None:
    """Limiting cases with forced outcomes; raises on a failure and records
    nothing, since each outcome is fixed by the market's shape.

    ``enl`` and ``enl_sup`` are the market's n = N and n = N + 1 spaces
    (as check_duality's polytopes carry them), and ``prices`` its sub and
    super prices (check_duality's); quotes and books change
    below, the tree never, so every variant reuses one of these two
    forests.  ``sna`` must hold (check_ftap_grid with expect="sna"
    raises otherwise); half its slack is the quote move.  A constant
    claim must price to that constant on both sides; moving one quote
    against the hedger inside the slack budget must move prices weakly
    in its favor; and with no shorted options the enlarged space must
    collapse onto the base tree.
    """
    model = enl.model
    sub0, sup0 = prices

    const = Q(5, 3)
    m_flat = model._replace(claim=dict.fromkeys(model.tree.nodes, const))
    lo = subhedge(enl.with_model(m_flat)).price
    hi = superhedge(enl_sup.with_model(m_flat)).price
    if lo != const or hi != const:
        raise PropertyViolation(
            f"constant claim prices to [{rat_str(lo)}, {rat_str(hi)}], not itself")

    # weakening one quote can only help the hedger on both sides
    bump = sna.slack / 2
    for name, key, _, sign in _BOOKS:
        quotes = [q for _, q in getattr(model, name)]
        if quotes:
            quotes[0] += sign * bump
            m2 = model.with_prices(**{key: quotes})
            sub2 = subhedge(enl.with_model(m2)).price
            sup2 = superhedge(enl_sup.with_model(m2)).price
            if sub2 < sub0 or sup2 > sup0:
                raise PropertyViolation(
                    f"weakened {key[:-1]} quote moved a price against the hedger")

    if model.N == 0:
        tree = model.tree
        if enl.num_paths != len(tree.paths) or len(enl.enodes) != len(tree.nodes):
            raise PropertyViolation("zero-clock space does not match the base tree")
        claim_at = extend_claim(enl, "sub")
        for p in range(enl.num_paths):
            ep = enl.epaths[p]
            if ep.clocks != () or ep.base_index != p:
                raise PropertyViolation("zero-clock paths are not the base paths")
            if enl.weights[p] != model.path_weight(p):
                raise PropertyViolation("zero-clock weights differ from the base weights")
            for t, v in enumerate(ep.node_seq):
                node = enl.enode(v)
                if node.base != tree.paths[p][t] or node.status != ():
                    raise PropertyViolation("zero-clock nodes are not the base nodes")
                if model.claim is not None and claim_at[v] != model.claim[node.base]:
                    raise PropertyViolation("zero-clock claim differs from the base claim")


def check_depth_zero() -> None:
    """A single-date market: both prices equal the claim's root value."""
    const = Q(7, 4)
    tree = EventTree([Node("n0", 0, None)], 0)
    model = MarketModel(
        tree=tree,
        stock={"n0": (ONE,)},
        claim={"n0": const},
        weights={"n0": ONE},
    )
    lo = subhedge(enlarge(model, 0)).price
    hi = superhedge(enlarge(model, 1)).price
    if lo != const or hi != const:
        raise PropertyViolation("single-date market does not price the claim to itself")


# -- battery: singleton kernels degenerate to the classical engine --------------


def check_singleton_robust(enl: EnlargedModel, enl_sup: EnlargedModel, laws: dict) -> None:
    """A one-vertex full-support family must reproduce classical answers.

    ``enl`` and ``enl_sup`` are the market's n = N and n = N + 1 spaces,
    ``laws`` its GeneratedModel's full-support laws.  A full-support
    family keeps every path, so the quasi-sure LPs, which read no
    kernel, would be check_duality's and check_sna's, whose records
    hold their answers; this check raises on a failure and records nothing.
    """
    kids = enl.model.tree.children
    model = enl.model._replace(kernels={
        nid: [tuple(law[k] for k in kids[nid])] for nid, law in laws.items()})
    enl_sub, enl_sup = enl.with_model(model), enl_sup.with_model(model)
    if not robust_na(enl_sub)[1].holds:
        raise PropertyViolation("singleton family reports arbitrage in a clean market")
    if supported_space(enl_sub) is not enl_sub or supported_space(enl_sup) is not enl_sup:
        raise PropertyViolation("singleton family cut a path")


# -- battery: divisibility -----------------------------------------------------


def check_divisibility(model: MarketModel) -> dict:
    report = verify_divisibility_equivalence(model)
    return {
        **_describe(model),
        "sub": rat_str(report.sub),
        "super": rat_str(report.super),
        "european": rat_str(report.european),
        "na": [na for _, na in sorted(report.sna_grid)],
    }


# -- battery: kernel families --------------------------------------------------


def selector_sweep(pt: MeasurePolytope) -> bool:
    """The quasi-sure consistency verdict, one kernel selector at a time.

    Holds iff for every selector product measure P of the kernels of
    pt.enl some e > 0 admits a measure in the e-shifted polytope pt
    dominating e*P.  This is the oracle of the one uniform-slack LP of
    ftap_certificate on the supported space, and of robust_na on the
    stock-only market's polytope, which has no price rows.  Selectors
    that share a vertex measure share one LP (ftap_certificate with
    floor P, whose witness clears every price row by e and dominates
    e*P); the enumeration stays under DEFAULT_SELECTOR_CAP.
    """
    enl = pt.enl
    solved: dict[tuple, bool] = {}
    for selector in selectors(enl.model):
        pbar = vertex_measure(enl, selector)
        key = tuple(sorted(pbar.items()))
        if key not in solved:
            solved[key] = ftap_certificate(pt, floor=pbar).holds
        if not solved[key]:
            return False
    return True


def check_robust_model(
    model: MarketModel, *, submarkets: bool = False
) -> tuple[dict, EnlargedModel]:
    """Full quasi-sure battery for one kernel family.

    Stock-only price equals its backward induction, quoted options only
    cheapen the hedge, consistency holds and transfers to the space
    with the extra clock, and dropping a vertex can only shrink the
    support, moving prices weakly inward.  The stock-only and
    European-book prices run on the n = 1 space of the market without
    the other books, the backward induction on the full n = N + 1
    space, so their equality also checks that the shorts' clocks are
    irrelevant to a stock hedge.  Returns the record and the n = N
    space, for check_minimax_instance.
    """
    enl_sub, enl_sup = enlarge(model, model.N), enlarge(model, model.N + 1)
    if not robust_na(enl_sub)[1].holds:
        raise PropertyViolation("kernel factory promised no arbitrage but it fails")

    try:
        stock = supported_space(enlarge(drop_options(model), 1))
        stock_only = price_with_dual(stock, "super")[0].price
    except SnaFailure as exc:
        raise PropertyViolation("stock-only super-hedge is unbounded") from exc
    supported = supported_space(enl_sup)
    dp = dp_superhedge(supported, extend_claim(supported, "super"))
    if stock_only != dp.value:
        raise PropertyViolation(
            "stock-only price disagrees with its backward induction")

    # the quasi-sure prices, with the supported polytopes ftap_transfer reads
    sub, pt_sub = price_with_dual(supported_space(enl_sub), "sub")
    sup, pt_sup = price_with_dual(supported, "super")
    if not sub.price <= sup.price <= stock_only:
        raise PropertyViolation("quasi-sure prices are not sandwiched")

    if model.L:
        books = supported_space(enlarge(drop_options(model, europeans=True), 1))
        book = price_with_dual(books, "super")[0]
        if not sup.price <= book.price <= stock_only:
            raise PropertyViolation("static buy-side book is not sandwiched")

    cert, _ = ftap_transfer(pt_sub, pt_sup)
    if not cert.holds:
        raise PropertyViolation("kernel factory promised consistency but it fails")
    if not selector_sweep(pt_sub):
        raise PropertyViolation("selector sweep disagrees with the one-LP consistency verdict")
    if submarkets and model.M:
        submarket_slacks(enl_sub, cert)

    record = {
        **_describe(model),
        "selectors": num_selectors(model),
        "sub": rat_str(sub.price),
        "super": rat_str(sup.price),
        "stock_only": rat_str(stock_only),
        "epsilon": rat_str(cert.slack) if cert.slack is not None else None,
    }

    # dropping a vertex shrinks the support: while the quotes stay
    # consistent on the smaller support, prices move weakly inward;
    # losing consistency outright is a legitimate outcome
    wide = next((nid for nid, vs in kernel_family(model).items() if len(vs) > 1), None)
    if wide is not None:
        kernels2 = {**model.kernels, wide: model.kernels[wide][:-1]}
        model2 = model._replace(kernels=kernels2)
        # an enlarged space does not depend on the kernels
        enl_sub2, enl_sup2 = enl_sub.with_model(model2), enl_sup.with_model(model2)
        record["dropped_vertex"] = wide
        record["dropped_consistent"] = True
        # both supports follow the supported base paths, so an unchanged
        # n = N support leaves both price LPs, and sub and sup, as they are
        space2 = supported_space(enl_sub2)
        if space2.epaths != pt_sub.enl.epaths:
            try:
                sub2 = price_with_dual(space2, "sub")[0]
                sup2 = price_with_dual(supported_space(enl_sup2), "super")[0]
            except SnaFailure:
                record["dropped_consistent"] = False
            else:
                if sup2.price > sup.price or sub2.price < sub.price:
                    raise PropertyViolation("shrinking the family widened the price interval")
    return record, enl_sub


def check_minimax_instance(rng: random.Random, enl: EnlargedModel) -> dict:
    """Liquidation/measure interchange on a kernel market's n = N space."""
    space = supported_space(enl)
    num_streams = rng.choice([1, 2])
    streams = [{v: _grid_value(rng, Q(-1), Q(2)) for v in space.children}
               for _ in range(num_streams)]
    vertices = [vertex_measure(space, sel) for sel in selectors(enl.model)]
    if len(vertices) > 3:
        tilted = []
        for base in vertices[:3]:
            tilt = {p: q * rng.choice([ONE, Q(2), Q(3)]) for p, q in base.items()}
            total = sum(tilt.values(), ZERO)
            tilted.append({p: q / total for p, q in tilt.items()})
        vertices = tilted
    report = verify_minimax(space, streams, vertices)
    return {
        "value": rat_str(report.value),
        "streams": num_streams,
        "vertices": len(vertices),
        "taus": report.num_taus,
    }


# -- the campaign --------------------------------------------------------------
#
# A campaign is a list of units, each a pure function of the seed drawn for it
# up front, so a unit gives the same record in any process and in any order.


def _main_unit(mseed: int) -> dict:
    """One main-corpus model: the records of its batteries, as one."""
    gm = random_sna_model(random.Random(mseed))
    duality, prices, pt_sub, pt_sup, argmax = check_duality(gm.model)
    grid, sna = check_ftap_grid(pt_sub, expect="sna")
    chain = check_chain(sna, prices, pt_sub, pt_sup, argmax)
    check_degenerations(pt_sub.enl, pt_sup.enl, sna, prices)
    check_singleton_robust(pt_sub.enl, pt_sup.enl, gm.laws)
    return {**duality, **grid, **chain, "seed": mseed}


def _adversarial_unit(mode: int, mseed: int) -> dict:
    """A corroded (mode 0), pinned (1) or offset (2) copy of a clean market."""
    mrng = random.Random(mseed)
    gm = random_sna_model(mrng, require_option=True)
    offset, tag, expect = _ADVERSARIAL[mode]
    bad, kind = pin_quote(mrng, gm, offset)
    rec, sna = check_ftap_grid(build_polytope(enlarge(bad, bad.N)), expect=expect)
    if mode == 1 and sna.slack != ZERO:
        raise PropertyViolation("pinned quote should have exactly zero slack")
    if mode == 2 and sna.slack > BOUNDARY_OFFSET:
        raise PropertyViolation("offset quote should cap the slack")
    return {**rec, "mode": f"{tag}:{kind}", "seed": mseed}


def _divisibility_unit(n: int, mseed: int) -> dict:
    rec = check_divisibility(random_sna_model(random.Random(mseed), force_n=n).model)
    rec["seed"] = mseed
    return rec


def _kernel_unit(submarkets: bool, minimax: bool, mseed: int) -> dict:
    """A kernel market's record, with the minimax instance on its space
    under ``minimax``."""
    model = random_kernel_model(random.Random(mseed)).model
    rec, enl = check_robust_model(model, submarkets=submarkets)
    rec["seed"] = mseed
    if minimax:
        rec["minimax"] = check_minimax_instance(random.Random(mseed ^ 0x5EED), enl)
    return rec


def _wedge_unit() -> None:
    """Deterministic strict-gap witness: the chain can be properly strict."""
    wedge = strict_chain_market()
    _, *wedge_duals = check_duality(wedge)
    _, wedge_sna = check_ftap_grid(wedge_duals[1], expect="sna")
    if not check_chain(wedge_sna, *wedge_duals)["strict_upper"]:
        raise PropertyViolation("canonical strict-gap market lost its gap")


def _worker_count(units: int) -> int:
    """One process per CPU this process may run on, at most one per unit."""
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
        return 1
    return min(len(os.sched_getaffinity(0)), units)


def run_campaign(
    seed: int,
    *,
    models: int = 50,
    progress=None,
) -> dict:
    """Seeded end-to-end sweep; any property failure raises.

    The main corpus runs dualities, the shift grid, the price chain,
    degenerations, and the singleton-family reduction per model, and
    records each model once.  Derived corpora cover corroded and
    boundary-pinned prices, divisibility, and kernel families, the first
    of which carry their liquidation interchange.  The report states the
    shift grid once, as ``eps_grid``; each record's ``na`` lists its
    verdicts in that order.  Every unit's seed is drawn here, in campaign
    order.  The units run in this process and in one forked child per
    further CPU it may use (see mapper), and their results are read back
    in campaign order, so the report, the progress lines and the first
    failure, that of the first failing unit, do not depend on the number
    of CPUs.
    """
    from .mapper import map_units

    rng = random.Random(seed)

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    def scaled(base: int) -> int:
        return max(3, models * base // 50)

    def seeds(count: int) -> list[int]:
        return [rng.randrange(2 ** 32) for _ in range(count)]

    drawn = dict(zip(("main", "adversarial", "divisibility", "kernel"), (
        seeds(models), seeds(scaled(20)), seeds(scaled(20)), seeds(scaled(30)))))
    # the minimax instances read the first kernel spaces (scaled(20) <= scaled(30))
    n_mm = scaled(20)
    units = (
        [(_main_unit, (s,)) for s in drawn["main"]]
        + [(_adversarial_unit, (i % 3, s)) for i, s in enumerate(drawn["adversarial"])]
        + [(_divisibility_unit, (1 + i % 2, s)) for i, s in enumerate(drawn["divisibility"])]
        + [(_kernel_unit, (i % 3 == 0, i < n_mm, s)) for i, s in enumerate(drawn["kernel"])]
        + [(check_depth_zero, ()), (_wedge_unit, ())]
    )
    sections: dict[str, list] = {name: [] for name in drawn}
    # the strict-gap witness, the one fixed slow unit, is handed out first
    mapped = map_units(units, _worker_count(len(units)), first=len(units) - 1)
    with contextlib.closing(mapped) as results:
        for name, mseeds in drawn.items():
            for i, mseed in enumerate(mseeds):
                sections[name].append(next(results))
                note(f"{name} {i + 1}/{len(mseeds)} ok (seed {mseed})")
        next(results)
        note("degenerate single-date market ok")
        next(results)
        note("strict-gap witness ok")

    return {
        "seed": seed,
        "models": models,
        "eps_grid": [rat_str(eps) for eps in sorted(EPS_GRID)],
        "sections": sections,
        "ok": True,
    }
