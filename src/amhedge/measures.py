"""Dual side: martingale measures on the enlarged space.

The dual objects are probability measures Q on enlarged paths under
which the stock is a martingale and quoted option prices are
consistent: buy-side expectations at or below asks, sell-side at or
above bids, and for each longed American the best stopped expectation
sup_tau E_Q[g_tau] at or below its ask.  That supremum is written as one
mass-weighted Snell-envelope block, linear in Q and of the size of the
support forest, which keeps the feasible set an honest polytope in Q.
That polytope, MeasurePolytope, is the one input of both duals here:
the measure-LP price (price_with_dual, which ``price`` runs) and the
uniform-slack certificate with the arbitrage it proves when it fails
(ftap_certificate and ftap_arbitrage, which ``ftap`` runs).  Nothing
here enumerates stopping times; the checks of these duals that only
``verify`` runs (the backward induction, the price chain, the measure
transports) are in ``oracles``.

Every polytope, price and re-check here runs over all paths of the space
it is given; the quasi-sure ones are given a kernel family's supported
space (robust.supported_space), whose forest is the support forest.

A measure is re-checked from the model data, never from an LP, and in
Python ints (MeasurePolytope.verdicts/require, martingale_increments,
expectation, snell_value): each call puts the measure, and its own tables
of the stock moves, payoffs and quotes, over common denominators.
"""
from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import Callable, Hashable, Iterable, Iterator, Literal, NamedTuple, Sequence

from .enlarged import EnlargedModel, extend_claim
from .errors import PropertyViolation
from .hedging import (ArbitrageReport, HedgeReport, SemiStaticStrategy, arbitrage_witness,
                      check_hedge, unbounded_ray)
from .lp import IntVector, LinearProgram, LPOutcome, Relation, max_slack, solve
from .rationals import ONE, ZERO, Q, over_common, rat_str, ratio_str


# per run head of a Snell block: (stop node, stop row or None, cont row or None)
SnellRows = dict[int, tuple[int, int | None, int | None]]


def add_martingale_rows(
    lp: LinearProgram,
    moves: Iterable[tuple[int, Hashable, Sequence[int]]],
    den: int,
    label: Callable[[Hashable], str],
) -> list[tuple[int, Hashable, int]]:
    """The one builder of martingale rows: sum of q * (S_next - S_node) = 0.

    ``moves`` lists (probability variable, node left, stock move over den)
    triples, each variable leaving each node at most once, so every
    coefficient is the move itself, written once.  One integer equality
    per (node, stock dim) with a nonzero move, in sorted order; returns
    (row index, node, dim) per row.
    """
    rows: dict[tuple, dict[int, int]] = {}
    for var, node, move in moves:
        for d, m in enumerate(move):
            if m:
                rows.setdefault((node, d), {})[var] = m
    return [
        (lp.add_constraint(row, "=", 0, name=f"mart[{label(node)};{d}]", den=den), node, d)
        for (node, d), row in sorted(rows.items())
    ]


def martingale_increments(
    enl: EnlargedModel, measure: dict[int, Q]
) -> tuple[dict[tuple[int, int], int], int]:
    """E_Q-weighted stock increments per (enlarged node, dim), from model
    data, as integer numerators over one denominator.

    Independent of any LP: a martingale law makes every entry zero.
    Only pairs reached by a charged path of the space with a nonzero
    move appear.
    """
    charged = [p for p in range(enl.num_paths) if measure.get(p, ZERO)]
    (qs,), dq = over_common(measure[p] for p in charged)
    moves, ds = enl.model.stock_moves()
    inc: dict[tuple[int, int], int] = {}
    for p, q in zip(charged, qs):
        ep = enl.epaths[p]
        seq = ep.node_seq
        for t, d, move in moves[ep.base_index]:
            key = (seq[t], d)
            inc[key] = inc.get(key, 0) + q * move
    return inc, dq * ds


class MeasurePolytope:
    """Martingale measures on enlarged paths that respect the quoted option prices.

    The LP holds one variable per path of the space, the mass row, one
    increment row per enlarged node and stock dimension, then the price
    rows: buy-side expectations at or below asks, sell-side at or above
    bids.  A market without options gives the bare martingale polytope,
    on a kernel family's supported space the whole quasi-sure dual of
    dynamic trading.  Callers copy the LP and add
    rows or an objective.  Row indices are kept per constraint family so
    the uniform-slack machinery can target exactly the price rows, and
    hedge_from can read a hedge off any LP built on a copy.  Each longed
    American adds one Snell block (see snell_block), kept in
    ``long_blocks``, and its ask row ``g[j]``; ``num_tau_rows`` counts the
    rows of those blocks.

    The builder writes every row in integers from tables: the stock move
    of each base edge (MarketModel.base_steps), shared by every enlarged
    path over it, and the payoffs and quotes per leaf and per base node.
    The re-checks (verdicts/require) read none of them; they build their
    own from the model.
    """

    def __init__(self, enl: EnlargedModel) -> None:
        self.enl = enl
        self.lp = LinearProgram()
        self.q_var = {p: self.lp.add_var(f"Q[{ep.label}]") for p, ep in enumerate(enl.epaths)}
        self.mass_row = self.lp.add_constraint(
            dict.fromkeys(self.q_var.values(), 1), "=", 1, name="mass", den=1
        )
        model, tree = enl.model, enl.model.tree
        # each path's variable with its enlarged path
        support = list(zip(self.q_var.values(), enl.epaths))
        steps, den = model.base_steps()
        moves = ((var, v, steps[b]) for var, ep in support
                 for v, b in zip(ep.node_seq, tree.paths[ep.base_index][1:]))
        self.mart_rows = add_martingale_rows(self.lp, moves, den, lambda v: enl.enode(v).label)

        self.f_rows: list[int] = []
        for i, (payoff, alpha) in enumerate(model.europeans):
            (at, (rhs,)), d = over_common(map(payoff.__getitem__, tree.leaves), [alpha])
            row = {var: at[ep.base_index] for var, ep in support}
            self.f_rows.append(self.lp.add_constraint(row, "<=", rhs, name=f"f[{i}]", den=d))
        self.h_rows: list[int] = []
        nodes = list(tree.nodes)
        for k, (proc, gamma) in enumerate(model.americans_short):
            (at, (rhs,)), d = over_common(map(proc.__getitem__, nodes), [gamma])
            at = dict(zip(nodes, at))
            row = {var: at[tree.paths[ep.base_index][ep.clocks[k]]] for var, ep in support}
            self.h_rows.append(self.lp.add_constraint(row, ">=", rhs, name=f"h[{k}]", den=d))

        # longed Americans: sup over stopping times by one Snell block each
        self.g_rows: list[int] = []
        self.long_blocks: list[SnellRows] = []
        self.long_values = [
            {v: proc[node.base] for v, node in enumerate(enl.enodes)}
            for proc, _ in model.americans_long
        ]
        first = self.lp.num_rows
        for j, (_, beta) in enumerate(model.americans_long):
            root, shift, rows = self.snell_block(self.lp, self.long_values[j], f"g{j}")
            self.long_blocks.append(rows)
            self.g_rows.append(self.lp.add_constraint(root, "<=", beta - shift, name=f"g[{j}]"))
        self.num_tau_rows = self.lp.num_rows - first

    def expectation(self, measure: dict[int, Q], values: dict[int, Q] | Sequence[Q]) -> Q:
        """E_Q[values] on the space, summed in integers over one denominator."""
        charged = [p for p in self.q_var if measure.get(p, ZERO)]
        (qs, vs), den = over_common((measure[p] for p in charged), (values[p] for p in charged))
        return Q(sum(q * v for q, v in zip(qs, vs)), den * den)

    def extremum_lp(
        self, values: dict[int, Q] | Sequence[Q], sense: Literal["max", "min"]
    ) -> LinearProgram:
        """E_Q[values] as the objective of a copy of the LP, in integers."""
        work = self.lp.copy()
        cols = {var: values[p] for p, var in self.q_var.items() if values[p]}
        (vs,), d = over_common(cols.values())
        work.set_objective(sense, dict(zip(cols, vs)), den=d)
        return work

    def support_slack(self, *, prices: bool, floor: dict[int, Q] | None = None) -> LPOutcome:
        """Largest slack s with Q(p) >= s * floor(p) on the paths of ``floor``
        (1 on every path by default), and every price row cleared by s if asked.

        The floor rows go on a copy of the LP, after every other row.
        ftap_certificate alone reads the outcome, and re-checks its witness.
        """
        floor = dict.fromkeys(self.q_var, ONE) if floor is None else floor
        work = self.lp.copy()
        rows = dict.fromkeys([*self.f_rows, *self.h_rows, *self.g_rows] if prices else (), ONE)
        for p, w in sorted(floor.items()):
            rows[work.add_constraint({self.q_var[p]: 1}, ">=", 0, name=f"pos[p{p}]", den=1)] = w
        return max_slack(work, rows)

    # -- independent re-validation ----------------------------------------

    def require(self, measure: dict[int, Q], what: str) -> None:
        """Raise unless every row of verdicts() holds, naming the first failed rows."""
        bad = [_ledger_entry(*row[:-1]) for row in self.verdicts(measure) if not row[-1]]
        if bad:
            raise PropertyViolation(f"{what} left the polytope: {bad[:3]}")

    def verdicts(
        self, measure: dict[int, Q], min_slack: Q | None = None,
        floor: dict[int, Q] | None = None, prices: bool = True, strict: bool = False,
    ) -> Iterator[tuple[str, int, Relation, int, int, bool]]:
        """(name, lhs, relation, rhs, den, ok) of each row of _evaluated_rows,
        re-evaluated from the data of enl.model, never from LP state.

        An equality must hold exactly, an inequality with margin >= 0 (> 0
        with ``strict``, the strict re-check of the oracles' mixtures).  With
        ``min_slack`` s, the rows support_slack slackens at the same ``floor``
        and ``prices`` must clear their bounds by s times their weight: Q(p)
        >= s * floor(p) (1 on every path by default, 0 off its paths) and
        Q(p) >= 0, and each price row by s, or with ``prices`` False by 0.
        """
        if min_slack is not None:
            sn, sd = int(min_slack.numerator), int(min_slack.denominator)
        for name, lhs, rel, rhs, den, path in self._evaluated_rows(measure):
            if rel == "=":
                yield name, lhs, rel, rhs, den, lhs == rhs
                continue
            margin = rhs - lhs if rel == "<=" else lhs - rhs
            if min_slack is None:
                ok = margin > 0 if strict else margin >= 0
            elif path is None:    # a price row
                ok = margin * sd >= sn * den if prices else margin >= 0
            else:
                weight = ONE if floor is None else floor.get(path, ZERO)
                wn, wd = int(weight.numerator), int(weight.denominator)
                # a measure has no negative mass, whatever the slack
                ok = margin >= 0 and margin * sd * wd >= sn * wn * den
            yield name, lhs, rel, rhs, den, ok

    @cached_property
    def _runs(self) -> dict[int, tuple[int, ...]]:
        """Each head of the space's forest, a root or a child of a branching
        node, in index order, with its run of nodes: the head, then single
        children down to the first leaf or branching node."""
        kids = self.enl.children
        heads = [*self.enl.roots, *(kid for v in kids if len(kids[v]) > 1 for kid in kids[v])]
        runs = {}
        for h in sorted(heads):
            run = [h]
            while len(kids[run[-1]]) == 1:
                run.append(kids[run[-1]][0])
            runs[h] = tuple(run)
        return runs

    def snell_block(
        self, lp: LinearProgram, values_at_enode: dict[int, Q], tag: str
    ) -> tuple[dict[int, Q], Q, SnellRows]:
        """Add the mass-weighted Snell envelope of a value process g to lp.

        lp is this polytope's LP or a copy of it.  Let c = min(0, min g)
        and m_v(Q) the Q-mass of the paths through node v.  The nodes of
        one run (see _runs) carry the same paths, so a stop anywhere in it
        is worth at most (G - c) * m(Q), G the run's largest g.  A run that
        ends in a leaf is that term itself.  A run that ends in a branching
        node gets Y >= 0 with Y >= (G - c) * m(Q) (where G != c) and Y >=
        the sum of the terms of that node's children.  Returns the sum of
        the root terms, c, and per head the node where the run stops (its
        first with g = G), its stop row and its cont row (None where
        absent).  At the least Y that sum is sup_tau E_Q[g_tau] - c, and
        Y >= 0 is exact because Q >= 0 has mass 1.  On a forest where every
        non-leaf node branches, each run is one node.  The rows go in as
        integers: each run's G - c over one denominator.
        """
        through, kids = self.enl.through, self.enl.children
        shift = min(ZERO, *(values_at_enode[v] for v in through))
        label = lambda v: f"{tag};{self.enl.enode(v).label}"
        runs = self._runs
        at = {h: max(run, key=values_at_enode.__getitem__) for h, run in runs.items()}
        # each run's G - c as g[h] over d, and each term over d too
        (tops, (c,)), d = over_common((values_at_enode[v] for v in at.values()), [shift])
        g = {h: top - c for h, top in zip(at, tops)}
        y = {h: lp.add_var(f"Y[{label(h)}]") for h, run in runs.items() if kids[run[-1]]}
        term = lambda h: {y[h]: d} if h in y else dict.fromkeys(
            (self.q_var[p] for p in through[h]), g[h])
        rows: SnellRows = {h: (at[h], None, None) for h in runs}
        for h, yh in y.items():
            stop = None
            if g[h]:
                row = {yh: d, **dict.fromkeys((self.q_var[p] for p in through[h]), -g[h])}
                stop = lp.add_constraint(row, ">=", 0, name=f"stop[{label(h)}]", den=d)
            row = {yh: d}
            for kid in kids[runs[h][-1]]:
                row.update((var, -coef) for var, coef in term(kid).items())
            rows[h] = at[h], stop, lp.add_constraint(row, ">=", 0, name=f"cont[{label(h)}]", den=d)
        root: dict[int, Q] = {}
        for r in self.enl.roots:
            root.update((var, Q(v, d)) for var, v in term(r).items())
        return root, shift, rows

    def envelope_lp(
        self, values_at_enode: dict[int, Q]
    ) -> tuple[LinearProgram, Q, SnellRows]:
        """min of one Snell block's root terms on a copy of the LP, with the
        block's shift and rows (see snell_block)."""
        work = self.lp.copy()
        root, shift, rows = self.snell_block(work, values_at_enode, "env")
        work.set_objective("min", root)
        return work, shift, rows

    def hedge_from(
        self, y: IntVector, sign: int, claim_rows: SnellRows | None = None
    ) -> tuple[SemiStaticStrategy, dict[int, Q] | None]:
        """The semi-static hedge whose positions are the multipliers y.

        y holds one multiplier per row of an LP built on a copy of this
        one (rows kept in place): the duals of a max LP or a Farkas vector
        (sign +1), or the duals of a min LP (sign -1).  mart[v;d] gives H
        at (v, d), f[i] gives a_i, h[k] gives c_k with its sign flipped
        and g[j] gives b_j; the stop/cont rows of long j's Snell block give
        its liquidation flow nu_j (see _flow).  With ``claim_rows``, the
        claim's own block, their rows give the exercise weights eta of unit
        mass.  The cash x is the LP's value; nothing here is trusted until
        hedging.check_hedge has re-validated the hedge pathwise.  y's
        integers are read; a rational is built for each nonzero position.
        """
        pos = IntVector([sign * n for n in y.nums], y.den)
        strat = SemiStaticStrategy(
            stock=pos.nonzero({(v, d): r for r, v, d in self.mart_rows}),
            long_european=[pos.at(r) for r in self.f_rows],
            long_american=[pos.at(r) for r in self.g_rows],
            short_american=[-pos.at(r) for r in self.h_rows],
            liquidation=[self._flow(rows, pos, pos.nums[r])
                         for rows, r in zip(self.long_blocks, self.g_rows)],
        )
        eta = None if claim_rows is None else self._flow(claim_rows, pos, pos.den)
        return strat, eta

    def _flow(self, rows: SnellRows, pos: IntVector, top: int) -> dict[int, Q]:
        """Stop masses of one Snell block's dual flow, summing to top/pos.den on every path.

        ``top`` enters at each root.  A run with a cont row passes -pos of
        that row on to each child of its last node; whatever else entered
        the run stops at its stop node.  Dual feasibility of the Y columns
        makes that rest at least -pos of the run's stop row: raising a stop
        above it, where g - c >= 0, only adds to the hedge's gain.
        """
        kids, nums = self.enl.children, pos.nums
        inflow = dict.fromkeys(self.enl.roots, top)
        stops: dict[int, Q] = {}
        for h, run in self._runs.items():    # index order: parents before children
            mass = inflow.pop(h)
            at, stop, cont = rows[h]
            if cont is not None:
                passed = -nums[cont]
                mass -= passed
                if stop is not None and mass < -nums[stop]:
                    raise PropertyViolation(
                        f"Snell block multipliers lose mass at {self.enl.enode(h).label}")
                inflow.update((kid, passed) for kid in kids[run[-1]])
            if mass:
                stops[at] = Q(mass, pos.den)
        return stops

    def _evaluated_rows(
        self, measure: dict[int, Q]
    ) -> Iterator[tuple[str, int, Relation, int, int, int | None]]:
        """(name, lhs, relation, rhs, den, path) of the support rows (mass
        on a key that is no path of the space), the positivity, mass and
        martingale rows, then of the price rows at the model's quotes,
        evaluated at the measure; lhs and rhs are integer numerators over
        the positive den.  ``path`` is p on the positivity row of path p,
        None on every other row.

        The measure is put over one denominator dq, and the payoffs and
        quotes, tabled here per base path and node, over one dm.
        """
        enl, model = self.enl, self.enl.model
        support = range(enl.num_paths)
        (qs,), dq = over_common(measure.values())
        q = dict(zip(measure, qs))
        for p, qp in q.items():
            if p not in support and qp:
                yield f"support[p{p}]", qp, "=", 0, dq, None
        for p in support:
            yield f"pos[p{p}]", q.get(p, 0), ">=", 0, dq, p
        yield "mass", sum(q.get(p, 0) for p in support), "=", dq, dq, None
        inc, den = martingale_increments(enl, measure)
        for (v, d), val in sorted(inc.items()):
            yield f"mart[{enl.enode(v).label};{d}]", val, "=", 0, den, None
        tree = model.tree
        nodes = list(tree.nodes)
        tables, dm = over_common(
            *([*map(f.__getitem__, tree.leaves), alpha] for f, alpha in model.europeans),
            *([*map(h.__getitem__, nodes), gamma] for h, gamma in model.americans_short))
        charged = [(enl.epaths[p], qp) for p, qp in q.items() if qp and p in support]
        for i, f in enumerate(tables[:model.L]):
            lhs = sum(qp * f[ep.base_index] for ep, qp in charged)
            yield f"f[{i}]", lhs, "<=", f[-1] * dq, dq * dm, None
        for k, h in enumerate(tables[model.L:]):
            at = dict(zip(nodes, h))
            lhs = sum(qp * at[tree.paths[ep.base_index][ep.clocks[k]]] for ep, qp in charged)
            yield f"h[{k}]", lhs, ">=", h[-1] * dq, dq * dm, None
        for j, (g, beta) in enumerate(model.americans_long):
            at = {v: g[node.base] for v, node in enumerate(enl.enodes)}
            best = snell_value(enl, at, measure)
            ((lhs, rhs),), den = over_common([best, beta])
            yield f"g[{j};sup]", lhs, "<=", rhs, den, None


def _ledger_entry(name: str, lhs: int, rel: Relation, rhs: int, den: int) -> dict:
    """One failed row of MeasurePolytope.require's message, its values as 'p/q' strings;
    the margin of an equality is lhs - rhs."""
    margin = rhs - lhs if rel == "<=" else lhs - rhs
    return {"constraint": name, "lhs": ratio_str(lhs, den), "rel": rel,
            "rhs": ratio_str(rhs, den), "margin": ratio_str(margin, den)}


def build_polytope(enl: EnlargedModel) -> MeasurePolytope:
    return MeasurePolytope(enl)


class MeasureCertificate(NamedTuple):
    """A slack LP's verified outcome and its re-checked measure: strict
    no-arbitrage when the slack is positive, no measure where the polytope
    is empty.  ftap_arbitrage reads the outcome's multipliers."""

    measure: dict[int, Q] | None
    outcome: LPOutcome

    @property
    def slack(self) -> Q | None:
        """The slack LP's optimum, None exactly where the polytope is empty."""
        return self.outcome.value

    @property
    def holds(self) -> bool:
        return self.slack is not None and self.slack > 0

    def to_json(self, enl: EnlargedModel) -> dict:
        paths = sorted((self.measure or {}).items())
        return {"paths": {enl.epaths[p].label: rat_str(q) for p, q in paths}}


def ftap_certificate(
    pt: MeasurePolytope, *, prices: bool = True, floor: dict[int, Q] | None = None
) -> MeasureCertificate:
    """Maximal uniform slack over the polytope, its witness re-checked.

    The one reader of MeasurePolytope.support_slack.  By the FTAP, strict
    no-arbitrage holds iff some measure charges every path of the space and
    clears every price row strictly, so the certificate holds iff s* > 0.
    With ``prices`` False the price rows stay closed, and a positive s*
    is a full-support measure of the closed polytope; with ``floor`` (a
    selector measure P) it dominates s* * P.  The LP's measure is
    re-checked from the model data (MeasurePolytope.verdicts) on exactly
    the rows the LP slackened, whatever the sign of s*.
    """
    out = pt.support_slack(prices=prices, floor=floor)
    if out.status == "infeasible":
        return MeasureCertificate(measure=None, outcome=out)
    if out.status != "optimal":
        raise PropertyViolation(f"slack LP unexpectedly {out.status}")
    measure = out.point.nonzero(pt.q_var)
    if not all(row[-1] for row in pt.verdicts(measure, out.value, floor, prices)):
        raise PropertyViolation("slack witness failed re-validation")
    return MeasureCertificate(measure=measure, outcome=out)


def ftap_arbitrage(pt: MeasurePolytope, cert: MeasureCertificate) -> ArbitrageReport:
    """The arbitrage an ftap_certificate of pt proves, read off its slack
    LP's verified multipliers y (optimal duals, or the Farkas vector of an
    empty polytope) by hedge_from (sign +1), with x = y.b.

    Path p's column has cost 0, so sum_r y_r A_rp >= 0, and row by row that
    sum is at most Phi(p) + x - w_p (Snell blocks by _flow), w_p >= 0 the
    multiplier of p's positivity row: Phi(p) >= w_p - x.  The free slack
    column makes the slackened price rows' |y| and sum_p floor(p) w_p add up
    to 1 (0 in a Farkas vector).  So s* < 0 (x = s* by strong duality) and
    an empty polytope (x < 0) give Phi(p) >= -x > 0.  At s* = 0 the closed
    slack LP ftap_certificate(pt, prices=False) decides: a positive slack is
    a full-support measure inside the closed quotes, so no arbitrage; at
    slack 0, x = 0 and sum_p floor(p) w_p = 1: Phi(p) >= w_p >= 0, positive
    on some path.  arbitrage_witness re-checks x + Phi(p) >= 0 on every path and a
    positive expected gain, the report's gain.
    """
    if cert.slack is not None and cert.slack >= ZERO:
        if not cert.holds:
            cert = ftap_certificate(pt, prices=False)
        if cert.holds:
            return ArbitrageReport(gain=ZERO, strategy=None)
    y = cert.outcome.mult
    strat, _ = pt.hedge_from(y, 1)
    return arbitrage_witness(pt.enl, strat, _rhs_value(y, pt.lp))


def _rhs_value(y: IntVector, lp: LinearProgram) -> Q:
    """y.b over the rows of lp that y covers, summed in integers."""
    terms = [(n, row) for n, row in zip(y.nums, lp.rows) if n and row.rhs]
    e = lcm(*(row.den for _, row in terms))
    return Q(sum(n * row.rhs * (e // row.den) for n, row in terms), y.den * e)


def _certify_measure(
    pt: MeasurePolytope, side: str, claim, measure: dict[int, Q], value: Q
) -> None:
    """The measure lies in pt and values the claim at ``value``: its Snell
    value on the sub side, its expectation at the last clock on the super side."""
    pt.require(measure, f"{side} price measure")
    if side == "sub":
        got = snell_value(pt.enl, claim, measure)
    else:
        got = pt.expectation(measure, claim)
    if got != value:
        raise PropertyViolation(
            f"{side} price measure values the claim at {rat_str(got)}, not {rat_str(value)}"
        )


def price_with_dual(
    enl: EnlargedModel, side: Literal["sub", "super"]
) -> tuple[HedgeReport, MeasurePolytope]:
    """One measure LP prices the claim; the hedge is read off its duals.

    Super side (n = N + 1): max E_Q[claim at the last clock] over the
    polytope.  Sub side (n = N): min over it of the claim's Snell block.
    On a kernel family's supported space the same LP gives the
    quasi-sure price.  Both certificates are kept.  The optimal
    measure is re-checked from the model data (pt.require, then
    snell_value or the expectation must give the price).  The hedge of
    hedging.subhedge/superhedge is read off the same LP's verified duals
    by MeasurePolytope.hedge_from and re-validated pathwise by
    hedging.check_hedge.  By weak duality the two checks prove gap 0,
    which the report's ``gap`` states; its ``dual_ref`` carries the
    measure.

    An empty polytope means the hedge LP is unbounded.  The verified
    Farkas vector is then read the same way as an improving ray of that
    LP, a strategy that gains at least -(y . b) > 0 on every path, which
    hedging.unbounded_ray checks pathwise and raises as SnaFailure.  The
    polytope is returned for further checks.
    """
    claim = extend_claim(enl, side)
    sign = 1 if side == "super" else -1
    pt = build_polytope(enl)
    if side == "super":
        work, shift, claim_rows = pt.extremum_lp(claim, "max"), ZERO, None
        rhs = claim
    else:
        work, shift, claim_rows = pt.envelope_lp(claim)
        rhs = [ZERO] * enl.num_paths
    out = solve(work)
    if out.status == "infeasible":
        ray, _ = pt.hedge_from(out.mult, 1)
        raise unbounded_ray(enl, side, sign, sign * _rhs_value(out.mult, work), ray)
    if out.status != "optimal":
        raise PropertyViolation(f"{side} measure LP unexpectedly {out.status}")
    price = out.value + shift
    measure = out.point.nonzero(pt.q_var)
    _certify_measure(pt, side, claim, measure, price)
    strat, eta = pt.hedge_from(out.mult, sign, claim_rows)
    check_hedge(enl, strat, sign, price, rhs, exercise=eta, kind=side)
    report = HedgeReport(kind=side, price=price, strategy=strat, exercise=eta, lp=out,
                         measure=measure)
    return report, pt


def snell_value(enl: EnlargedModel, values_at_enode: dict[int, Q], measure: dict[int, Q]) -> Q:
    """sup over stopping times of E_Q[value at the stop], by backward induction.

    Independent oracle for the Snell blocks of the LPs: on the
    sub-forest charged by Q, Y(v) = max(m(v) * value(v), sum of Y over
    the children), m(v) being the Q-mass of the paths through v.  The
    masses are never divided, so a signed Q is valued exactly too.
    """
    charged = [p for p in range(enl.num_paths) if measure.get(p, ZERO)]
    (qs,), dq = over_common(measure[p] for p in charged)
    mass: dict[int, int] = {}
    for p, q in zip(charged, qs):
        for v in enl.epaths[p].node_seq:
            mass[v] = mass.get(v, 0) + q
    (vals,), dv = over_common(values_at_enode[v] for v in mass)
    value = dict(zip(mass, vals))
    env: dict[int, int] = {}
    for v in sorted(mass, key=lambda v: -enl.enode(v).time):
        here = mass[v] * value[v]
        kids = [c for c in enl.children.get(v, ()) if c in mass]
        env[v] = max(here, sum(env[c] for c in kids)) if kids else here
    return Q(sum(env[r] for r in enl.roots if r in mass), dq * dv)
