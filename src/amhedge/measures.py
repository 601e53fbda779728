"""Dual side: martingale measures on the enlarged space.

The dual objects are probability measures Q on enlarged paths under
which the stock is a martingale and quoted option prices are
consistent: buy-side expectations at or below asks, sell-side at or
above bids, and for each longed American the best stopped expectation
sup_tau E_Q[g_tau] at or below its ask.  That supremum is written as one
mass-weighted Snell-envelope block, linear in Q and of the size of the
support forest, which keeps the feasible set an honest polytope in Q.
That polytope, MeasurePolytope, is the one input of every dual,
certificate and transport below, except dp_superhedge, which folds a
terminal payoff back over the forest by one-step LPs.  In this module
only the oracle e2_chain enumerates stopping times.

Every polytope, price and re-check here runs over all paths of the space
it is given; the quasi-sure ones are given a kernel family's supported
space (robust.supported_space), whose forest is the support forest.

A measure is re-checked from the model data, never from an LP, and in
Python ints (MeasurePolytope.check/require, martingale_increments,
expectation, snell_value): each call puts the measure, and its own tables
of the stock moves, payoffs and quotes, over common denominators.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Literal, Sequence

from .enlarged import EnlargedModel, extend_claim
from .errors import PropertyViolation, SnaFailure
from .hedging import (ArbitrageReport, HedgeReport, SemiStaticStrategy, arbitrage_witness,
                      check_hedge, detect_arbitrage, unbounded_ray)
from .lp import LinearProgram, LPOutcome, Relation, max_slack, solve
from .market import MarketModel
from .rationals import ONE, ZERO, Q, over_common, rat_str, ratio_str
from .strategies import StoppingTime, enlarged_stopping_times


# mixture weights 1/2, 1/4, ... tried by the strict-interior line searches
_HALVINGS = 12

# per run head of a Snell block: (stop node, stop row or None, cont row or None)
SnellRows = dict[int, tuple[int, int | None, int | None]]


def _add_martingale_rows(
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
    return lp, q_var, _add_martingale_rows(lp, moves, den, str)


@dataclass
class DpReport:
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
        raise SnaFailure(f"no one-step martingale law at {nid} (local arbitrage)",
                         certificate={"node": nid})
    if out.status != "optimal":
        raise PropertyViolation(f"one-step LP unexpectedly {out.status} at {nid}")
    ratios = {d: out.duals[r] for r, _, d in mart_rows}
    here = model.stock.at(nid)
    for c, val in succ:
        gain = sum((h * (model.stock.at(c)[d] - here[d]) for d, h in ratios.items()), ZERO)
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
        dims=model.stock.dim, stock=strategy, long_european=[ZERO] * model.L,
        long_american=[ZERO] * model.M, short_american=[ZERO] * model.N,
        liquidation=[{} for _ in range(model.M)])
    check_hedge(enl, stock_only, ONE, value, zeta, kind="dp")
    return DpReport(value=value, strategy=strategy, lp_count=len(solved))


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

    The builder reads tables: the stock move of each base edge in
    integers (MarketModel.base_steps), shared by every enlarged path over
    it, and the payoffs per leaf and per base node; only the price rows
    and Snell blocks go in as rationals.  The re-checks (check/require)
    read none of them; they build their own from the model.
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
        self.mart_rows = _add_martingale_rows(self.lp, moves, den, lambda v: enl.enode(v).label)

        self.f_rows: list[int] = []
        # add_constraint drops the zero coefficients
        for i, (payoff, alpha) in enumerate(model.europeans):
            at = [payoff.at(path[-1]) for path in tree.paths]
            row = {var: at[ep.base_index] for var, ep in support}
            self.f_rows.append(self.lp.add_constraint(row, "<=", alpha, name=f"f[{i}]"))
        self.h_rows: list[int] = []
        for k, (proc, gamma) in enumerate(model.americans_short):
            at = {nid: proc.scalar(nid) for nid in tree.nodes}
            row = {var: at[tree.paths[ep.base_index][ep.clocks[k]]] for var, ep in support}
            self.h_rows.append(self.lp.add_constraint(row, ">=", gamma, name=f"h[{k}]"))

        # longed Americans: sup over stopping times by one Snell block each
        self.g_rows: list[int] = []
        self.long_blocks: list[SnellRows] = []
        self.long_values = [
            {v: proc.scalar(node.base) for v, node in enumerate(enl.enodes)}
            for proc, _ in model.americans_long
        ]
        self.long_shifts: list[Q] = []
        first = self.lp.num_rows
        for j, (_, beta) in enumerate(model.americans_long):
            root, shift, rows = self.snell_block(self.lp, self.long_values[j], f"g{j}")
            self.long_blocks.append(rows)
            self.long_shifts.append(shift)
            self.g_rows.append(self.lp.add_constraint(root, "<=", beta - shift, name=f"g[{j}]"))
        self.num_tau_rows = self.lp.num_rows - first

    @property
    def price_rows(self) -> list[int]:
        return [*self.f_rows, *self.h_rows, *self.g_rows]

    def expectation(self, measure: dict[int, Q], values: dict[int, Q] | Sequence[Q]) -> Q:
        """E_Q[values] on the space, summed in integers over one denominator."""
        charged = [p for p in self.q_var if measure.get(p, ZERO)]
        (qs, vs), den = over_common((measure[p] for p in charged), (values[p] for p in charged))
        return Q(sum(q * v for q, v in zip(qs, vs)), den * den)

    def extremum_lp(
        self, values: dict[int, Q] | Sequence[Q], sense: Literal["max", "min"]
    ) -> LinearProgram:
        """E_Q[values] as the objective of a copy of the LP."""
        work = self.lp.copy()
        work.set_objective(sense, {var: values[p] for p, var in self.q_var.items() if values[p]})
        return work

    def solve_extremum(
        self, values: dict[int, Q] | Sequence[Q], sense: Literal["max", "min"]
    ) -> tuple[Q, dict[int, Q], LPOutcome]:
        out, measure = self._solve_measure(self.extremum_lp(values, sense))
        return out.value, measure, out

    def _solve_measure(self, work: LinearProgram) -> tuple[LPOutcome, dict[int, Q]]:
        """Solve an LP built on a copy of this one; empty means an SNA failure."""
        out = solve(work)
        if out.status == "infeasible":
            raise SnaFailure(
                "martingale polytope is empty at these prices",
                certificate={"farkas": [rat_str(y) for y in out.farkas or []]},
            )
        if out.status != "optimal":
            raise PropertyViolation(f"measure LP unexpectedly {out.status}")
        return out, {p: out.x(v) for p, v in self.q_var.items() if out.x(v)}

    def support_slack(self, *, prices: bool, floor: dict[int, Q] | None = None) -> LPOutcome:
        """Largest slack s with Q(p) >= s * floor(p) on the paths of ``floor``
        (1 on every path by default), and every price row cleared by s if asked.

        The floor rows go on a copy of the LP, after every other row.
        ftap_certificate alone reads the outcome, and re-checks its witness.
        """
        floor = dict.fromkeys(self.q_var, ONE) if floor is None else floor
        work = self.lp.copy()
        rows = dict.fromkeys(self.price_rows if prices else (), ONE)
        for p, w in sorted(floor.items()):
            rows[work.add_constraint({self.q_var[p]: 1}, ">=", 0, name=f"pos[p{p}]", den=1)] = w
        return max_slack(work, rows)

    # -- independent re-validation ----------------------------------------

    def require(self, measure: dict[int, Q], what: str) -> None:
        """Raise unless check() passes, naming the first failed rows."""
        bad = [_ledger_entry(*row) for row in self._verdicts(measure) if not row[-1]]
        if bad:
            raise PropertyViolation(f"{what} left the polytope: {bad[:3]}")

    def check(
        self,
        measure: dict[int, Q],
        *,
        min_slack: Q | None = None,
        floor: dict[int, Q] | None = None,
        prices: bool = True,
    ) -> tuple[bool, list[dict]]:
        """Re-evaluate every constraint directly from the data of enl.model.

        With ``min_slack`` s, the rows support_slack slackens at the same
        ``floor`` and ``prices`` must clear their bounds by at least s
        times their weight: Q(p) >= s * floor(p) (1 on every path by
        default, 0 off its paths), and each price row by s, or with
        ``prices`` False by 0.  Positivity holds with Q(p) >= 0 as well.
        No LP state is consulted.
        """
        ledger = [_ledger_entry(*row)
                  for row in self._verdicts(measure, min_slack, floor, prices)]
        return all(e["ok"] for e in ledger), ledger

    def _verdicts(
        self, measure: dict[int, Q], min_slack: Q | None = None,
        floor: dict[int, Q] | None = None, prices: bool = True, strict: bool = False,
    ) -> Iterator[tuple[str, int, Relation, int, int, bool]]:
        """(name, lhs, relation, rhs, den, ok) of each row of _evaluated_rows,
        judged as check says; with ``strict``, margins must be positive."""
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
        non-leaf node branches, each run is one node.
        """
        through, kids = self.enl.through, self.enl.children
        shift = min(ZERO, *(values_at_enode[v] for v in through))
        label = lambda v: f"{tag};{self.enl.enode(v).label}"
        runs = self._runs
        at = {h: max(run, key=lambda v: values_at_enode[v]) for h, run in runs.items()}
        y = {h: lp.add_var(f"Y[{label(h)}]") for h, run in runs.items() if kids[run[-1]]}

        def term(h: int) -> dict[int, Q]:
            if h in y:
                return {y[h]: ONE}
            return {self.q_var[p]: values_at_enode[at[h]] - shift for p in through[h]}

        rows: SnellRows = {h: (at[h], None, None) for h in runs}
        for h, yh in y.items():
            stop = None
            best = values_at_enode[at[h]]
            if best != shift:
                row = {yh: ONE, **{self.q_var[p]: shift - best for p in through[h]}}
                stop = lp.add_constraint(row, ">=", ZERO, name=f"stop[{label(h)}]")
            row = {yh: ONE}
            for kid in kids[runs[h][-1]]:
                row.update((var, -coef) for var, coef in term(kid).items())
            rows[h] = at[h], stop, lp.add_constraint(row, ">=", ZERO, name=f"cont[{label(h)}]")
        root: dict[int, Q] = {}
        for r in self.enl.roots:
            root.update(term(r))
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

    def stopped_envelope(self, values_at_enode: dict[int, Q]) -> tuple[Q, dict[int, Q]]:
        """min over the polytope of sup over stopping times of E_Q[value at the stop].

        Returns the value and the optimal measure.
        """
        work, shift, _ = self.envelope_lp(values_at_enode)
        out, measure = self._solve_measure(work)
        return out.value + shift, measure

    def at_quotes(self, enl: EnlargedModel) -> "MeasurePolytope":
        """This polytope at the quotes of enl, this space for another model
        (EnlargedModel.with_model) with the same stock and payoff processes:
        a copy of the LP with only the price rows' right-hand sides moved,
        to the new alpha, gamma and beta minus the Snell block's shift."""
        if enl.epaths is not self.enl.epaths:
            raise ValueError("at_quotes needs this space, from EnlargedModel.with_model")
        old, new = self.enl.model, enl.model
        books = [(old.europeans, new.europeans), (old.americans_long, new.americans_long),
                 (old.americans_short, new.americans_short)]
        if new.stock is not old.stock or any(
            len(a) != len(b) or any(x is not y for (x, _), (y, _) in zip(a, b)) for a, b in books
        ):
            raise ValueError("at_quotes needs the same stock and payoff processes")
        other = copy.copy(self)
        other.enl = enl
        other.lp = self.lp.copy()
        quotes = [(r, alpha) for r, (_, alpha) in zip(self.f_rows, new.europeans)]
        quotes += [(r, gamma) for r, (_, gamma) in zip(self.h_rows, new.americans_short)]
        quotes += [(r, beta - shift) for r, shift, (_, beta)
                   in zip(self.g_rows, self.long_shifts, new.americans_long)]
        for r, rhs in quotes:
            other.lp.put(r, rhs)
        return other

    def hedge_from(
        self,
        y: Sequence[Q],
        sign: Q,
        claim_rows: SnellRows | None = None,
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
        hedging.check_hedge has re-validated the hedge pathwise.
        """
        pos = [sign * v for v in y]
        longs = [pos[r] for r in self.g_rows]
        strat = SemiStaticStrategy(
            dims=self.enl.model.stock.dim,
            stock={(v, d): pos[r] for r, v, d in self.mart_rows if pos[r]},
            long_european=[pos[r] for r in self.f_rows],
            long_american=longs,
            short_american=[-pos[r] for r in self.h_rows],
            liquidation=[self._flow(rows, pos, b) for rows, b in zip(self.long_blocks, longs)],
        )
        eta = None if claim_rows is None else self._flow(claim_rows, pos, ONE)
        return strat, eta

    def _flow(self, rows: SnellRows, pos: Sequence[Q], top: Q) -> dict[int, Q]:
        """Stop masses of one Snell block's dual flow, summing to ``top`` on every path.

        ``top`` enters at each root.  A run with a cont row passes -pos of
        that row on to each child of its last node; whatever else entered
        the run stops at its stop node.  Dual feasibility of the Y columns
        makes that rest at least -pos of the run's stop row: raising a stop
        above it, where g - c >= 0, only adds to the hedge's gain.
        """
        kids = self.enl.children
        inflow = dict.fromkeys(self.enl.roots, top)
        stops: dict[int, Q] = {}
        for h, run in self._runs.items():    # index order: parents before children
            mass = inflow.pop(h)
            at, stop, cont = rows[h]
            if cont is not None:
                passed = -pos[cont]
                mass -= passed
                if stop is not None and mass < -pos[stop]:
                    raise PropertyViolation(
                        f"Snell block multipliers lose mass at {self.enl.enode(h).label}")
                inflow.update((kid, passed) for kid in kids[run[-1]])
            if mass:
                stops[at] = mass
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
            *([*map(f.at, tree.leaves), alpha] for f, alpha in model.europeans),
            *([*map(h.scalar, nodes), gamma] for h, gamma in model.americans_short))
        charged = [(enl.epaths[p], qp) for p, qp in q.items() if qp and p in support]
        for i, f in enumerate(tables[:model.L]):
            lhs = sum(qp * f[ep.base_index] for ep, qp in charged)
            yield f"f[{i}]", lhs, "<=", f[-1] * dq, dq * dm, None
        for k, h in enumerate(tables[model.L:]):
            at = dict(zip(nodes, h))
            lhs = sum(qp * at[tree.paths[ep.base_index][ep.clocks[k]]] for ep, qp in charged)
            yield f"h[{k}]", lhs, ">=", h[-1] * dq, dq * dm, None
        for j, (g, beta) in enumerate(model.americans_long):
            at = {v: g.scalar(node.base) for v, node in enumerate(enl.enodes)}
            best = snell_value(enl, at, measure)
            ((lhs, rhs),), den = over_common([best, beta])
            yield f"g[{j};sup]", lhs, "<=", rhs, den, None


def _ledger_entry(name: str, lhs: int, rel: Relation, rhs: int, den: int, ok: bool) -> dict:
    """One row of MeasurePolytope.check's ledger, its values as 'p/q' strings."""
    margin = rhs - lhs if rel == "<=" else lhs - rhs
    return {
        "constraint": name,
        "lhs": ratio_str(lhs, den),
        "rel": rel,
        "rhs": ratio_str(rhs, den),
        "margin": ratio_str(margin, den) if rel != "=" else "0/1",
        "ok": ok,
    }


def build_polytope(enl: EnlargedModel) -> MeasurePolytope:
    return MeasurePolytope(enl)


@dataclass
class MeasureCertificate:
    """The best uniform slack of a slack LP with its re-checked measure: a
    witness of (strict) no-arbitrage when the slack is positive, the best
    failed slack otherwise, no measure where the polytope is empty.  The
    slack LP's verified outcome is kept for ftap_arbitrage."""

    measure: dict[int, Q] | None
    slack: Q | None
    ledger: list[dict] = field(default_factory=list)
    outcome: LPOutcome | None = None

    @property
    def holds(self) -> bool:
        return self.slack is not None and self.slack > 0

    def to_json(self, enl: EnlargedModel) -> dict:
        return {
            "paths": {
                enl.epaths[p].label: rat_str(q) for p, q in sorted((self.measure or {}).items())
            },
            "slack": rat_str(self.slack) if self.slack is not None else None,
            "ledger": self.ledger,
        }


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
    re-checked from the model data on exactly the rows the LP slackened,
    whatever the sign of s*.
    """
    out = pt.support_slack(prices=prices, floor=floor)
    if out.status == "infeasible":
        return MeasureCertificate(
            measure=None,
            slack=None,
            ledger=[{"constraint": "existence", "ok": False, "note": "no martingale measure"}],
            outcome=out,
        )
    if out.status != "optimal":
        raise PropertyViolation(f"slack LP unexpectedly {out.status}")
    measure = {p: out.x(v) for p, v in pt.q_var.items() if out.x(v)}
    ok, ledger = pt.check(measure, min_slack=out.value, floor=floor, prices=prices)
    if not ok:
        raise PropertyViolation("slack witness failed re-validation")
    return MeasureCertificate(measure=measure, slack=out.value, ledger=ledger, outcome=out)


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
    y = cert.outcome.duals if cert.slack is not None else cert.outcome.farkas
    strat, _ = pt.hedge_from(y, ONE)
    return arbitrage_witness(pt.enl, strat, _rhs_value(y, pt.lp))


def _rhs_value(y: Sequence[Q], lp: LinearProgram) -> Q:
    """y.b over the rows of lp that y covers."""
    return sum((v * Q(row.rhs, row.den) for v, row in zip(y, lp.rows) if v), ZERO)


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
            raise PropertyViolation(
                "dual slack promises SNA but shifted prices admit arbitrage"
            )
    return cert


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
    which the report's ``gap`` states and its ``dual_ref`` carries with
    the measure.

    An empty polytope means the hedge LP is unbounded.  The verified
    Farkas vector is then read the same way as an improving ray of that
    LP, a strategy that gains at least -(y . b) > 0 on every path, which
    hedging.unbounded_ray checks pathwise and raises as SnaFailure.  The
    polytope is returned for further checks.
    """
    claim = extend_claim(enl, side)
    sign = ONE if side == "super" else -ONE
    pt = build_polytope(enl)
    if side == "super":
        work, shift, claim_rows = pt.extremum_lp(claim, "max"), ZERO, None
        rhs = claim
    else:
        work, shift, claim_rows = pt.envelope_lp(claim)
        rhs = [ZERO] * enl.num_paths
    out = solve(work)
    if out.status == "infeasible":
        ray, _ = pt.hedge_from(out.farkas, ONE)
        raise unbounded_ray(enl, side, sign, sign * _rhs_value(out.farkas, work), ray)
    if out.status != "optimal":
        raise PropertyViolation(f"{side} measure LP unexpectedly {out.status}")
    price = out.value + shift
    measure = {p: out.x(v) for p, v in pt.q_var.items() if out.x(v)}
    _certify_measure(pt, side, claim, measure, price)
    strat, eta = pt.hedge_from(out.duals, sign, claim_rows)
    check_hedge(enl, strat, sign, price, rhs, exercise=eta, kind=side)
    report = HedgeReport(
        kind=side,
        price=price,
        strategy=strat,
        exercise=eta,
        lp_rows=out.rows,
        lp_cols=out.cols,
        pivots=out.pivots,
        measure=measure,
    )
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
        if not q:
            continue
        ep = enl_from.epaths[p]
        for t, share in clock(ep.node_seq):
            tgt = enl_to.path_index(ep.base_index, ep.clocks + (t,))
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


@dataclass
class PushReport:
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
        if all(row[-1] for row in pt._verdicts(mixed, strict=True)):
            return PushReport(pushed=pushed, value=value, lam=lam)
    raise PropertyViolation("no mixture weight kept the pushed measure strictly inside")


@dataclass
class ChainReport:
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
    middle = max(pt.solve_extremum(vec, "max")[0] for vec in vecs.values())
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
        if not all(row[-1] for row in pt._verdicts(mixed, strict=True)):
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
