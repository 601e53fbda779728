"""Primal hedging: LPs over semi-static strategies on the enlarged space.

A semi-static strategy trades the stock dynamically and holds static
option positions: long Europeans a >= 0, long Americans b >= 0 exercised
by a liquidating strategy, short Americans c >= 0 whose exercise times
are the clock coordinates of the enlarged space.  The bilinear product
b * mu is linearized by the substitution nu = b * mu, so every pricing
problem below is an exact rational LP.  These hedge LPs are the
campaign's reference prices and the pricer of the revealed-clock space;
``price`` reads its hedge off the measure LP (measures.price_with_dual).
detect_arbitrage, verify's primal oracle of no arbitrage, caps its LP's
expected gain, not its positions, so every stock position is one free column.

Every LP and check here quantifies over all paths of the space it is
given; a quasi-sure problem is given a kernel family's supported space
(robust.supported_space), an EnlargedModel.restricted copy.  Which space
a side runs on (n = N to sub-hedge, N + 1 to super-hedge) is checked
once, by enlarged.extend_claim.  Liquidation masses nu_j and exercise
weights eta are plain node -> weight dicts.

check_hedge is the one pathwise re-check of a semi-static hedge, of every
row family GainLP and _hedge write; every optimizer, witness and ray
goes through it.  It runs in Python ints: each call puts the strategy,
and its own tables of the model's stock moves, payoffs and quotes, over
common denominators, and compares integer numerators.  It holds a
sub-hedge's claim as one more long American at ask 0, liquidated by eta.
"""
from __future__ import annotations

from math import lcm
from typing import NamedTuple, Sequence

from .enlarged import EnlargedModel, extend_claim
from .errors import PropertyViolation, SnaFailure
from .lp import IntVector, LinearProgram, LPOutcome, solve
from .rationals import ONE, ZERO, Q, over_common, rat, rat_str, ratio_str


class SemiStaticStrategy(NamedTuple):
    """Exact positions of one semi-static strategy on an enlarged space."""

    stock: dict[tuple[int, int], Q]      # (enlarged node index, dim) -> position
    long_european: list[Q]
    long_american: list[Q]
    short_american: list[Q]
    liquidation: list[dict[int, Q]]      # nu_j: node index -> mass (path sums = b_j)

    def to_json(self, enl: EnlargedModel) -> dict:
        lab = lambda v: enl.enode(v).label
        stock: dict[str, dict[str, str]] = {}
        for (v, d), x in self.stock.items():
            if x:
                stock.setdefault(lab(v), {})[str(d)] = rat_str(x)
        return {
            "stock": stock,
            "long_european": [rat_str(a) for a in self.long_european],
            "long_american": [rat_str(b) for b in self.long_american],
            "short_american": [rat_str(c) for c in self.short_american],
            "liquidation": [
                {lab(v): rat_str(m) for v, m in sorted(nu.items()) if m}
                for nu in self.liquidation
            ],
        }


def evaluate_gain(enl: EnlargedModel, strat: SemiStaticStrategy) -> tuple[dict[int, int], int]:
    """The one evaluator of Phi: the strategy's gain on each path of the
    space, as integer numerators over one denominator.

    Phi = H.dS + a(f - alpha) + sum_t nu_j(v_t) g_j(v_t) - b.beta
    - c(h - gamma) is recomputed straight from the model data, independently
    of GainLP.gain_coeffs and of every LP coefficient.  The positions are
    put over one common denominator, the stock moves
    (MarketModel.stock_moves) over another and the payoffs and quotes,
    tabled here per base path or node, over a third, so each gain is a sum
    of integer products.  Liquidation masses are checked to sum to b_j
    along every path.  A position on a node outside the space's forest,
    which no path would read, raises ValueError.
    """
    model = enl.model
    books = (strat.long_european, strat.long_american, strat.short_american, strat.liquidation)
    if tuple(map(len, books)) != (model.L, model.M, model.N, model.M):
        raise ValueError("strategy option counts do not match the model")
    if any(not 0 <= d < model.dim for _, d in strat.stock):
        raise ValueError("strategy stock dimensions do not match the model")
    if not {v for v, _ in strat.stock}.union(*strat.liquidation) <= enl.children.keys():
        raise ValueError("strategy positions lie on nodes outside the space")
    tree = model.tree
    nodes = list(tree.nodes)
    keys = [key for key, h in strat.stock.items() if h]
    (hs, a, b, c, *masses), dx = over_common(
        map(strat.stock.__getitem__, keys), strat.long_european, strat.long_american,
        strat.short_american, *(nu.values() for nu in strat.liquidation))
    hs = dict(zip(keys, hs))
    nus = [{v: m for v, m in zip(nu, ms) if m} for nu, ms in zip(strat.liquidation, masses)]
    moves, ds = model.stock_moves()
    # each option's values (Europeans per base path, Americans per base
    # node) followed by its quote
    tables, dm = over_common(
        *([*map(f.__getitem__, tree.leaves), alpha] for f, alpha in model.europeans),
        *([*map(g.__getitem__, nodes), beta] for g, beta in model.americans_long),
        *([*map(h.__getitem__, nodes), gamma] for h, gamma in model.americans_short))
    L, M = model.L, model.M
    europe, longs, shorts = tables[:L], tables[L:L + M], tables[L + M:]
    # per base path: a(f - alpha) - b.beta
    static = [sum(ai * (f[i] - f[-1]) for ai, f in zip(a, europe) if ai)
              - sum(bj * g[-1] for bj, g in zip(b, longs) if bj)
              for i in range(len(tree.paths))]
    longs = [dict(zip(nodes, g)) for g in longs]
    shorts = [{nid: x - h[-1] for nid, x in zip(nodes, h)} for h in shorts]
    gains: dict[int, int] = {}
    for p, ep in enumerate(enl.epaths):
        path, seq = tree.paths[ep.base_index], ep.node_seq
        trading = sum(hs.get((seq[t], d), 0) * move for t, d, move in moves[ep.base_index])
        book = static[ep.base_index]
        for j, nu in enumerate(nus):
            mass = 0
            for nid, v in zip(path, seq):
                m = nu.get(v)
                if m:
                    mass += m
                    book += m * longs[j][nid]
            if mass != b[j]:
                raise PropertyViolation(
                    f"liquidation mass {ratio_str(mass, dx)} != position "
                    f"{rat_str(strat.long_american[j])} for long American {j} on path {p}"
                )
        for ck, h, clock in zip(c, shorts, ep.clocks):
            if ck:
                book -= ck * h[path[clock]]
        gains[p] = trading * dm + book * ds
    return gains, dx * ds * dm


class GainLP:
    """Strategy variables on the enlarged space and the gain row of each path.

    Carry nodes are the nodes of the space's forest, trade nodes those of
    them with children, both in index order; the stock is one free column
    per (trade node, dim).  Each path has a gain row, which the caller
    adds; the space's tied node pairs become rows too (add_common_rows), in
    integers.  Gain rows, in rationals, read tables per base edge
    (MarketModel.base_steps), base path and base node; unlike
    MeasurePolytope's, the payoff tables are shifted by their quotes once.
    """

    def __init__(self, enl: EnlargedModel, *, add_x: bool = False) -> None:
        self.enl = enl
        self.model = enl.model
        self.lp = LinearProgram()
        self.x = self.lp.add_var("x", nonneg=False) if add_x else None

        self.carry_nodes = list(enl.children)
        self.stock = {
            (v, d): self.lp.add_var(f"H[{enl.enode(v).label};{d}]", nonneg=False)
            for v, kids in enl.children.items() if kids for d in range(self.model.dim)
        }
        # the static book a[i], b[j], c[k], listed per kind
        self.static = {
            kind: [self.lp.add_var(f"{kind}[{i}]") for i in range(count)]
            for kind, count in (("a", self.model.L), ("b", self.model.M), ("c", self.model.N))
        }
        self.nu_var = [
            {v: self.lp.add_var(f"nu[{j};{enl.enode(v).label}]") for v in self.carry_nodes}
            for j in range(self.model.M)
        ]
        model, tree = self.model, self.model.tree
        steps, den = model.base_steps()
        self.steps = {nid: tuple(Q(m, den) for m in move) for nid, move in steps.items()}
        self.europe = [[f[path[-1]] - alpha for path in tree.paths]
                       for f, alpha in model.europeans]
        self.longs = [(g, -beta) for g, beta in model.americans_long]
        self.shorts = [{nid: gamma - x for nid, x in h.items()}
                       for h, gamma in model.americans_short]

    def gain_coeffs(self, p: int) -> dict[int, Q]:
        """Coefficient map of Phi(path p) over the strategy variables.

        Phi is the stock gain H_t . (S_{t+1} - S_t), the Europeans
        a_i (f_i - alpha_i), the longs nu_j(v_t) g_j(v_t) - b_j beta_j
        and the shorts -c_k (h_k - gamma_k) at clock k, along the base
        path of p; evaluate_gain re-checks it without reading this map.
        """
        ep = self.enl.epaths[p]
        path, seq = self.model.tree.paths[ep.base_index], ep.node_seq
        # each variable enters once (one node per date), so its term is its
        # coefficient; the zero ones are dropped
        row: dict[int, Q] = {}
        for v, nid in zip(seq, path[1:]):
            for d, move in enumerate(self.steps[nid]):
                row[self.stock[(v, d)]] = move
        for a, f in zip(self.static["a"], self.europe):
            row[a] = f[ep.base_index]
        for b, nu, (g, minus_beta) in zip(self.static["b"], self.nu_var, self.longs):
            row[b] = minus_beta
            for nid, v in zip(path, seq):
                row[nu[v]] = g[nid]
        for c, h, clock in zip(self.static["c"], self.shorts, ep.clocks):
            row[c] = h[path[clock]]
        return {var: val for var, val in row.items() if val}

    def tie(self, var: dict[int, int], name: str) -> None:
        """var takes one value on both nodes of each tied pair of the space."""
        for v, w in self.enl.tied_pairs:
            self.lp.add_constraint({var[v]: 1, var[w]: -1}, "=", 0, name=f"{name}[{v}~{w}]", den=1)

    def add_common_rows(self) -> None:
        """Rows every user adds after its path rows.

        Path sums of each nu_j equal the position b_j (mu is divisible),
        and H and each nu_j agree on the space's tied pairs.
        """
        for j, nu in enumerate(self.nu_var):
            for p, ep in enumerate(self.enl.epaths):
                row = {nu[v]: 1 for v in ep.node_seq}
                row[self.static["b"][j]] = -1
                self.lp.add_constraint(row, "=", 0, name=f"liq[{j};p{p}]", den=1)
        for v, w in self.enl.tied_pairs:
            for d in range(self.model.dim):
                row = {self.stock[(v, d)]: 1, self.stock[(w, d)]: -1}
                self.lp.add_constraint(row, "=", 0, name=f"tie_H[{v}~{w};{d}]", den=1)
        for j, nu in enumerate(self.nu_var):
            self.tie(nu, f"tie_nu[{j}]")

    def strategy_at(self, point: IntVector) -> SemiStaticStrategy:
        """The strategy whose positions are an LP point's (or ray's) entries."""
        book = {kind: [point.at(var) for var in vs] for kind, vs in self.static.items()}
        return SemiStaticStrategy(
            stock=point.nonzero(self.stock),
            long_european=book["a"],
            long_american=book["b"],
            short_american=book["c"],
            liquidation=[point.nonzero(nu) for nu in self.nu_var],
        )


class HedgeReport(NamedTuple):
    """A price with its hedge on one space, from a hedge LP or read off the
    measure LP's duals (measures.price_with_dual), with enough data to
    re-validate: the solve's verified outcome is kept as ``lp``."""

    kind: str
    price: Q
    strategy: SemiStaticStrategy
    exercise: dict[int, Q] | None    # eta for sub-hedging: node -> exercise weight
    lp: LPOutcome
    measure: dict[int, Q] | None = None    # the price's measure, if any

    @property
    def gap(self) -> Q | None:
        """0 where price_with_dual re-checked a measure at the price, else unknown."""
        return ZERO if self.measure else None

    def to_json(self, enl: EnlargedModel) -> dict:
        measure = {enl.epaths[p].label: rat_str(q) for p, q in sorted((self.measure or {}).items())}
        doc = {
            "strategy": self.strategy.to_json(enl),
            "dual_ref": {"measure": measure} if measure else None,
            "paths": enl.num_paths,
        }
        if self.exercise is not None:
            doc["exercise"] = {
                enl.enode(v).label: rat_str(w) for v, w in sorted(self.exercise.items()) if w
            }
        return doc


def nonanticipative(enl: EnlargedModel, strat: SemiStaticStrategy) -> bool:
    """Positions and liquidation masses agree on every tied pair of the
    space (EnlargedModel.tied_pairs)."""
    return all(
        all(strat.stock.get((v, d), ZERO) == strat.stock.get((w, d), ZERO)
            for d in range(enl.model.dim))
        and all(nu.get(v, ZERO) == nu.get(w, ZERO) for nu in strat.liquidation)
        for v, w in enl.tied_pairs
    )


def check_hedge(
    enl: EnlargedModel,
    strat: SemiStaticStrategy,
    sign: Q,
    x: Q,
    rhs: Sequence[Q],
    *,
    exercise: dict[int, Q] | None = None,
    kind: str,
) -> tuple[dict[int, int], int]:
    """Re-validate a hedge on every path: sign*x + Phi(p) >= rhs(p).

    Independent of any LP.  Phi comes from evaluate_gain, which also
    checks that each nu_j sums to b_j along every path, on nodes of the
    space's forest (ValueError otherwise); the static book and every
    liquidation mass must be nonnegative, and the hedge must be
    nonanticipative on the space's tied pairs.  With ``exercise`` the
    claim is held divisibly, as one more long American at ask 0: a
    position of 1 liquidated by the exercise weights eta, which the checks
    above hold to unit mass, and which add sum_t eta(v_t) * claim(v_t) to
    Phi(p).  The caller has checked the space (extend_claim(enl, "sub")).
    Both sides are compared as integers over one denominator.  Returns
    evaluate_gain's gains, the held claim's included.
    """
    if exercise is not None:
        model = enl.model
        enl = enl.with_model(model._replace(
            americans_long=[*model.americans_long, (model.claim, ZERO)]))
        strat = strat._replace(long_american=[*strat.long_american, ONE],
                               liquidation=[*strat.liquidation, exercise])
    books = (strat.long_european, strat.long_american, strat.short_american,
             *(nu.values() for nu in strat.liquidation))
    if any(val < ZERO for book in books for val in book):
        raise PropertyViolation(f"{kind} hedge holds a negative static or exercise position")
    if not nonanticipative(enl, strat):
        raise PropertyViolation(f"{kind} hedge is not non-anticipative")
    gains, dg = evaluate_gain(enl, strat)
    ((cash, *bound),), dr = over_common([sign * x, *(rhs[p] for p in gains)])
    den = lcm(dr, dg)
    sr, sg = den // dr, den // dg
    for (p, gain), r in zip(gains.items(), bound):
        lhs = cash * sr + gain * sg
        if lhs < r * sr:
            raise PropertyViolation(
                f"{kind} hedge fails on path {p}: {ratio_str(lhs, den)} < {rat_str(rhs[p])}"
            )
    return gains, dg


def unbounded_ray(
    enl: EnlargedModel, kind: str, sign: Q, x: Q, ray: SemiStaticStrategy
) -> SnaFailure:
    """The SnaFailure of an improving ray (x, ray) of the hedge LP
    sign*x + Phi(p) + extra(p) >= rhs(p), re-checked pathwise first.

    The ray must improve (sign*x < 0) and check_hedge must pass
    sign*x + Phi(p) >= 0 on every path, so the ray's strategy gains at
    least |x| > 0 on every path.  A ray's exercise weights have zero mass
    on every path, so none are held.  The refusal is its message alone;
    ``ftap`` is the command that reports an arbitrage witness.
    """
    if sign * x >= ZERO:
        raise PropertyViolation(f"{kind} hedge ray does not improve")
    check_hedge(enl, ray, sign, x, [ZERO] * enl.num_paths, kind=f"{kind} ray")
    return SnaFailure(f"{kind} hedging price is unbounded: the market admits arbitrage")


def _hedge(enl: EnlargedModel, kind: str, sign: Q, rhs: Sequence[Q]) -> HedgeReport:
    """The one hedging LP: sign*x + Phi(p) + extra(p) >= rhs(p) on every path.

    sign -1 maximizes x (a sub-hedge), sign +1 minimizes it (a
    super-hedge).  On the sub side (kind "sub") the claim is held
    divisibly: exercise weights eta of unit mass per path add extra(p) =
    sum_t eta(v_t) * value(v_t), the values of extend_claim(enl, "sub"),
    and eta is tied like H and nu on the space's tied pairs.  The optimum
    is re-validated by check_hedge, a ray by unbounded_ray.  This LP is
    the reference of the campaign's duality check and the pricer of the
    divisibility battery, on the enlarged and the revealed-clock space;
    ``price`` solves the measure LP of measures.price_with_dual instead.
    """
    claim = extend_claim(enl, "sub") if kind == "sub" else None
    g = GainLP(enl, add_x=True)
    eta_var = {} if claim is None else {
        v: g.lp.add_var(f"eta[{enl.enode(v).label}]") for v in g.carry_nodes}
    for p, ep in enumerate(enl.epaths):
        seq = ep.node_seq
        row = g.gain_coeffs(p)
        if eta_var:
            row.update((eta_var[v], claim[v]) for v in seq if claim[v])
        row[g.x] = sign
        g.lp.add_constraint(row, ">=", rhs[p], name=f"hedge[p{p}]")
        if eta_var:
            g.lp.add_constraint({eta_var[v]: 1 for v in seq}, "=", 1, name=f"unit[p{p}]", den=1)
    g.add_common_rows()
    if eta_var:
        g.tie(eta_var, "tie_eta")
    g.lp.set_objective("min" if sign > 0 else "max", {g.x: ONE})
    out = solve(g.lp)
    if out.status == "unbounded":
        raise unbounded_ray(enl, kind, sign, out.point.at(g.x), g.strategy_at(out.point))
    if out.status != "optimal":
        raise PropertyViolation(f"{kind} hedge LP unexpectedly {out.status}")
    eta = out.point.nonzero(eta_var) if eta_var else None
    report = HedgeReport(kind=kind, price=out.value, strategy=g.strategy_at(out.point),
                         exercise=eta, lp=out)
    check_hedge(enl, report.strategy, sign, report.price, rhs, exercise=eta, kind=kind)
    return report


def subhedge(enl: EnlargedModel) -> HedgeReport:
    """Largest x dominated by the claim held divisibly plus a strategy.

    max x  s.t.  Phi(p) + sum_t eta(v_t) phi(v_t) >= x on every path,
    eta a liquidating strategy, on the n = N enlargement.  Unbounded
    means the market itself admits unbounded riskless gain, reported as
    an SNA failure.
    """
    return _hedge(enl, "sub", -ONE, [ZERO] * enl.num_paths)


def superhedge(enl: EnlargedModel) -> HedgeReport:
    """Smallest x such that x plus a strategy dominates the claim payoff.

    Runs on the n = N + 1 enlargement whose extra clock is the claim
    holder's exercise time: min x s.t. x + Phi(p) >= phi at the last
    clock, on every path.
    """
    return _hedge(enl, "super", ONE, extend_claim(enl, "super"))


def subhedge_european(enl: EnlargedModel, psi: Sequence[Q]) -> HedgeReport:
    """Sub-hedging price of a path payoff psi: max x s.t. Phi + psi >= x."""
    if len(psi) != enl.num_paths:
        raise ValueError("psi must give one value per enlarged path")
    return _hedge(enl, "sub_european", -ONE, [-rat(v) for v in psi])


class ArbitrageReport(NamedTuple):
    """A witness's expected gain under the space's path weights (0 and no
    strategy where none exists)."""

    gain: Q
    strategy: SemiStaticStrategy | None

    @property
    def found(self) -> bool:
        return self.gain > 0

    def to_json(self, enl: EnlargedModel) -> dict:
        return {
            "found": self.found,
            "gain": rat_str(self.gain),
            "strategy": self.strategy.to_json(enl) if self.strategy else None,
        }


def arbitrage_witness(enl: EnlargedModel, strat: SemiStaticStrategy, x: Q) -> ArbitrageReport:
    """The report of a witness: cash x <= 0, x + Phi(p) >= 0 on every path (check_hedge)
    and a positive expected gain under the path weights, the report's gain."""
    if x > ZERO:
        raise PropertyViolation(f"arbitrage witness starts from cash {rat_str(x)} > 0")
    gains, den = check_hedge(enl, strat, ONE, x, [ZERO] * enl.num_paths,
                             kind="arbitrage witness")
    (weights,), dw = over_common(enl.weights)
    gain = Q(sum(w * g for w, g in zip(weights, gains.values())), dw * den)
    if gain <= ZERO:
        raise PropertyViolation("arbitrage witness has no positive expected gain")
    return ArbitrageReport(gain=gain, strategy=strat)


def detect_arbitrage(enl: EnlargedModel) -> ArbitrageReport:
    """Search for a nonnegative gain with positive expectation.

    max sum_p w(p) Phi(p)  s.t.  Phi(p) >= 0 on every path and the row
    ``cap``, sum_p w(p) Phi(p) <= 1.  The strategies with Phi >= 0 on every
    path form a cone and the cap bounds only the objective, so the optimum
    is 0 exactly when no arbitrage exists and 1 otherwise (a strategy of
    positive expected gain scales onto the cap).  The origin is feasible
    and the objective bounded; the optimizer is returned as a witness.
    """
    g = GainLP(enl)
    rows = [g.lp.rows[g.lp.add_constraint(g.gain_coeffs(p), ">=", ZERO, name=f"nonneg[p{p}]")]
            for p in range(enl.num_paths)]
    # the objective in integers: path weights over dw, the stored path rows
    # over the lcm dc of their denominators
    (weights,), dw = over_common(enl.weights)
    dc = lcm(*{row.den for row in rows})
    sums: dict[int, int] = {}
    for w, row in zip(weights, rows):
        for var, a in row.coeffs.items():
            sums[var] = sums.get(var, 0) + w * a * (dc // row.den)
    g.add_common_rows()
    g.lp.add_constraint(sums, "<=", dw * dc, name="cap", den=dw * dc)
    g.lp.set_objective("max", sums, den=dw * dc)
    out = solve(g.lp)
    if out.status != "optimal":
        raise PropertyViolation(f"arbitrage LP unexpectedly {out.status}")
    if out.value == ZERO:
        return ArbitrageReport(gain=ZERO, strategy=None)
    if out.value != ONE:
        raise PropertyViolation(f"arbitrage LP optimum {out.value} is neither 0 nor 1")
    report = arbitrage_witness(enl, g.strategy_at(out.point), ZERO)
    if report.gain != out.value:
        raise PropertyViolation("arbitrage witness expectation mismatch")
    return report
