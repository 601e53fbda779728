"""Primal hedging: LPs over semi-static strategies on the enlarged space.

A semi-static strategy trades the stock dynamically and holds static
option positions: long Europeans a >= 0, long Americans b >= 0 exercised
by a liquidating strategy, short Americans c >= 0 whose exercise times
are the clock coordinates of the enlarged space.  The bilinear product
b * mu is linearized by the substitution nu = b * mu, so every pricing
problem below is an exact rational LP.

GainLP takes its nodes from EnlargedModel.subforest.  Which space a side
runs on (n = N to sub-hedge, N + 1 to super-hedge) is checked once, by
enlarged.extend_claim.  Liquidation masses nu_j and exercise weights eta
are plain node -> weight dicts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from .enlarged import EnlargedModel, extend_claim
from .errors import PropertyViolation, SnaFailure
from .lp import LinearProgram, solve
from .market import MarketModel
from .rationals import ONE, ZERO, Q, rat, rat_str


def evaluate_gain(
    model: MarketModel,
    base_index: int,
    clocks: Sequence[int],
    stock: Sequence[Sequence[Q]],
    *,
    a: Sequence[Q] = (),
    b: Sequence[Q] = (),
    c: Sequence[Q] = (),
    nu: Sequence[Sequence[Q]] = (),
) -> Q:
    """The one evaluator of Phi, from positions read along a base path.

    stock[t] is the position vector held from t to t+1 and nu[j][t] the
    mass of long j liquidated at time t; omitted books count as empty.
    Recomputed straight from the model data, independently of
    GainLP.gain_coeffs and of every LP coefficient.
    """
    path = model.tree.paths[base_index]
    total = ZERO
    for t, pos in enumerate(stock):
        here, nxt = model.stock.at(path[t]), model.stock.at(path[t + 1])
        total += sum((h * (y - x) for h, x, y in zip(pos, here, nxt)), ZERO)
    for i, ai in enumerate(a):
        payoff, alpha = model.europeans[i]
        total += ai * (payoff.at(path[-1]) - alpha)
    for j, masses in enumerate(nu):
        proc, beta = model.americans_long[j]
        total += sum((m * proc.scalar(nid) for m, nid in zip(masses, path)), ZERO) - b[j] * beta
    for k, ck in enumerate(c):
        proc, gamma = model.americans_short[k]
        total -= ck * (proc.scalar(path[clocks[k]]) - gamma)
    return total


def enlarged_reading(
    enl: EnlargedModel, positions: dict[tuple[int, int], Q], p: int
) -> tuple[int, tuple[int, ...], list[list[Q]]]:
    """Base path, clocks and per-time stock vectors of enlarged path p.

    ``positions`` are keyed (enlarged node, dim); the triple is what
    evaluate_gain reads.
    """
    ep = enl.epaths[p]
    dims = range(enl.model.stock.dim)
    stock = [[positions.get((v, d), ZERO) for d in dims] for v in ep.node_seq[:enl.horizon]]
    return ep.base_index, ep.clocks, stock


def _bump(row: dict[int, Q], var: int, val: Q) -> None:
    if val:
        row[var] = row.get(var, ZERO) + val


class StockPositions:
    """Dynamic stock variables of one LP: H per (key, dim), or H+ and H-.

    Split variables carry the l1 norm row; a free H is one column.
    """

    def __init__(
        self, lp: LinearProgram, keys: Iterable[tuple[Hashable, str]], dims: int, *, split: bool
    ) -> None:
        self.lp = lp
        self.split = split
        self.pos: dict[tuple, int] = {}
        self.neg: dict[tuple, int] = {}
        for key, label in keys:
            for d in range(dims):
                if split:
                    self.pos[(key, d)] = lp.add_var(f"H+[{label};{d}]")
                    self.neg[(key, d)] = lp.add_var(f"H-[{label};{d}]")
                else:
                    self.pos[(key, d)] = lp.add_var(f"H[{label};{d}]", nonneg=False)

    def add(self, row: dict[int, Q], key: Hashable, d: int, coef: Q) -> None:
        """Add coef times the position (key, d) to a row."""
        _bump(row, self.pos[(key, d)], coef)
        if self.split:
            _bump(row, self.neg[(key, d)], -coef)

    def values(self, point: Sequence[Q]) -> dict[tuple, Q]:
        """Nonzero positions at an LP point, keyed (key, dim)."""
        vals = {
            kd: point[var] - point[self.neg[kd]] if self.split else point[var]
            for kd, var in self.pos.items()
        }
        return {kd: v for kd, v in vals.items() if v}

    def add_norm_row(self, others: Iterable[int] = ()) -> int:
        """l1 bound: every H+ and H- plus the ``others`` sum to at most 1."""
        if not self.split:
            raise ValueError("norm row needs split stock variables")
        row = {var: ONE for var in (*self.pos.values(), *self.neg.values(), *others)}
        return self.lp.add_constraint(row, "<=", ONE, name="norm")


@dataclass
class SemiStaticStrategy:
    """Exact positions of one semi-static strategy on an enlarged space."""

    dims: int
    stock: dict[tuple[int, int], Q]      # (enlarged node index, dim) -> position
    long_european: list[Q]
    long_american: list[Q]
    short_american: list[Q]
    liquidation: list[dict[int, Q]]      # nu_j: node index -> mass (path sums = b_j)

    def to_json(self, enl: EnlargedModel) -> dict:
        lab = lambda v: enl.enode(v).label
        return {
            "stock": {
                lab(v): {str(d): rat_str(x) for (vv, d), x in self.stock.items() if vv == v and x}
                for v in sorted({v for (v, _d), x in self.stock.items() if x})
            },
            "long_european": [rat_str(a) for a in self.long_european],
            "long_american": [rat_str(b) for b in self.long_american],
            "short_american": [rat_str(c) for c in self.short_american],
            "liquidation": [
                {lab(v): rat_str(m) for v, m in sorted(nu.items()) if m}
                for nu in self.liquidation
            ],
        }


def payoff_enlarged(
    enl: EnlargedModel,
    strat: SemiStaticStrategy,
    *,
    paths: Iterable[int] | None = None,
) -> dict[int, Q]:
    """Evaluate the strategy's gain on each enlarged path, exactly.

    Independent of any LP: evaluate_gain recomputes H.S + a(f-alpha) +
    nu(g) - b.beta - c(h-gamma) straight from the model data.
    Liquidation masses are checked to sum to b_j along every evaluated
    path.
    """
    model = enl.model
    if strat.dims != model.stock.dim:
        raise ValueError("strategy dimension does not match the stock")
    if (len(strat.long_european), len(strat.long_american), len(strat.short_american)) != (
        model.L,
        model.M,
        model.N,
    ):
        raise ValueError("strategy option counts do not match the model")
    idx = range(enl.num_paths) if paths is None else paths
    gains: dict[int, Q] = {}
    for p in idx:
        nu = [[liq.get(v, ZERO) for v in enl.epaths[p].node_seq] for liq in strat.liquidation]
        for j, masses in enumerate(nu):
            mass = sum(masses, ZERO)
            if mass != strat.long_american[j]:
                raise PropertyViolation(
                    f"liquidation mass {rat_str(mass)} != position "
                    f"{rat_str(strat.long_american[j])} for long American {j} on path {p}"
                )
        gains[p] = evaluate_gain(
            model,
            *enlarged_reading(enl, strat.stock, p),
            a=strat.long_european,
            b=strat.long_american,
            c=strat.short_american,
            nu=nu,
        )
    return gains


class GainLP:
    """Strategy variables on the enlarged space and the gain row of each path.

    Carry nodes are the nodes of ``enl.subforest(paths)``, trade nodes
    those of them with children, both in index order.  Quantification
    runs over ``paths`` (default all), which is how the quasi-sure
    variants restrict to a support set.  The space's tied node pairs and
    mixtures become rows too (add_common_rows).
    """

    def __init__(
        self,
        enl: EnlargedModel,
        *,
        paths: Iterable[int] | None = None,
        split_stock: bool = False,
        add_x: bool = False,
    ) -> None:
        self.enl = enl
        self.model = enl.model
        self.paths = list(range(enl.num_paths)) if paths is None else sorted(set(paths))
        if not self.paths:
            raise ValueError("at least one path required")
        self.lp = LinearProgram()
        self.x = self.lp.add_var("x", nonneg=False) if add_x else None

        nodes, kids = enl.subforest(self.paths)
        self.carry_nodes = list(nodes)
        labels = ((v, enl.enode(v).label) for v in self.carry_nodes if kids[v])
        self.stock = StockPositions(self.lp, labels, self.model.stock.dim, split=split_stock)
        # the static book a[i], b[j], c[k], listed per kind
        self.static = {
            kind: [self.lp.add_var(f"{kind}[{i}]") for i in range(count)]
            for kind, count in (("a", self.model.L), ("b", self.model.M), ("c", self.model.N))
        }
        self.nu_var = [
            {v: self.lp.add_var(f"nu[{j};{enl.enode(v).label}]") for v in self.carry_nodes}
            for j in range(self.model.M)
        ]
        self.rows: dict[int, tuple[dict[int, Q], Q]] = {}

    def gain_coeffs(self, p: int) -> dict[int, Q]:
        """Coefficient map of Phi(path p) over the strategy variables.

        Phi is the stock gain H_t . (S_{t+1} - S_t), the Europeans
        a_i (f_i - alpha_i), the longs nu_j(v_t) g_j(v_t) - b_j beta_j
        and the shorts -c_k (h_k - gamma_k) at clock k, along the base
        path of p; evaluate_gain re-checks it without reading this map.
        """
        model, ep = self.model, self.enl.epaths[p]
        path, seq = model.tree.paths[ep.base_index], ep.node_seq
        row: dict[int, Q] = {}
        for t in range(len(path) - 1):
            here, nxt = model.stock.at(path[t]), model.stock.at(path[t + 1])
            for d in range(model.stock.dim):
                self.stock.add(row, seq[t], d, nxt[d] - here[d])
        for i, (payoff, alpha) in enumerate(model.europeans):
            _bump(row, self.static["a"][i], payoff.at(path[-1]) - alpha)
        for j, (proc, beta) in enumerate(model.americans_long):
            _bump(row, self.static["b"][j], -beta)
            for nid, v in zip(path, seq):
                _bump(row, self.nu_var[j][v], proc.scalar(nid))
        for k, (proc, gamma) in enumerate(model.americans_short):
            _bump(row, self.static["c"][k], -(proc.scalar(path[ep.clocks[k]]) - gamma))
        return row

    def add_path_row(self, p: int, row: dict[int, Q], rhs: Q, name: str) -> None:
        """row >= rhs for path p, kept for the space's mixtures."""
        self.rows[p] = (row, rhs)
        self.lp.add_constraint(row, ">=", rhs, name=name)

    def tie(self, var: dict[int, int], name: str) -> None:
        """var takes one value on both nodes of each tied pair of the space."""
        for v, w in self.enl.tied_pairs:
            self.lp.add_constraint({var[v]: ONE, var[w]: -ONE}, "=", ZERO, name=f"{name}[{v}~{w}]")

    def add_common_rows(self) -> None:
        """Rows every user adds after its path rows.

        Path sums of each nu_j equal the position b_j (mu is divisible);
        H and each nu_j agree on the space's tied pairs; and each of the
        space's mixtures of path rows holds, which those rows imply.
        """
        for j, nu in enumerate(self.nu_var):
            for p in self.paths:
                row = {nu[v]: ONE for v in self.enl.epaths[p].node_seq}
                row[self.static["b"][j]] = -ONE
                self.lp.add_constraint(row, "=", ZERO, name=f"liq[{j};p{p}]")
        for v, w in self.enl.tied_pairs:
            for d in range(self.model.stock.dim):
                row = {}
                self.stock.add(row, v, d, ONE)
                self.stock.add(row, w, d, -ONE)
                self.lp.add_constraint(row, "=", ZERO, name=f"tie_H[{v}~{w};{d}]")
        for j, nu in enumerate(self.nu_var):
            self.tie(nu, f"tie_nu[{j}]")
        for k, mix in enumerate(self.enl.mixtures):
            row, rhs = {}, ZERO
            for p, w in mix.items():
                coeffs, bound = self.rows[p]
                rhs += w * bound
                for var, val in coeffs.items():
                    _bump(row, var, w * val)
            self.lp.add_constraint(row, ">=", rhs, name=f"mix[{k}]")

    def strategy_at(self, point: Sequence[Q]) -> SemiStaticStrategy:
        """The strategy whose positions are an LP point's (or ray's) entries."""
        book = {kind: [point[var] for var in vs] for kind, vs in self.static.items()}
        return SemiStaticStrategy(
            dims=self.model.stock.dim,
            stock=self.stock.values(point),
            long_european=book["a"],
            long_american=book["b"],
            short_american=book["c"],
            liquidation=[
                {v: point[var] for v, var in nu.items() if point[var]} for nu in self.nu_var
            ],
        )


def ray_summary(enl: EnlargedModel, x: Q, ray: SemiStaticStrategy) -> dict[str, str]:
    """Nonzero entries of a hedge LP's ray, named as GainLP names its variables."""
    lab = lambda v: enl.enode(v).label
    named: dict[str, Q] = {"x": x}
    named.update((f"H[{lab(v)};{d}]", h) for (v, d), h in ray.stock.items())
    for kind, book in (("a", ray.long_european), ("b", ray.long_american),
                       ("c", ray.short_american)):
        named.update((f"{kind}[{i}]", val) for i, val in enumerate(book))
    for j, nu in enumerate(ray.liquidation):
        named.update((f"nu[{j};{lab(v)}]", m) for v, m in nu.items())
    return {name: rat_str(val) for name, val in named.items() if val}


@dataclass
class HedgeReport:
    """A price with its hedge, from a hedge LP or read off the measure LP's
    duals (measures.price_with_dual), with enough data to re-validate."""

    kind: str
    price: Q
    strategy: SemiStaticStrategy
    exercise: dict[int, Q] | None    # eta for sub-hedging: node -> exercise weight
    lp_rows: int
    lp_cols: int
    pivots: int
    num_paths: int
    measure: dict[int, Q] = field(default_factory=dict)    # the price's measure, if any
    gap: Q | None = None
    dual_ref: dict | None = None

    def to_json(self, enl: EnlargedModel) -> dict:
        doc = {
            "kind": self.kind,
            "price": rat_str(self.price),
            "strategy": self.strategy.to_json(enl),
            "gap": rat_str(self.gap) if self.gap is not None else None,
            "dual_ref": self.dual_ref,
            "lp": {"rows": self.lp_rows, "cols": self.lp_cols, "pivots": self.pivots},
            "paths": self.num_paths,
        }
        if self.exercise is not None:
            doc["exercise"] = {
                enl.enode(v).label: rat_str(w) for v, w in sorted(self.exercise.items()) if w
            }
        return doc


def check_hedge(
    enl: EnlargedModel,
    strat: SemiStaticStrategy,
    sign: Q,
    x: Q,
    rhs: Sequence[Q],
    *,
    paths: Iterable[int],
    exercise: dict[int, Q] | None = None,
    kind: str,
) -> None:
    """Re-validate a hedge on every path: sign*x + Phi(p) + extra(p) >= rhs(p).

    Independent of any LP.  Phi comes from payoff_enlarged, which also
    checks that each nu_j sums to b_j along every path; the static book
    and every liquidation mass must be nonnegative.  With ``exercise``
    the claim is held divisibly: its weights eta must be nonnegative and
    sum to 1 along every path, and extra(p) = sum_t eta(v_t) * value(v_t)
    with the claim's values of extend_claim(enl, "sub").
    """
    books = (strat.long_european, strat.long_american, strat.short_american,
             *(nu.values() for nu in strat.liquidation),
             exercise.values() if exercise is not None else ())
    if any(val < ZERO for book in books for val in book):
        raise PropertyViolation(f"{kind} hedge holds a negative static or exercise position")
    gains = payoff_enlarged(enl, strat, paths=paths)
    values = extend_claim(enl, "sub") if exercise is not None else None
    for p, gain in gains.items():
        lhs = sign * x + gain
        if exercise is not None:
            seq = enl.epaths[p].node_seq
            mass = sum((exercise.get(v, ZERO) for v in seq), ZERO)
            if mass != ONE:
                raise PropertyViolation(f"exercise weights sum to {rat_str(mass)} != 1 on path {p}")
            lhs += sum((exercise.get(v, ZERO) * values[v] for v in seq), ZERO)
        if lhs < rhs[p]:
            raise PropertyViolation(
                f"{kind} hedge fails on path {p}: {rat_str(lhs)} < {rat_str(rhs[p])}"
            )


def _hedge(
    enl: EnlargedModel,
    kind: str,
    sign: Q,
    rhs: Sequence[Q],
    *,
    paths: Iterable[int] | None,
) -> HedgeReport:
    """The one hedging LP: sign*x + Phi(p) + extra(p) >= rhs(p) on every path.

    sign -1 maximizes x (a sub-hedge), sign +1 minimizes it (a
    super-hedge).  On the sub side (kind "sub") the claim is held
    divisibly: exercise weights eta of unit mass per path add extra(p) =
    sum_t eta(v_t) * value(v_t), the values of extend_claim(enl, "sub"),
    and eta is tied like H and nu on the space's tied pairs.  The optimum
    is re-validated by check_hedge.  This LP is the reference of the
    campaign's duality check and the pricer of the divisibility battery,
    on the enlarged and the revealed-clock space; ``price`` solves the
    measure LP of measures.price_with_dual instead.
    """
    claim = extend_claim(enl, "sub") if kind == "sub" else None
    g = GainLP(enl, paths=paths, add_x=True)
    eta_var = {} if claim is None else {
        v: g.lp.add_var(f"eta[{enl.enode(v).label}]") for v in g.carry_nodes}
    for p in g.paths:
        seq = enl.epaths[p].node_seq
        row = g.gain_coeffs(p)
        if eta_var:
            for v in seq:
                _bump(row, eta_var[v], claim[v])
        row[g.x] = row.get(g.x, ZERO) + sign
        g.add_path_row(p, row, rhs[p], f"hedge[p{p}]")
        if eta_var:
            g.lp.add_constraint({eta_var[v]: ONE for v in seq}, "=", ONE, name=f"unit[p{p}]")
    g.add_common_rows()
    if eta_var:
        g.tie(eta_var, "tie_eta")
    g.lp.set_objective("min" if sign > 0 else "max", {g.x: ONE})
    out = solve(g.lp)
    if out.status == "unbounded":
        raise SnaFailure(
            f"{kind} hedging price is unbounded: the market admits arbitrage",
            certificate={"ray": ray_summary(enl, out.ray[g.x], g.strategy_at(out.ray))},
        )
    if out.status != "optimal":
        raise PropertyViolation(f"{kind} hedge LP unexpectedly {out.status}")
    eta = {v: out.x(var) for v, var in eta_var.items() if out.x(var)} if eta_var else None
    report = HedgeReport(
        kind=kind,
        price=out.value,
        strategy=g.strategy_at(out.primal),
        exercise=eta,
        lp_rows=out.rows,
        lp_cols=out.cols,
        pivots=out.pivots,
        num_paths=len(g.paths),
    )
    check_hedge(enl, report.strategy, sign, report.price, rhs, paths=g.paths,
                exercise=eta, kind=kind)
    return report


def subhedge(
    enl: EnlargedModel,
    *,
    paths: Iterable[int] | None = None,
) -> HedgeReport:
    """Largest x dominated by the claim held divisibly plus a strategy.

    max x  s.t.  Phi(p) + sum_t eta(v_t) phi(v_t) >= x on every path,
    eta a liquidating strategy, on the n = N enlargement.  Unbounded
    means the market itself admits unbounded riskless gain, reported as
    an SNA failure.
    """
    return _hedge(enl, "sub", -ONE, [ZERO] * enl.num_paths, paths=paths)


def superhedge(
    enl: EnlargedModel,
    *,
    paths: Iterable[int] | None = None,
) -> HedgeReport:
    """Smallest x such that x plus a strategy dominates the claim payoff.

    Runs on the n = N + 1 enlargement whose extra clock is the claim
    holder's exercise time: min x s.t. x + Phi(p) >= phi at the last
    clock, on every path.
    """
    return _hedge(enl, "super", ONE, extend_claim(enl, "super"), paths=paths)


def subhedge_european(enl: EnlargedModel, psi: Sequence[Q]) -> HedgeReport:
    """Sub-hedging price of a path payoff psi: max x s.t. Phi + psi >= x."""
    if len(psi) != enl.num_paths:
        raise ValueError("psi must give one value per enlarged path")
    return _hedge(enl, "sub_european", -ONE, [-rat(v) for v in psi], paths=None)


@dataclass
class ArbitrageReport:
    found: bool
    gain: Q
    strategy: SemiStaticStrategy | None
    gains: dict[int, Q] = field(default_factory=dict)

    def to_json(self, enl: EnlargedModel) -> dict:
        return {
            "found": self.found,
            "gain": rat_str(self.gain),
            "strategy": self.strategy.to_json(enl) if self.strategy else None,
        }


def detect_arbitrage(
    enl: EnlargedModel, *, paths: Iterable[int] | None = None
) -> ArbitrageReport:
    """Search for a nonnegative gain with positive expectation.

    max sum_p w(p) Phi(p)  s.t.  Phi(p) >= 0 on every path and
    ||(H, a, b, c)||_1 <= 1.  By homogeneity the optimum is 0 exactly
    when no arbitrage exists; any positive optimum scales freely, and
    the optimizer is returned as a witness.  ``paths`` (default all)
    restricts both the rows and the objective, as in GainLP.
    """
    g = GainLP(enl, paths=paths, split_stock=True)
    objective: dict[int, Q] = {}
    for p in g.paths:
        row = g.gain_coeffs(p)
        g.add_path_row(p, row, ZERO, f"nonneg[p{p}]")
        for var, val in row.items():
            _bump(objective, var, enl.weight(p) * val)
    g.add_common_rows()
    g.stock.add_norm_row(sum(g.static.values(), []))
    g.lp.set_objective("max", objective)
    out = solve(g.lp)
    if out.status != "optimal":
        raise PropertyViolation(f"arbitrage LP unexpectedly {out.status}")
    if out.value == ZERO:
        return ArbitrageReport(found=False, gain=ZERO, strategy=None)
    if out.value < ZERO:
        raise PropertyViolation("arbitrage LP returned a negative optimum")
    strat = g.strategy_at(out.primal)
    gains = payoff_enlarged(enl, strat, paths=g.paths)
    expected = ZERO
    for p in g.paths:
        if gains[p] < ZERO:
            raise PropertyViolation(f"arbitrage witness loses on path {p}")
        expected += enl.weight(p) * gains[p]
    if expected != out.value:
        raise PropertyViolation("arbitrage witness expectation mismatch")
    return ArbitrageReport(found=True, gain=out.value, strategy=strat, gains=gains)

