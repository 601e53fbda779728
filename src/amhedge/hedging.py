"""Primal hedging: LPs over semi-static strategies on the enlarged space.

A semi-static strategy trades the stock dynamically and holds static
option positions: long Europeans a >= 0, long Americans b >= 0 exercised
by a liquidating strategy, short Americans c >= 0 whose exercise times
are the clock coordinates of the enlarged space.  The bilinear product
b * mu is linearized by the substitution nu = b * mu, so every pricing
problem below is an exact rational LP.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .enlarged import EnlargedModel, extend_claim
from .errors import PropertyViolation, SnaFailure
from .lp import LinearProgram, LPOutcome, solve
from .market import MarketModel
from .rationals import ONE, ZERO, Q, rat, rat_str
from .strategies import LiquidatingStrategy

Prices = tuple[Sequence[Q], Sequence[Q], Sequence[Q]]


def _resolve_prices(model: MarketModel, prices: Prices | None) -> tuple[list[Q], list[Q], list[Q]]:
    if prices is None:
        return (
            [p for _, p in model.europeans],
            [p for _, p in model.americans_long],
            [p for _, p in model.americans_short],
        )
    alphas, betas, gammas = prices
    alphas = [rat(a) for a in alphas]
    betas = [rat(b) for b in betas]
    gammas = [rat(c) for c in gammas]
    if len(alphas) != model.L or len(betas) != model.M or len(gammas) != model.N:
        raise ValueError("price override lengths must match (L, M, N)")
    return alphas, betas, gammas


def _shift_prices(model: MarketModel, prices: Prices | None, eps: Q) -> Prices:
    """Quotes moved by eps in the trader's favour: asks down, bids up."""
    alphas, betas, gammas = _resolve_prices(model, prices)
    return (
        [a - eps for a in alphas],
        [b - eps for b in betas],
        [c + eps for c in gammas],
    )


def _stock_gain(enl: EnlargedModel, positions: dict[tuple[int, int], Q], p: int) -> Q:
    """Gain of dynamic stock positions keyed (enlarged node, dim) along path p."""
    seq = enl.epaths[p].node_seq
    total = ZERO
    for t in range(enl.horizon):
        step = enl.stock_step(p, t)
        for d, move in enumerate(step):
            h = positions.get((seq[t], d), ZERO)
            if h and move:
                total += h * move
    return total


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
    prices: Prices | None = None,
    paths: Iterable[int] | None = None,
) -> dict[int, Q]:
    """Evaluate the strategy's gain on each enlarged path, exactly.

    Independent of any LP: recomputes H.S + a(f-alpha) + nu(g) - b.beta
    - c(h-gamma) straight from the model data.  Liquidation masses are
    checked to sum to b_j along every evaluated path.
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
    alphas, betas, gammas = _resolve_prices(model, prices)
    idx = range(enl.num_paths) if paths is None else paths
    gains: dict[int, Q] = {}
    for p in idx:
        seq = enl.epaths[p].node_seq
        total = _stock_gain(enl, strat.stock, p)
        for i in range(model.L):
            a = strat.long_european[i]
            if a:
                total += a * (enl.european_value(i, p) - alphas[i])
        for j in range(model.M):
            nu = strat.liquidation[j]
            mass = ZERO
            for t, v in enumerate(seq):
                m = nu.get(v, ZERO)
                if m:
                    total += m * enl.long_value_at_node(j, v)
                    mass += m
            if mass != strat.long_american[j]:
                raise PropertyViolation(
                    f"liquidation mass {rat_str(mass)} != position "
                    f"{rat_str(strat.long_american[j])} for long American {j} on path {p}"
                )
            total -= strat.long_american[j] * betas[j]
        for k in range(model.N):
            c = strat.short_american[k]
            if c:
                total -= c * (enl.short_value(k, p) - gammas[k])
        gains[p] = total
    return gains


class GainLP:
    """Shared LP builder for the semi-static gain expression.

    Creates the strategy variables once and hands out, per enlarged
    path, the exact coefficient map of the gain Phi on that path.
    Quantification runs over ``paths`` (default all), which is how the
    quasi-sure variants restrict to a support set.
    """

    def __init__(
        self,
        enl: EnlargedModel,
        *,
        paths: Iterable[int] | None = None,
        prices: Prices | None = None,
        split_stock: bool = False,
        add_x: bool = False,
    ) -> None:
        self.enl = enl
        self.model = enl.model
        self.paths = list(range(enl.num_paths)) if paths is None else sorted(set(paths))
        if not self.paths:
            raise ValueError("at least one path required")
        self.alphas, self.betas, self.gammas = _resolve_prices(enl.model, prices)
        self.split_stock = split_stock
        self.lp = LinearProgram()
        self.x = self.lp.add_var("x", nonneg=False) if add_x else None

        T = self.model.tree.horizon
        self.dims = self.model.stock.dim
        trade: dict[int, None] = {}
        carry: dict[int, None] = {}
        for p in self.paths:
            for t, v in enumerate(enl.epaths[p].node_seq):
                carry.setdefault(v, None)
                if t < T:
                    trade.setdefault(v, None)
        self.trade_nodes = list(trade)
        self.carry_nodes = list(carry)

        self.h_var: dict[tuple[int, int], int] = {}
        self.h_var_neg: dict[tuple[int, int], int] = {}
        for v in self.trade_nodes:
            lbl = enl.enode(v).label
            for d in range(self.dims):
                if split_stock:
                    self.h_var[(v, d)] = self.lp.add_var(f"H+[{lbl};{d}]")
                    self.h_var_neg[(v, d)] = self.lp.add_var(f"H-[{lbl};{d}]")
                else:
                    self.h_var[(v, d)] = self.lp.add_var(f"H[{lbl};{d}]", nonneg=False)
        self.a_var = [self.lp.add_var(f"a[{i}]") for i in range(self.model.L)]
        self.b_var = [self.lp.add_var(f"b[{j}]") for j in range(self.model.M)]
        self.c_var = [self.lp.add_var(f"c[{k}]") for k in range(self.model.N)]
        self.nu_var: list[dict[int, int]] = []
        for j in range(self.model.M):
            self.nu_var.append(
                {v: self.lp.add_var(f"nu[{j};{enl.enode(v).label}]") for v in self.carry_nodes}
            )
        self._gain_cache: dict[int, dict[int, Q]] = {}

    def gain_coeffs(self, p: int) -> dict[int, Q]:
        """Coefficient map of Phi(path p) over the strategy variables."""
        cached = self._gain_cache.get(p)
        if cached is not None:
            return dict(cached)
        enl, model = self.enl, self.model
        seq = enl.epaths[p].node_seq
        T = model.tree.horizon
        coeffs: dict[int, Q] = {}

        def bump(var: int, val: Q) -> None:
            if val:
                coeffs[var] = coeffs.get(var, ZERO) + val

        for t in range(T):
            step = enl.stock_step(p, t)
            v = seq[t]
            for d in range(self.dims):
                if step[d]:
                    bump(self.h_var[(v, d)], step[d])
                    if self.split_stock:
                        bump(self.h_var_neg[(v, d)], -step[d])
        for i in range(model.L):
            bump(self.a_var[i], enl.european_value(i, p) - self.alphas[i])
        for j in range(model.M):
            bump(self.b_var[j], -self.betas[j])
            nu = self.nu_var[j]
            for v in seq:
                bump(nu[v], enl.long_value_at_node(j, v))
        for k in range(model.N):
            bump(self.c_var[k], -(enl.short_value(k, p) - self.gammas[k]))
        coeffs = {var: val for var, val in coeffs.items() if val}
        self._gain_cache[p] = dict(coeffs)
        return coeffs

    def add_liquidation_rows(self) -> None:
        """Path sums of each nu_j equal the position b_j (mu is divisible)."""
        for j in range(self.model.M):
            nu = self.nu_var[j]
            for p in self.paths:
                row = {nu[v]: ONE for v in self.enl.epaths[p].node_seq}
                row[self.b_var[j]] = row.get(self.b_var[j], ZERO) - ONE
                self.lp.add_constraint(row, "=", ZERO, name=f"liq[{j};p{p}]")

    def add_norm_row(self) -> int:
        """l1 bound on (H, a, b, c); requires split stock variables."""
        if not self.split_stock:
            raise ValueError("norm row needs split stock variables")
        row: dict[int, Q] = {}
        for var in self.h_var.values():
            row[var] = ONE
        for var in self.h_var_neg.values():
            row[var] = ONE
        for var in (*self.a_var, *self.b_var, *self.c_var):
            row[var] = ONE
        return self.lp.add_constraint(row, "<=", ONE, name="norm")

    def strategy_from(self, out: LPOutcome) -> SemiStaticStrategy:
        stock: dict[tuple[int, int], Q] = {}
        for key, var in self.h_var.items():
            val = out.x(var)
            if self.split_stock:
                val = val - out.x(self.h_var_neg[key])
            if val:
                stock[key] = val
        return SemiStaticStrategy(
            dims=self.dims,
            stock=stock,
            long_european=[out.x(v) for v in self.a_var],
            long_american=[out.x(v) for v in self.b_var],
            short_american=[out.x(v) for v in self.c_var],
            liquidation=[
                {v: out.x(var) for v, var in nu.items() if out.x(var)} for nu in self.nu_var
            ],
        )

    def ray_summary(self, out: LPOutcome) -> dict[str, str]:
        names = self.lp.var_names
        return {
            names[j]: rat_str(val)
            for j, val in enumerate(out.ray or [])
            if val and j < len(names)
        }


@dataclass
class HedgeReport:
    """Result of one primal hedging LP, with enough data to re-validate."""

    kind: str
    price: Q
    strategy: SemiStaticStrategy
    exercise: LiquidatingStrategy | None    # eta for sub-hedging
    lp_rows: int
    lp_cols: int
    pivots: int
    num_paths: int
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
                enl.enode(v).label: rat_str(w) for v, w in sorted(self.exercise.weights.items()) if w
            }
        return doc


def _hedge(
    enl: EnlargedModel,
    kind: str,
    sign: Q,
    rhs: Sequence[Q],
    *,
    prices: Prices | None,
    paths: Iterable[int] | None,
    exercise_values: dict[int, Q] | None = None,
) -> HedgeReport:
    """The one hedging LP: sign*x + Phi(p) + extra(p) >= rhs(p) on every path.

    sign -1 maximizes x (a sub-hedge), sign +1 minimizes it (a
    super-hedge).  With ``exercise_values`` the claim is held divisibly:
    exercise weights eta of unit mass per path add extra(p) = sum_t
    eta(v_t) * value(v_t).  The optimum is re-validated pathwise against
    the same inequality, with the gain recomputed by payoff_enlarged.
    """
    g = GainLP(enl, paths=paths, prices=prices, add_x=True)
    eta_var = {}
    if exercise_values is not None:
        eta_var = {v: g.lp.add_var(f"eta[{enl.enode(v).label}]") for v in g.carry_nodes}
    for p in g.paths:
        seq = enl.epaths[p].node_seq
        row = g.gain_coeffs(p)
        if eta_var:
            for v in seq:
                val = exercise_values[v]
                if val:
                    row[eta_var[v]] = row.get(eta_var[v], ZERO) + val
        row[g.x] = row.get(g.x, ZERO) + sign
        g.lp.add_constraint(row, ">=", rhs[p], name=f"hedge[p{p}]")
        if eta_var:
            g.lp.add_constraint({eta_var[v]: ONE for v in seq}, "=", ONE, name=f"unit[p{p}]")
    g.add_liquidation_rows()
    g.lp.set_objective("min" if sign > 0 else "max", {g.x: ONE})
    out = solve(g.lp)
    if out.status == "unbounded":
        raise SnaFailure(
            f"{kind} hedging price is unbounded: the market admits arbitrage",
            certificate={"ray": g.ray_summary(out)},
        )
    if out.status != "optimal":
        raise PropertyViolation(f"{kind} hedge LP unexpectedly {out.status}")
    eta = None
    if eta_var:
        eta = LiquidatingStrategy({v: out.x(var) for v, var in eta_var.items() if out.x(var)})
    report = HedgeReport(
        kind=kind,
        price=out.value,
        strategy=g.strategy_from(out),
        exercise=eta,
        lp_rows=out.rows,
        lp_cols=out.cols,
        pivots=out.pivots,
        num_paths=len(g.paths),
    )
    gains = payoff_enlarged(enl, report.strategy, prices=prices, paths=g.paths)
    for p in g.paths:
        lhs = sign * report.price + gains[p]
        if eta is not None:
            seq = enl.epaths[p].node_seq
            mass = sum((eta.at(v) for v in seq), ZERO)
            if mass != ONE:
                raise PropertyViolation(f"exercise weights sum to {rat_str(mass)} != 1 on path {p}")
            lhs += sum((eta.at(v) * exercise_values[v] for v in seq), ZERO)
        if lhs < rhs[p]:
            raise PropertyViolation(
                f"{kind} hedge fails on path {p}: {rat_str(lhs)} < {rat_str(rhs[p])}"
            )
    return report


def subhedge(
    enl: EnlargedModel,
    *,
    prices: Prices | None = None,
    paths: Iterable[int] | None = None,
) -> HedgeReport:
    """Largest x dominated by the claim held divisibly plus a strategy.

    max x  s.t.  Phi(p) + sum_t eta(v_t) phi(v_t) >= x on every path,
    eta a liquidating strategy.  Unbounded means the market itself
    admits unbounded riskless gain, reported as an SNA failure.
    """
    if enl.n != enl.model.N:
        raise ValueError("sub-hedging runs on the n = N enlargement")
    return _hedge(enl, "sub", -ONE, [ZERO] * enl.num_paths, prices=prices, paths=paths,
                  exercise_values=extend_claim(enl, "sub"))


def superhedge(
    enl: EnlargedModel,
    *,
    prices: Prices | None = None,
    paths: Iterable[int] | None = None,
) -> HedgeReport:
    """Smallest x such that x plus a strategy dominates the claim payoff.

    Runs on the n = N + 1 enlargement whose extra clock is the claim
    holder's exercise time: min x s.t. x + Phi(p) >= phi at the last
    clock, on every path.
    """
    if enl.n != enl.model.N + 1:
        raise ValueError("super-hedging runs on the n = N + 1 enlargement")
    return _hedge(enl, "super", ONE, extend_claim(enl, "super"), prices=prices, paths=paths)


def subhedge_european(
    enl: EnlargedModel,
    psi: Sequence[Q],
    *,
    prices: Prices | None = None,
    paths: Iterable[int] | None = None,
) -> HedgeReport:
    """Sub-hedging price of a path payoff psi: max x s.t. Phi + psi >= x."""
    if len(psi) != enl.num_paths:
        raise ValueError("psi must give one value per enlarged path")
    return _hedge(enl, "sub_european", -ONE, [-rat(v) for v in psi], prices=prices, paths=paths)


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
    enl: EnlargedModel,
    *,
    prices: Prices | None = None,
    paths: Iterable[int] | None = None,
) -> ArbitrageReport:
    """Search for a nonnegative gain with positive expectation.

    max sum_p w(p) Phi(p)  s.t.  Phi(p) >= 0 on every path and
    ||(H, a, b, c)||_1 <= 1.  By homogeneity the optimum is 0 exactly
    when no arbitrage exists; any positive optimum scales freely, and
    the optimizer is returned as a witness.
    """
    g = GainLP(enl, paths=paths, prices=prices, split_stock=True)
    objective: dict[int, Q] = {}
    for p in g.paths:
        row = g.gain_coeffs(p)
        g.lp.add_constraint(row, ">=", ZERO, name=f"nonneg[p{p}]")
        w = enl.weight(p)
        for var, val in row.items():
            contrib = w * val
            if contrib:
                objective[var] = objective.get(var, ZERO) + contrib
    g.add_liquidation_rows()
    g.add_norm_row()
    g.lp.set_objective("max", {v: c for v, c in objective.items() if c})
    out = solve(g.lp)
    if out.status != "optimal":
        raise PropertyViolation(f"arbitrage LP unexpectedly {out.status}")
    if out.value == ZERO:
        return ArbitrageReport(found=False, gain=ZERO, strategy=None)
    if out.value < ZERO:
        raise PropertyViolation("arbitrage LP returned a negative optimum")
    strat = g.strategy_from(out)
    gains = payoff_enlarged(enl, strat, prices=prices, paths=g.paths)
    expected = ZERO
    for p in g.paths:
        if gains[p] < ZERO:
            raise PropertyViolation(f"arbitrage witness loses on path {p}")
        expected += enl.weight(p) * gains[p]
    if expected != out.value:
        raise PropertyViolation("arbitrage witness expectation mismatch")
    return ArbitrageReport(found=True, gain=out.value, strategy=strat, gains=gains)


@dataclass
class SnaReport:
    holds: bool
    epsilon: Q
    certificate: object    # MeasureCertificate from the dual side
    primal_clear: bool | None = None


def check_sna(
    enl: EnlargedModel,
    *,
    prices: Prices | None = None,
    cap: int | None = None,
) -> SnaReport:
    """Strict no-arbitrage verdict with dual witness and primal cross-check.

    epsilon* is the maximal uniform slack of the martingale polytope at
    the given prices; SNA holds iff epsilon* > 0, in which case prices
    perturbed against the trader by epsilon*/2 still admit no arbitrage
    (verified primally).
    """
    from .measures import ftap_certificate

    kwargs = {"prices": prices}
    if cap is not None:
        kwargs["cap"] = cap
    sna, cert = ftap_certificate(enl, **kwargs)
    primal_clear = None
    if sna:
        shifted = _shift_prices(enl.model, prices, cert.slack / 2)
        primal_clear = not detect_arbitrage(enl, prices=shifted).found
        if not primal_clear:
            raise PropertyViolation(
                "dual slack promises SNA but shifted prices admit arbitrage"
            )
    return SnaReport(holds=sna, epsilon=cert.slack, certificate=cert, primal_clear=primal_clear)
