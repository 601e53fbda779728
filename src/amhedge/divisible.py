"""Divisible vs. non-divisible exercise: the clock-indexed formulation.

Shorted American options admit two readings of "the holder may
exercise": at one of the discrete times 0..T (non-divisible, a clock
vector t in {0..T}^n), or spread over times by nonnegative weights
summing to one (divisible, a point of the weight simplex product V^n).
This module prices against the clock-indexed formulation directly -
one strategy copy per clock vector, tied together by explicit
non-anticipativity equalities - and certifies that the divisible
reading changes nothing: mixtures of the optimizer cover every weight
grid point, and adding grid constraints to the LP moves no value.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .enlarged import enlarge
from .errors import PropertyViolation
from .hedging import (
    Prices,
    _resolve_prices,
    _shift_prices,
    detect_arbitrage,
    subhedge,
    subhedge_european,
    superhedge,
)
from .lp import LinearProgram, solve
from .market import MarketModel
from .rationals import ONE, ZERO, Q, rat_str
from .strategies import (
    ClockIndexedFamily,
    _mixture_weight,
    dirac_weights,
    indistinguishable_pairs,
    validate_nonanticipative,
)

__all__ = ["ClockLP", "DivisibilityReport", "verify_divisibility_equivalence", "weight_grid"]


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


class ClockLP:
    """One semi-static strategy copy per clock vector, tied by equalities.

    Variables: x (if priced), per-clock-vector dynamic positions
    H[t, r, node, dim], static a/b/c shared across clock vectors,
    per-clock-vector liquidation masses nu and (sub only) claim
    exercise weights eta.  Pairs of clock vectors that are
    indistinguishable up to time r share their positions before r.
    """

    def __init__(
        self,
        model: MarketModel,
        n: int,
        *,
        prices: Prices | None = None,
        role: str,
        psi: list[Q] | None = None,
        split_stock: bool = False,
    ) -> None:
        if role not in ("sub", "super", "european", "arbitrage"):
            raise ValueError(f"unknown role {role!r}")
        if role == "super" and n != model.N + 1:
            raise ValueError("super-hedging indexes clocks 1..N+1")
        if role in ("sub", "european", "arbitrage") and n != model.N:
            raise ValueError("this role indexes clocks 1..N")
        self.model = model
        self.n = n
        self.role = role
        self.psi = psi
        self.split_stock = split_stock
        self.alphas, self.betas, self.gammas = _resolve_prices(model, prices)
        T = model.tree.horizon
        self.tuples = list(itertools.product(range(T + 1), repeat=n))
        self.lp = LinearProgram()
        self.x = None
        if role in ("sub", "super", "european"):
            self.x = self.lp.add_var("x", nonneg=False)

        tree = model.tree
        self.dims = model.stock.dim
        self.internal = [
            (node.time, nid)
            for nid, node in tree.nodes.items()
            if node.time < T
        ]
        self.internal.sort()
        self.all_nodes = sorted(tree.nodes, key=lambda nid: (tree.nodes[nid].time, nid))

        self.h_var: dict[tuple, int] = {}
        self.h_var_neg: dict[tuple, int] = {}
        for tvec in self.tuples:
            for r, nid in self.internal:
                for d in range(self.dims):
                    key = (tvec, r, nid, d)
                    if split_stock:
                        self.h_var[key] = self.lp.add_var(f"H+[{tvec};{nid};{d}]")
                        self.h_var_neg[key] = self.lp.add_var(f"H-[{tvec};{nid};{d}]")
                    else:
                        self.h_var[key] = self.lp.add_var(f"H[{tvec};{nid};{d}]", nonneg=False)
        self.a_var = [self.lp.add_var(f"a[{i}]") for i in range(model.L)]
        self.b_var = [self.lp.add_var(f"b[{j}]") for j in range(model.M)]
        self.c_var = [self.lp.add_var(f"c[{k}]") for k in range(model.N)]
        self.nu_var: dict[tuple, int] = {}
        for j in range(model.M):
            for tvec in self.tuples:
                for nid in self.all_nodes:
                    self.nu_var[(j, tvec, nid)] = self.lp.add_var(f"nu[{j};{tvec};{nid}]")
        self.eta_var: dict[tuple, int] = {}
        if role == "sub":
            for tvec in self.tuples:
                for nid in self.all_nodes:
                    self.eta_var[(tvec, nid)] = self.lp.add_var(f"eta[{tvec};{nid}]")

    # -- coefficient assembly ---------------------------------------------

    def phi_coeffs(self, tvec: tuple[int, ...], path_idx: int) -> dict[int, Q]:
        """Gain coefficients on base path path_idx with exercise clock tvec."""
        model = self.model
        tree = model.tree
        path = tree.paths[path_idx]
        T = tree.horizon
        coeffs: dict[int, Q] = {}

        def bump(var: int, val: Q) -> None:
            if val:
                coeffs[var] = coeffs.get(var, ZERO) + val

        for r in range(T):
            here = model.stock.at(path[r])
            nxt = model.stock.at(path[r + 1])
            for d in range(self.dims):
                step = nxt[d] - here[d]
                if step:
                    bump(self.h_var[(tvec, r, path[r], d)], step)
                    if self.split_stock:
                        bump(self.h_var_neg[(tvec, r, path[r], d)], -step)
        leaf = path[T]
        for i in range(model.L):
            payoff, _ = model.europeans[i]
            bump(self.a_var[i], payoff.at(leaf) - self.alphas[i])
        for j in range(model.M):
            bump(self.b_var[j], -self.betas[j])
            proc, _ = model.americans_long[j]
            for nid in path:
                bump(self.nu_var[(j, tvec, nid)], proc.scalar(nid))
        for k in range(model.N):
            proc, _ = model.americans_short[k]
            bump(self.c_var[k], -(proc.scalar(path[tvec[k]]) - self.gammas[k]))
        return {v: c for v, c in coeffs.items() if c}

    def hedge_row(self, tvec: tuple[int, ...], path_idx: int) -> tuple[dict[int, Q], Q]:
        """Row coefficients and rhs of the pathwise hedging constraint."""
        model = self.model
        path = model.tree.paths[path_idx]
        row = self.phi_coeffs(tvec, path_idx)
        if self.role == "sub":
            for nid in path:
                val = model.claim.scalar(nid)
                if val:
                    var = self.eta_var[(tvec, nid)]
                    row[var] = row.get(var, ZERO) + val
            row[self.x] = row.get(self.x, ZERO) - ONE
            return row, ZERO
        if self.role == "super":
            row[self.x] = row.get(self.x, ZERO) + ONE
            return row, model.claim.scalar(path[tvec[-1]])
        if self.role == "european":
            row[self.x] = row.get(self.x, ZERO) - ONE
            return row, -self.psi[path_idx]
        return row, ZERO    # arbitrage: plain nonnegativity

    def add_core_rows(self) -> list[int]:
        """Hedging rows for every (clock vector, base path); returns indices."""
        rows = []
        for tvec in self.tuples:
            for p in range(len(self.model.tree.paths)):
                row, rhs = self.hedge_row(tvec, p)
                rows.append(
                    self.lp.add_constraint(row, ">=", rhs, name=f"hedge[{tvec};p{p}]")
                )
        return rows

    def add_unit_and_liquidation_rows(self) -> None:
        model = self.model
        for tvec in self.tuples:
            for p, path in enumerate(model.tree.paths):
                for j in range(model.M):
                    row = {self.nu_var[(j, tvec, nid)]: ONE for nid in path}
                    row[self.b_var[j]] = -ONE
                    self.lp.add_constraint(row, "=", ZERO, name=f"liq[{j};{tvec};p{p}]")
                if self.role == "sub":
                    row = {self.eta_var[(tvec, nid)]: ONE for nid in path}
                    self.lp.add_constraint(row, "=", ONE, name=f"unit[{tvec};p{p}]")

    def add_nonanticipativity(self) -> int:
        """Equalities forcing positions to agree before clocks diverge.

        Each class of clock vectors indistinguishable at time r is tied
        as a chain of consecutive members, which spans the same
        equalities as tying every pair.
        """
        model = self.model
        tree = model.tree
        count = 0
        for r in range(tree.horizon):
            nodes = [nid for nid in self.all_nodes if tree.nodes[nid].time == r]
            for s, t in indistinguishable_pairs(self.tuples, r):
                for nid in nodes:
                    for d in range(self.dims):
                        if self.split_stock:
                            self.lp.add_constraint(
                                {
                                    self.h_var[(s, r, nid, d)]: ONE,
                                    self.h_var_neg[(s, r, nid, d)]: -ONE,
                                    self.h_var[(t, r, nid, d)]: -ONE,
                                    self.h_var_neg[(t, r, nid, d)]: ONE,
                                },
                                "=",
                                ZERO,
                                name=f"na_H[{s}~{t};{nid};{d}]",
                            )
                        else:
                            self.lp.add_constraint(
                                {self.h_var[(s, r, nid, d)]: ONE, self.h_var[(t, r, nid, d)]: -ONE},
                                "=",
                                ZERO,
                                name=f"na_H[{s}~{t};{nid};{d}]",
                            )
                        count += 1
                    for j in range(model.M):
                        self.lp.add_constraint(
                            {self.nu_var[(j, s, nid)]: ONE, self.nu_var[(j, t, nid)]: -ONE},
                            "=",
                            ZERO,
                            name=f"na_nu[{j};{s}~{t};{nid}]",
                        )
                        count += 1
                    if self.role == "sub":
                        self.lp.add_constraint(
                            {self.eta_var[(s, nid)]: ONE, self.eta_var[(t, nid)]: -ONE},
                            "=",
                            ZERO,
                            name=f"na_eta[{s}~{t};{nid}]",
                        )
                        count += 1
        return count

    def add_grid_rows(self, grid: list[tuple[tuple[Q, ...], ...]]) -> int:
        """Mixture constraints at divisible exercise-weight grid points.

        Each grid row is the weight-mixture of the per-clock-vector
        hedging rows; implied by them, so the value must not move.
        """
        count = 0
        for point in grid:
            if all(max(vec) == ONE for vec in point):
                continue    # Dirac: already a core row
            mix_row: dict[int, Q] = {}
            for p in range(len(self.model.tree.paths)):
                mix_row.clear()
                mix_rhs = ZERO
                for tvec in self.tuples:
                    w = _mixture_weight(point, tvec)
                    if not w:
                        continue
                    row, rhs = self.hedge_row(tvec, p)
                    mix_rhs += w * rhs
                    for var, val in row.items():
                        mix_row[var] = mix_row.get(var, ZERO) + w * val
                self.lp.add_constraint(
                    {v: c for v, c in mix_row.items() if c},
                    ">=",
                    mix_rhs,
                    name=f"grid[{count};p{p}]",
                )
                count += 1
        return count

    def add_norm_row(self) -> None:
        row: dict[int, Q] = {}
        for var in self.h_var.values():
            row[var] = ONE
        for var in self.h_var_neg.values():
            row[var] = ONE
        for var in (*self.a_var, *self.b_var, *self.c_var):
            row[var] = ONE
        self.lp.add_constraint(row, "<=", ONE, name="norm")

    # -- optimizer extraction and independent re-evaluation ----------------

    def families_from(self, out) -> dict:
        model = self.model
        T = model.tree.horizon
        h_members = {}
        nu_members = [dict() for _ in range(model.M)]
        eta_members = {}
        for tvec in self.tuples:
            member = {}
            for r, nid in self.internal:
                vals = []
                for d in range(self.dims):
                    v = out.x(self.h_var[(tvec, r, nid, d)])
                    if self.split_stock:
                        v -= out.x(self.h_var_neg[(tvec, r, nid, d)])
                    vals.append(v)
                member[(r, nid)] = tuple(vals)
            h_members[tvec] = member
            for j in range(model.M):
                nu_members[j][tvec] = {
                    nid: out.x(self.nu_var[(j, tvec, nid)]) for nid in self.all_nodes
                }
            if self.role == "sub":
                eta_members[tvec] = {
                    nid: out.x(self.eta_var[(tvec, nid)]) for nid in self.all_nodes
                }
        result = {
            "H": ClockIndexedFamily(horizon=T, n=self.n, kind="dynamic", members=h_members),
            "nu": [
                ClockIndexedFamily(horizon=T, n=self.n, kind="liquidating", members=nu_members[j])
                for j in range(model.M)
            ],
            "a": [out.x(v) for v in self.a_var],
            "b": [out.x(v) for v in self.b_var],
            "c": [out.x(v) for v in self.c_var],
        }
        if self.role == "sub":
            result["eta"] = ClockIndexedFamily(
                horizon=T, n=self.n, kind="liquidating", members=eta_members
            )
        if self.x is not None:
            result["x"] = out.x(self.x)
        return result

    def eval_gain(self, fams: dict, tvec: tuple[int, ...], path_idx: int) -> Q:
        """Re-evaluate the clock-vector gain from raw positions."""
        model = self.model
        path = model.tree.paths[path_idx]
        T = model.tree.horizon
        total = ZERO
        member = fams["H"].members[tvec]
        for r in range(T):
            here = model.stock.at(path[r])
            nxt = model.stock.at(path[r + 1])
            pos = member[(r, path[r])]
            for d in range(self.dims):
                total += pos[d] * (nxt[d] - here[d])
        leaf = path[T]
        for i in range(model.L):
            payoff, _ = model.europeans[i]
            total += fams["a"][i] * (payoff.at(leaf) - self.alphas[i])
        for j in range(model.M):
            proc, _ = model.americans_long[j]
            masses = fams["nu"][j].members[tvec]
            for nid in path:
                total += masses.get(nid, ZERO) * proc.scalar(nid)
            total -= fams["b"][j] * self.betas[j]
        for k in range(model.N):
            proc, _ = model.americans_short[k]
            total -= fams["c"][k] * (proc.scalar(path[tvec[k]]) - self.gammas[k])
        return total


def _price_clock_indexed(
    model: MarketModel,
    role: str,
    *,
    prices: Prices | None = None,
    psi: list[Q] | None = None,
    grid: list | None = None,
) -> tuple[Q, dict, ClockLP]:
    n = model.N + 1 if role == "super" else model.N
    clp = ClockLP(model, n, prices=prices, role=role, psi=psi)
    clp.add_core_rows()
    clp.add_unit_and_liquidation_rows()
    clp.add_nonanticipativity()
    if grid:
        clp.add_grid_rows(grid)
    sense = "min" if role == "super" else "max"
    clp.lp.set_objective(sense, {clp.x: ONE})
    out = solve(clp.lp)
    if out.status != "optimal":
        raise PropertyViolation(f"clock-indexed {role} LP unexpectedly {out.status}")
    fams = clp.families_from(out)
    return out.value, fams, clp


def _clock_indexed_na(
    model: MarketModel,
    *,
    prices: Prices | None = None,
    grid: list | None = None,
) -> bool:
    """No-arbitrage in the clock-indexed formulation (True = no arbitrage)."""
    clp = ClockLP(model, model.N, prices=prices, role="arbitrage", split_stock=True)
    rows = clp.add_core_rows()
    clp.add_unit_and_liquidation_rows()
    clp.add_nonanticipativity()
    if grid:
        clp.add_grid_rows(grid)
    clp.add_norm_row()
    num_paths = len(model.tree.paths)
    share = Q(1, len(clp.tuples))
    objective: dict[int, Q] = {}
    for tvec in clp.tuples:
        for p in range(num_paths):
            w = model.path_weight(p) * share
            for var, val in clp.phi_coeffs(tvec, p).items():
                term = w * val
                if term:
                    objective[var] = objective.get(var, ZERO) + term
    clp.lp.set_objective("max", {v: c for v, c in objective.items() if c})
    out = solve(clp.lp)
    if out.status != "optimal":
        raise PropertyViolation(f"clock-indexed arbitrage LP unexpectedly {out.status}")
    return out.value == ZERO


@dataclass
class DivisibilityReport:
    sub_indexed: Q
    sub_enlarged: Q
    super_indexed: Q
    super_enlarged: Q
    european_indexed: Q
    european_enlarged: Q
    sub_grid: Q
    super_grid: Q
    lift_checks: int
    sna_grid: list[tuple[Q, bool, bool]]

    @property
    def equal(self) -> bool:
        return (
            self.sub_indexed == self.sub_enlarged == self.sub_grid
            and self.super_indexed == self.super_enlarged == self.super_grid
            and self.european_indexed == self.european_enlarged
            and all(na1 == na2 for _, na1, na2 in self.sna_grid)
        )

    def to_json(self) -> dict:
        return {
            "sub": {
                "indexed": rat_str(self.sub_indexed),
                "enlarged": rat_str(self.sub_enlarged),
                "grid_augmented": rat_str(self.sub_grid),
            },
            "super": {
                "indexed": rat_str(self.super_indexed),
                "enlarged": rat_str(self.super_enlarged),
                "grid_augmented": rat_str(self.super_grid),
            },
            "european": {
                "indexed": rat_str(self.european_indexed),
                "enlarged": rat_str(self.european_enlarged),
            },
            "lift_checks": self.lift_checks,
            "sna_grid": [
                {"eps": rat_str(e), "indexed_na": a, "enlarged_na": b}
                for e, a, b in self.sna_grid
            ],
            "equal": self.equal,
        }


def _certify_lift(
    clp: ClockLP,
    fams: dict,
    grid: list,
    price: Q,
) -> int:
    """Pathwise check that every grid mixture of the optimizer hedges.

    For sub: mixture gain plus mixed claim exercise >= price; for
    super: price plus mixture gain >= mixed claim payout; European:
    mixture gain + psi >= price.  Exact on every base path.
    """
    model = clp.model
    checks = 0
    for fam in (fams["H"], *fams["nu"], *( [fams["eta"]] if "eta" in fams else [] )):
        if not validate_nonanticipative(fam, model.tree):
            raise PropertyViolation("optimizer family is not non-anticipative")
    for point in grid:
        for p, path in enumerate(model.tree.paths):
            mixed_gain = ZERO
            mixed_claim = ZERO
            mixed_eta = ZERO
            for tvec in clp.tuples:
                w = _mixture_weight(point, tvec)
                if not w:
                    continue
                mixed_gain += w * clp.eval_gain(fams, tvec, p)
                if clp.role == "super":
                    mixed_claim += w * model.claim.scalar(path[tvec[-1]])
                elif clp.role == "sub":
                    eta = fams["eta"].members[tvec]
                    mixed_eta += w * sum(
                        (eta.get(nid, ZERO) * model.claim.scalar(nid) for nid in path), ZERO
                    )
            if clp.role == "sub":
                ok = mixed_gain + mixed_eta >= price
            elif clp.role == "super":
                ok = price + mixed_gain >= mixed_claim
            else:
                ok = mixed_gain + clp.psi[p] >= price
            if not ok:
                raise PropertyViolation(
                    f"grid point mixture fails the {clp.role} hedge on path {p}"
                )
            checks += 1
    return checks


def verify_divisibility_equivalence(
    model: MarketModel,
    *,
    prices: Prices | None = None,
    eps_grid: list[Q] | None = None,
) -> DivisibilityReport:
    """Clock-indexed vs enlarged-space prices, and divisible certification.

    Computes sub/super/European prices in the clock-indexed LP and on
    the enlarged space; asserts exact agreement; certifies the
    divisible side via optimizer mixtures on a weight grid and via
    grid-augmented LPs whose value must not move; and compares
    no-arbitrage verdicts of the two formulations across an
    epsilon-grid of price shifts.
    """
    if model.claim is None:
        raise ValueError("divisibility verification needs a claim")
    N = model.N
    T = model.tree.horizon
    grid_sub = weight_grid(N, T)
    grid_super = weight_grid(N + 1, T)

    sub_val, sub_fams, sub_clp = _price_clock_indexed(model, "sub", prices=prices)
    super_val, super_fams, super_clp = _price_clock_indexed(model, "super", prices=prices)
    psi = [model.claim.scalar(path[T]) for path in model.tree.paths]
    euro_val, euro_fams, euro_clp = _price_clock_indexed(model, "european", prices=prices, psi=psi)

    enl_sub = enlarge(model, N)
    enl_super = enlarge(model, N + 1)
    sub_enl = subhedge(enl_sub, prices=prices).price
    super_enl = superhedge(enl_super, prices=prices).price
    psi_enl = [psi[enl_sub.epaths[p].base_index] for p in range(enl_sub.num_paths)]
    euro_enl = subhedge_european(enl_sub, psi_enl, prices=prices).price

    for name, a, b in (
        ("sub", sub_val, sub_enl),
        ("super", super_val, super_enl),
        ("european", euro_val, euro_enl),
    ):
        if a != b:
            raise PropertyViolation(
                f"{name} prices disagree: clock-indexed {rat_str(a)} vs enlarged {rat_str(b)}"
            )

    sub_grid_val, _, _ = _price_clock_indexed(model, "sub", prices=prices, grid=grid_sub)
    super_grid_val, _, _ = _price_clock_indexed(model, "super", prices=prices, grid=grid_super)
    euro_grid_val, _, _ = _price_clock_indexed(
        model, "european", prices=prices, psi=psi, grid=grid_sub
    )
    if sub_grid_val != sub_val or super_grid_val != super_val or euro_grid_val != euro_val:
        raise PropertyViolation("grid-augmented LP moved a price")

    checks = _certify_lift(sub_clp, sub_fams, grid_sub, sub_val)
    checks += _certify_lift(super_clp, super_fams, grid_super, super_val)
    checks += _certify_lift(euro_clp, euro_fams, grid_sub, euro_val)

    if eps_grid is None:
        eps_grid = [Q(1, 2**i) for i in range(1, 9)]
    sna_rows: list[tuple[Q, bool, bool]] = []
    for eps in eps_grid:
        shifted = _shift_prices(model, prices, eps)
        na_indexed = _clock_indexed_na(model, prices=shifted, grid=grid_sub)
        na_enlarged = not detect_arbitrage(enl_sub, prices=shifted).found
        sna_rows.append((eps, na_indexed, na_enlarged))
        if na_indexed != na_enlarged:
            raise PropertyViolation(
                f"no-arbitrage verdicts disagree at eps={rat_str(eps)}"
            )

    return DivisibilityReport(
        sub_indexed=sub_val,
        sub_enlarged=sub_enl,
        super_indexed=super_val,
        super_enlarged=super_enl,
        european_indexed=euro_val,
        european_enlarged=euro_enl,
        sub_grid=sub_grid_val,
        super_grid=super_grid_val,
        lift_checks=checks,
        sna_grid=sna_rows,
    )
