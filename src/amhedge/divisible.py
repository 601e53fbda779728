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
    StockPositions,
    _bump,
    add_static_vars,
    add_weighted_gains,
    detect_arbitrage,
    evaluate_gain,
    gain_row,
    gain_terms,
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

__all__ = [
    "EPS_GRID", "ClockLP", "DivisibilityReport", "verify_divisibility_equivalence", "weight_grid",
]

# quote shifts swept by the no-arbitrage grid checks
EPS_GRID = tuple(Q(1, 2 ** k) for k in range(1, 9))


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
    H[t, node, dim], static a/b/c shared across clock vectors,
    per-clock-vector liquidation masses nu and (sub only) claim
    exercise weights eta.  Pairs of clock vectors that are
    indistinguishable up to time r share their positions before r.
    """

    def __init__(
        self,
        model: MarketModel,
        n: int,
        *,
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
        tree = model.tree
        T = tree.horizon
        self.tuples = list(itertools.product(range(T + 1), repeat=n))
        self.lp = LinearProgram()
        self.x = None
        if role in ("sub", "super", "european"):
            self.x = self.lp.add_var("x", nonneg=False)

        self.internal = sorted((n.time, nid) for nid, n in tree.nodes.items() if n.time < T)
        self.all_nodes = sorted(tree.nodes, key=lambda nid: (tree.nodes[nid].time, nid))
        # positions and masses are keyed (clock vector, node): the node fixes the time
        keys = (((tvec, nid), f"{tvec};{nid}") for tvec in self.tuples for _, nid in self.internal)
        self.stock = StockPositions(self.lp, keys, model.stock.dim, split=split_stock)
        self.static = add_static_vars(self.lp, model)
        self.nu_var = [
            {
                (tvec, nid): self.lp.add_var(f"nu[{j};{tvec};{nid}]")
                for tvec in self.tuples
                for nid in self.all_nodes
            }
            for j in range(model.M)
        ]
        self.eta_var: dict[tuple, int] = {}
        if role == "sub":
            self.eta_var = {
                (tvec, nid): self.lp.add_var(f"eta[{tvec};{nid}]")
                for tvec in self.tuples
                for nid in self.all_nodes
            }

    # -- coefficient assembly ---------------------------------------------

    def phi_coeffs(self, tvec: tuple[int, ...], path_idx: int) -> dict[int, Q]:
        """Gain coefficients on base path path_idx with exercise clock tvec."""
        at = [(tvec, nid) for nid in self.model.tree.paths[path_idx]]
        terms = gain_terms(self.model, path_idx, tvec)
        return gain_row(terms, self.stock, at, self.static, self.nu_var)

    def hedge_row(self, tvec: tuple[int, ...], path_idx: int) -> tuple[dict[int, Q], Q]:
        """Row coefficients and rhs of the pathwise hedging constraint."""
        model = self.model
        path = model.tree.paths[path_idx]
        row = self.phi_coeffs(tvec, path_idx)
        if self.role == "sub":
            for nid in path:
                _bump(row, self.eta_var[(tvec, nid)], model.claim.scalar(nid))
            row[self.x] = row.get(self.x, ZERO) - ONE
            return row, ZERO
        if self.role == "super":
            row[self.x] = row.get(self.x, ZERO) + ONE
            return row, model.claim.scalar(path[tvec[-1]])
        if self.role == "european":
            row[self.x] = row.get(self.x, ZERO) - ONE
            return row, -self.psi[path_idx]
        return row, ZERO    # arbitrage: plain nonnegativity

    def add_core_rows(self) -> None:
        """Hedging rows for every (clock vector, base path)."""
        for tvec in self.tuples:
            for p in range(len(self.model.tree.paths)):
                row, rhs = self.hedge_row(tvec, p)
                self.lp.add_constraint(row, ">=", rhs, name=f"hedge[{tvec};p{p}]")

    def add_unit_and_liquidation_rows(self) -> None:
        model = self.model
        for tvec in self.tuples:
            for p, path in enumerate(model.tree.paths):
                for j, nu in enumerate(self.nu_var):
                    row = {nu[(tvec, nid)]: ONE for nid in path}
                    row[self.static["b"][j]] = -ONE
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
                    for d in range(model.stock.dim):
                        row: dict[int, Q] = {}
                        self.stock.add(row, (s, nid), d, ONE)
                        self.stock.add(row, (t, nid), d, -ONE)
                        self.lp.add_constraint(row, "=", ZERO, name=f"na_H[{s}~{t};{nid};{d}]")
                        count += 1
                    for j, nu in enumerate(self.nu_var):
                        self.lp.add_constraint(
                            {nu[(s, nid)]: ONE, nu[(t, nid)]: -ONE},
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

    # -- optimizer extraction -----------------------------------------------

    def families_from(self, out) -> dict:
        model = self.model
        dims = range(model.stock.dim)
        stock = self.stock.values(out.primal)

        def family(kind, member):
            members = {tvec: member(tvec) for tvec in self.tuples}
            T = model.tree.horizon
            return ClockIndexedFamily(horizon=T, n=self.n, kind=kind, members=members)

        def masses(var):
            return lambda tvec: {nid: out.x(var[(tvec, nid)]) for nid in self.all_nodes}

        result = {
            "H": family("dynamic", lambda tvec: {
                (r, nid): tuple(stock.get(((tvec, nid), d), ZERO) for d in dims)
                for r, nid in self.internal
            }),
            "nu": [family("liquidating", masses(nu)) for nu in self.nu_var],
            **{kind: [out.x(var) for var in vs] for kind, vs in self.static.items()},
        }
        if self.role == "sub":
            result["eta"] = family("liquidating", masses(self.eta_var))
        if self.x is not None:
            result["x"] = out.x(self.x)
        return result


def _clock_gain(clp: ClockLP, fams: dict, tvec: tuple[int, ...], path_idx: int) -> Q:
    """Phi of the clock-vector members on one base path, by the one evaluator."""
    path = clp.model.tree.paths[path_idx]
    member = fams["H"].members[tvec]
    return evaluate_gain(
        clp.model,
        path_idx,
        tvec,
        [member[(t, nid)] for t, nid in enumerate(path[:-1])],
        a=fams["a"],
        b=fams["b"],
        c=fams["c"],
        nu=[[fam.members[tvec].get(nid, ZERO) for nid in path] for fam in fams["nu"]],
    )


def _solve_clock_lp(clp: ClockLP, grid: list | None, sense: str, objective: dict[int, Q]):
    """Liquidation, non-anticipativity and grid rows after the core rows, then solve."""
    clp.add_unit_and_liquidation_rows()
    clp.add_nonanticipativity()
    if grid:
        clp.add_grid_rows(grid)
    if clp.stock.split:
        clp.stock.add_norm_row(sum(clp.static.values(), []))
    clp.lp.set_objective(sense, objective)
    out = solve(clp.lp)
    if out.status != "optimal":
        raise PropertyViolation(f"clock-indexed {clp.role} LP unexpectedly {out.status}")
    return out


def _price_clock_indexed(
    model: MarketModel,
    role: str,
    *,
    psi: list[Q] | None = None,
    grid: list | None = None,
) -> tuple[Q, dict, ClockLP]:
    n = model.N + 1 if role == "super" else model.N
    clp = ClockLP(model, n, role=role, psi=psi)
    clp.add_core_rows()
    out = _solve_clock_lp(clp, grid, "min" if role == "super" else "max", {clp.x: ONE})
    return out.value, clp.families_from(out), clp


def _clock_indexed_na(model: MarketModel, grid: list) -> bool:
    """No-arbitrage in the clock-indexed formulation (True = no arbitrage)."""
    clp = ClockLP(model, model.N, role="arbitrage", split_stock=True)
    share = Q(1, len(clp.tuples))
    objective = add_weighted_gains(clp.lp, (
        (f"hedge[{tvec};p{p}]", clp.phi_coeffs(tvec, p), model.path_weight(p) * share)
        for tvec in clp.tuples
        for p in range(len(model.tree.paths))
    ))
    return _solve_clock_lp(clp, grid, "max", objective).value == ZERO


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
                mixed_gain += w * _clock_gain(clp, fams, tvec, p)
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


def verify_divisibility_equivalence(model: MarketModel) -> DivisibilityReport:
    """Clock-indexed vs enlarged-space prices, and divisible certification.

    Computes sub/super/European prices in the clock-indexed LP and on
    the enlarged space; asserts exact agreement; certifies the
    divisible side via optimizer mixtures on a weight grid and via
    grid-augmented LPs whose value must not move; and compares
    no-arbitrage verdicts of the two formulations at the quotes of
    model.shifted_prices(eps) for every eps in EPS_GRID.
    """
    if model.claim is None:
        raise ValueError("divisibility verification needs a claim")
    N = model.N
    T = model.tree.horizon
    grid_sub = weight_grid(N, T)
    grid_super = weight_grid(N + 1, T)

    sub_val, sub_fams, sub_clp = _price_clock_indexed(model, "sub")
    super_val, super_fams, super_clp = _price_clock_indexed(model, "super")
    psi = [model.claim.scalar(path[T]) for path in model.tree.paths]
    euro_val, euro_fams, euro_clp = _price_clock_indexed(model, "european", psi=psi)

    enl_sub = enlarge(model, N)
    sub_enl = subhedge(enl_sub).price
    super_enl = superhedge(enlarge(model, N + 1)).price
    psi_enl = [psi[enl_sub.epaths[p].base_index] for p in range(enl_sub.num_paths)]
    euro_enl = subhedge_european(enl_sub, psi_enl).price

    for name, a, b in (
        ("sub", sub_val, sub_enl),
        ("super", super_val, super_enl),
        ("european", euro_val, euro_enl),
    ):
        if a != b:
            raise PropertyViolation(
                f"{name} prices disagree: clock-indexed {rat_str(a)} vs enlarged {rat_str(b)}"
            )

    sub_grid_val, _, _ = _price_clock_indexed(model, "sub", grid=grid_sub)
    super_grid_val, _, _ = _price_clock_indexed(model, "super", grid=grid_super)
    euro_grid_val, _, _ = _price_clock_indexed(model, "european", psi=psi, grid=grid_sub)
    if sub_grid_val != sub_val or super_grid_val != super_val or euro_grid_val != euro_val:
        raise PropertyViolation("grid-augmented LP moved a price")

    checks = _certify_lift(sub_clp, sub_fams, grid_sub, sub_val)
    checks += _certify_lift(super_clp, super_fams, grid_super, super_val)
    checks += _certify_lift(euro_clp, euro_fams, grid_sub, euro_val)

    sna_rows: list[tuple[Q, bool, bool]] = []
    for eps in EPS_GRID:
        shifted = model.shifted_prices(eps)
        na_indexed = _clock_indexed_na(shifted, grid_sub)
        na_enlarged = not detect_arbitrage(enl_sub.with_model(shifted)).found
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
