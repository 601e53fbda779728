"""Exact rational linear programming with verified certificates.

Two-phase primal simplex over exact rationals, Bland's rule throughout
(deterministic, cycle-free).  Every solve returns, besides the optimum:

* optimal       -- primal point, dual multipliers; strong duality and both
                   feasibilities are re-checked exactly before returning,
* infeasible    -- a Farkas certificate (verified),
* unbounded     -- an improving ray (verified).

The solver never touches floats.  A failed internal check raises
LPInternalError rather than returning a wrong answer.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from .rationals import ONE, ZERO, Q, rat

Relation = Literal["<=", "=", ">="]

_MAX_PIVOTS = 5_000_000


class LPInternalError(RuntimeError):
    """A solver self-check failed; the result would not be trustworthy."""


@dataclass
class _Row:
    coeffs: dict[int, Q]
    rel: Relation
    rhs: Q
    name: str


class LinearProgram:
    """Incremental LP builder with integer variable handles."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self.var_names: list[str] = []
        self.nonneg: list[bool] = []
        self.rows: list[_Row] = []
        self.sense: Literal["max", "min"] = "max"
        self.objective: dict[int, Q] = {}

    def add_var(self, name: str, nonneg: bool = True) -> int:
        self.var_names.append(name)
        self.nonneg.append(nonneg)
        return len(self.var_names) - 1

    def add_constraint(self, coeffs: dict[int, Q], rel: Relation, rhs, name: str = "") -> int:
        if rel not in ("<=", "=", ">="):
            raise ValueError(f"bad relation {rel!r}")
        clean = {j: rat(v) for j, v in coeffs.items() if v}
        self.rows.append(_Row(clean, rel, rat(rhs), name or f"r{len(self.rows)}"))
        return len(self.rows) - 1

    def set_objective(self, sense: Literal["max", "min"], coeffs: dict[int, Q]) -> None:
        self.sense = sense
        self.objective = {j: rat(v) for j, v in coeffs.items() if v}

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def copy(self) -> "LinearProgram":
        other = LinearProgram(self.name)
        other.var_names = list(self.var_names)
        other.nonneg = list(self.nonneg)
        other.rows = [_Row(dict(r.coeffs), r.rel, r.rhs, r.name) for r in self.rows]
        other.sense = self.sense
        other.objective = dict(self.objective)
        return other


@dataclass
class LPOutcome:
    status: Literal["optimal", "infeasible", "unbounded"]
    value: Q | None = None
    primal: list[Q] | None = None
    duals: list[Q] | None = None
    farkas: list[Q] | None = None
    ray: list[Q] | None = None
    pivots: int = 0
    rows: int = 0
    cols: int = 0

    def x(self, j: int) -> Q:
        assert self.primal is not None
        return self.primal[j]


def format_lp(lp: LinearProgram) -> str:
    """Human-readable dump of an LP: objective, named rows and free variables."""
    out = [f"# {lp.name}: {lp.sense} over {lp.num_vars} vars, {lp.num_rows} rows"]
    terms = " + ".join(f"{v}*{lp.var_names[j]}" for j, v in sorted(lp.objective.items()))
    out.append(f"{lp.sense} {terms or '0'}")
    for r in lp.rows:
        lhs = " + ".join(f"{v}*{lp.var_names[j]}" for j, v in sorted(r.coeffs.items()))
        out.append(f"  [{r.name}] {lhs or '0'} {r.rel} {r.rhs}")
    free = [lp.var_names[j] for j in range(lp.num_vars) if not lp.nonneg[j]]
    if free:
        out.append("  free: " + ", ".join(free))
    return "\n".join(out)


class _Tableau:
    """Dense simplex tableau; columns = structural(+split) | slacks | artificials."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        # structural columns: (var, +1) and for free vars (var, -1)
        self.col_var: list[tuple[int, int]] = []
        self.pos_col: list[int] = []
        self.neg_col: list[int | None] = []
        for j in range(lp.num_vars):
            self.pos_col.append(len(self.col_var))
            self.col_var.append((j, +1))
            if lp.nonneg[j]:
                self.neg_col.append(None)
            else:
                self.neg_col.append(len(self.col_var))
                self.col_var.append((j, -1))
        self.n_struct = len(self.col_var)

        m = lp.num_rows
        self.flip = [False] * m
        dense_rows: list[dict[int, Q]] = []
        rels: list[Relation] = []
        rhs: list[Q] = []
        for i, row in enumerate(lp.rows):
            coeffs: dict[int, Q] = {}
            for j, v in row.coeffs.items():
                coeffs[self.pos_col[j]] = v
                nc = self.neg_col[j]
                if nc is not None:
                    coeffs[nc] = -v
            rel, b = row.rel, row.rhs
            if b < 0:
                coeffs = {c: -v for c, v in coeffs.items()}
                b = -b
                rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
                self.flip[i] = True
            dense_rows.append(coeffs)
            rels.append(rel)
            rhs.append(b)

        self.slack_col: list[int | None] = [None] * m
        ncols = self.n_struct
        for i, rel in enumerate(rels):
            if rel != "=":
                self.slack_col[i] = ncols
                ncols += 1
        self.art_col = list(range(ncols, ncols + m))
        self.ncols = ncols + m

        self.rows: list[list[Q]] = []
        for i in range(m):
            dense = [ZERO] * self.ncols
            for c, v in dense_rows[i].items():
                dense[c] = v
            sc = self.slack_col[i]
            if sc is not None:
                dense[sc] = ONE if rels[i] == "<=" else -ONE
            dense[self.art_col[i]] = ONE
            self.rows.append(dense)
        self.rhs = rhs
        self.rels = rels

        self.basis: list[int] = []
        for i in range(m):
            sc = self.slack_col[i]
            if sc is not None and rels[i] == "<=":
                self.basis.append(sc)
            else:
                self.basis.append(self.art_col[i])
        self.zrow: list[Q] = [ZERO] * self.ncols
        self.zval: Q = ZERO
        self.pivots = 0

    # -- core mechanics -------------------------------------------------

    def set_costs(self, costs: list[Q]) -> None:
        zrow = list(costs)
        zval = ZERO
        for i, bc in enumerate(self.basis):
            cb = costs[bc]
            if cb:
                row = self.rows[i]
                zrow = [z - cb * a if a else z for z, a in zip(zrow, row)]
                zval += cb * self.rhs[i]
        self.zrow = zrow
        self.zval = zval

    def pivot(self, r: int, c: int) -> None:
        rows = self.rows
        prow = rows[r]
        piv = prow[c]
        if piv != 1:
            inv = ONE / piv
            prow = [v * inv if v else v for v in prow]
            rows[r] = prow
            self.rhs[r] *= inv
        prhs = self.rhs[r]
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                row = rows[i]
                rows[i] = [a - f * b if b else a for a, b in zip(row, prow)]
                if prhs:
                    self.rhs[i] -= f * prhs
        f = self.zrow[c]
        if f:
            self.zrow = [a - f * b if b else a for a, b in zip(self.zrow, prow)]
            if prhs:
                self.zval += f * prhs
        self.basis[r] = c
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise LPInternalError("pivot budget exhausted; suspected bug")

    def bland(self, allowed: list[bool]) -> Literal["optimal", "unbounded"] | int:
        """One Bland step: pivot and return the entering column, or a verdict."""
        zrow = self.zrow
        enter = -1
        for c in range(self.ncols):
            if allowed[c] and zrow[c] > 0:
                enter = c
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best: Q | None = None
        for i, row in enumerate(self.rows):
            a = row[enter]
            if a > 0:
                ratio = self.rhs[i] / a
                if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        self.pivot(leave, enter)
        return enter

    def run(self, allowed: list[bool]) -> Literal["optimal", "unbounded"]:
        while True:
            step = self.bland(allowed)
            if step == "optimal" or step == "unbounded":
                return step

    def duals_from_arts(self, art_cost: Q) -> list[Q]:
        """y_r = cost(art_r) - reduced_cost(art_r), unflipped to original rows."""
        ys = []
        for i in range(len(self.rows)):
            y = art_cost - self.zrow[self.art_col[i]]
            ys.append(-y if self.flip[i] else y)
        return ys


def _struct_costs(tab: _Tableau, obj: dict[int, Q], sign: Q) -> list[Q]:
    costs = [ZERO] * tab.ncols
    for j, v in obj.items():
        costs[tab.pos_col[j]] = sign * v
        nc = tab.neg_col[j]
        if nc is not None:
            costs[nc] = -sign * v
    return costs


def solve(lp: LinearProgram) -> LPOutcome:
    """Solve exactly; certificates are re-verified before returning."""
    tab = _Tableau(lp)
    m = lp.num_rows

    # phase 1: drive artificials to zero
    ph1 = [ZERO] * tab.ncols
    for c in tab.art_col:
        ph1[c] = -ONE
    tab.set_costs(ph1)
    allowed = [True] * tab.ncols
    verdict = tab.run(allowed)
    if verdict == "unbounded":  # pragma: no cover - phase 1 is bounded by 0
        raise LPInternalError("phase 1 unbounded")
    if tab.zval < 0:
        farkas = tab.duals_from_arts(-ONE)
        _verify_farkas(lp, farkas)
        return LPOutcome(status="infeasible", farkas=farkas,
                         pivots=tab.pivots, rows=m, cols=tab.ncols)

    # pivot leftover artificials out of the basis; their rows are at zero, so
    # any nonzero real column works as a degenerate pivot.  Rows with no such
    # column are redundant and keep their artificial pinned at zero.
    art_set = set(tab.art_col)
    n_real = tab.art_col[0]
    for i in range(m):
        if tab.basis[i] in art_set:
            row = tab.rows[i]
            for c in range(n_real):
                if row[c]:
                    tab.pivot(i, c)
                    break

    # phase 2
    sign = ONE if lp.sense == "max" else -ONE
    tab.set_costs(_struct_costs(tab, lp.objective, sign))
    for c in tab.art_col:
        allowed[c] = False
    verdict = tab.run(allowed)

    if verdict == "unbounded":
        enter = next(c for c in range(tab.ncols) if allowed[c] and tab.zrow[c] > 0)
        direction = [ZERO] * tab.ncols
        direction[enter] = ONE
        for i, bc in enumerate(tab.basis):
            a = tab.rows[i][enter]
            if a:
                direction[bc] = -a
        ray = [ZERO] * lp.num_vars
        for j in range(lp.num_vars):
            d = direction[tab.pos_col[j]]
            nc = tab.neg_col[j]
            if nc is not None:
                d -= direction[nc]
            ray[j] = d
        _verify_ray(lp, ray)
        return LPOutcome(status="unbounded", ray=ray,
                         pivots=tab.pivots, rows=m, cols=tab.ncols)

    primal = [ZERO] * lp.num_vars
    vals = [ZERO] * tab.ncols
    for i, bc in enumerate(tab.basis):
        vals[bc] = tab.rhs[i]
    for j in range(lp.num_vars):
        v = vals[tab.pos_col[j]]
        nc = tab.neg_col[j]
        if nc is not None:
            v -= vals[nc]
        primal[j] = v
    value = tab.zval if lp.sense == "max" else -tab.zval
    duals = tab.duals_from_arts(ZERO)
    if lp.sense == "min":
        duals = [-y for y in duals]
    _verify_optimal(lp, primal, duals, value)
    return LPOutcome(status="optimal", value=value, primal=primal, duals=duals,
                     pivots=tab.pivots, rows=m, cols=tab.ncols)


# -- exact certificate checks -------------------------------------------


def _eval_row(row: _Row, x: list[Q]) -> Q:
    total = ZERO
    for j, v in row.coeffs.items():
        xv = x[j]
        if xv:
            total += v * xv
    return total


def _verify_optimal(lp: LinearProgram, x: list[Q], y: list[Q], value: Q) -> None:
    for j in range(lp.num_vars):
        if lp.nonneg[j] and x[j] < 0:
            raise LPInternalError(f"negative value for {lp.var_names[j]}")
    obj = ZERO
    for j, v in lp.objective.items():
        if x[j]:
            obj += v * x[j]
    if obj != value:
        raise LPInternalError("objective mismatch")
    ydotb = ZERO
    for i, row in enumerate(lp.rows):
        lhs = _eval_row(row, x)
        if row.rel == "<=" and lhs > row.rhs:
            raise LPInternalError(f"row {row.name} violated")
        if row.rel == ">=" and lhs < row.rhs:
            raise LPInternalError(f"row {row.name} violated")
        if row.rel == "=" and lhs != row.rhs:
            raise LPInternalError(f"row {row.name} violated")
        yi = y[i]
        if lp.sense == "max":
            if row.rel == "<=" and yi < 0:
                raise LPInternalError(f"dual sign on {row.name}")
            if row.rel == ">=" and yi > 0:
                raise LPInternalError(f"dual sign on {row.name}")
        else:
            if row.rel == "<=" and yi > 0:
                raise LPInternalError(f"dual sign on {row.name}")
            if row.rel == ">=" and yi < 0:
                raise LPInternalError(f"dual sign on {row.name}")
        if yi:
            ydotb += yi * row.rhs
    if ydotb != value:
        raise LPInternalError("strong duality gap")
    # dual feasibility: A^T y vs c
    aty = [ZERO] * lp.num_vars
    for i, row in enumerate(lp.rows):
        yi = y[i]
        if yi:
            for j, v in row.coeffs.items():
                aty[j] += yi * v
    for j in range(lp.num_vars):
        cj = lp.objective.get(j, ZERO)
        if lp.nonneg[j]:
            bad = aty[j] < cj if lp.sense == "max" else aty[j] > cj
        else:
            bad = aty[j] != cj
        if bad:
            raise LPInternalError(f"dual infeasibility at {lp.var_names[j]}")


def _verify_farkas(lp: LinearProgram, y: list[Q]) -> None:
    ydotb = ZERO
    aty = [ZERO] * lp.num_vars
    for i, row in enumerate(lp.rows):
        yi = y[i]
        if row.rel == "<=" and yi < 0:
            raise LPInternalError("farkas sign")
        if row.rel == ">=" and yi > 0:
            raise LPInternalError("farkas sign")
        if yi:
            ydotb += yi * row.rhs
            for j, v in row.coeffs.items():
                aty[j] += yi * v
    for j in range(lp.num_vars):
        if lp.nonneg[j]:
            if aty[j] < 0:
                raise LPInternalError("farkas cone violation")
        elif aty[j] != 0:
            raise LPInternalError("farkas cone violation")
    if ydotb >= 0:
        raise LPInternalError("farkas certifies nothing")


def _verify_ray(lp: LinearProgram, d: list[Q]) -> None:
    for j in range(lp.num_vars):
        if lp.nonneg[j] and d[j] < 0:
            raise LPInternalError("ray leaves the sign cone")
    rate = ZERO
    for j, v in lp.objective.items():
        if d[j]:
            rate += v * d[j]
    improving = rate > 0 if lp.sense == "max" else rate < 0
    if not improving:
        raise LPInternalError("ray does not improve")
    for row in lp.rows:
        a = _eval_row(row, d)
        if row.rel == "<=" and a > 0:
            raise LPInternalError("ray infeasible")
        if row.rel == ">=" and a < 0:
            raise LPInternalError("ray infeasible")
        if row.rel == "=" and a != 0:
            raise LPInternalError("ray infeasible")


# -- uniform slack maximization -----------------------------------------


@dataclass
class SlackOutcome:
    status: Literal["optimal", "infeasible", "unbounded"]
    slack: Q | None
    witness: list[Q] | None
    outcome: LPOutcome | None = None

    @property
    def strict(self) -> bool:
        """True iff the slackened system admits strictly positive room."""
        if self.status == "unbounded":
            return True
        return self.status == "optimal" and self.slack is not None and self.slack > 0


def max_slack(lp: LinearProgram, slack_rows: Iterable[int]) -> SlackOutcome:
    """Maximize one uniform slack s over the listed inequality rows.

    Each listed row `a.x <= b` is tightened to `a.x + s <= b` (and `>=`
    rows to `a.x - s >= b`); s itself is unrestricted in sign so the
    maximum can be negative when the system is only loosely consistent.
    s* > 0 certifies a point satisfying every listed row strictly.
    """
    work = lp.copy()
    s = work.add_var("_slack", nonneg=False)
    for i in slack_rows:
        row = work.rows[i]
        if row.rel == "=":
            raise ValueError(f"cannot slacken equality row {row.name}")
        row.coeffs[s] = ONE if row.rel == "<=" else -ONE
    work.set_objective("max", {s: ONE})
    out = solve(work)
    if out.status == "infeasible":
        return SlackOutcome("infeasible", None, None, out)
    if out.status == "unbounded":
        return SlackOutcome("unbounded", None, None, out)
    assert out.primal is not None
    return SlackOutcome("optimal", out.x(s), out.primal[: lp.num_vars], out)
