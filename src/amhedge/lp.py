"""Exact rational linear programming with verified certificates.

Two-phase primal simplex over exact rationals, deterministic and
finite: Bland's rule picks every entering column in both phases.

The tableau is sparse and fraction-free:
each row is a dict of its nonzero Python ints over one positive
denominator, put in lowest terms only when that denominator outgrows
``_REDUCE_BITS`` bits, and a column index lists the rows where each column
is nonzero, so a pivot does integer arithmetic on nonzeros only.  An LP
keeps each row and its objective in integers from the moment it is added,
and the presolve, the tableau (on its own copy), the dual lift and the
certificate checks read them, never writing.  Every solve returns its
vectors as Python int numerators over one denominator (``IntVector``),
building no rational but its value:

* optimal       -- primal point, dual multipliers; strong duality and both
                   feasibilities are re-checked exactly before returning,
* infeasible    -- a Farkas certificate (verified),
* unbounded     -- an improving ray (verified).

Phase 1 starts each row on its slack where that is feasible at once,
homogeneous ``>=`` rows included, with one exception (see ``_Tableau``).
Each certificate is re-checked in integers against the LP alone, never
the tableau.  The solver never touches floats.  A failed internal check
raises LPInternalError rather than returning a wrong answer.

Every solve first presolves (``_Presolve``): each homogeneous doubleton
equality a_j x_j + a_k x_k = 0 with x_j free, or with both variables
nonnegative and of opposite signs, is merged away by x_j = nu*y,
x_k = mu*y, (nu, mu) = (-a_k, a_j)/gcd, mu > 0, y taking x_k's sign and
the column nu*col_j + mu*col_k; rows this leaves as such pairs follow.
The tableau runs what remains.  Each result is lifted back in reverse
order: points and rays by the substitution, a merged row's dual (or
Farkas entry, with c_j = 0) by y_r = (c_j - sum_{i != r} y_i a_ij)/a_rj,
column j as it stood when merged.  These duals are feasible: column j is
tight; y's dual row, mu*(sum_{i != r} y_i a_ik - c_k) against
nu*(c_j - sum_{i != r} y_i a_ij) = -mu*a_rk*y_r, is k's times mu > 0, in
k's sense; and b_r = 0 leaves y.b as it was.
"""
from __future__ import annotations

from math import gcd, lcm
from typing import Hashable, Iterable, Literal, NamedTuple

from .rationals import ONE, ZERO, Q, rat

Relation = Literal["<=", "=", ">="]

_MAX_PIVOTS = 5_000_000
# an updated row is put in lowest terms only once its denominator has more
# bits than this: entries stay small without a dense gcd pass per update
# (bounds from 30 to 120 bits timed the same)
_REDUCE_BITS = 60


class LPInternalError(RuntimeError):
    """A solver self-check failed; the result would not be trustworthy."""


class _Row:
    """coeffs.x rel rhs, in integer numerators over the positive den, not always
    in lowest terms; the objective is a row with rel "=" and rhs 0.  A row in an
    LP is never written (max_slack swaps new rows into its copy): solves read it in place."""

    __slots__ = ("coeffs", "rhs", "den", "rel", "name")

    def __init__(self, coeffs: dict[int, int], rhs: int, den: int, rel: Relation, name: str):
        self.coeffs, self.rhs, self.den, self.rel, self.name = coeffs, rhs, den, rel, name

    def rational(self) -> tuple[dict[int, Q], Q]:
        """The coefficients and the rhs as rationals: the row as asked."""
        return {j: Q(a, self.den) for j, a in self.coeffs.items()}, Q(self.rhs, self.den)


def _integers(coeffs: dict, rhs, den: int | None) -> tuple[dict[int, int], int, int]:
    """(a, b, d): the row coeffs.x ? rhs over d without its zero coefficients: Python
    ints kept over den where it is given, else rationals times the lcm d of theirs."""
    if den is not None:
        return {j: v for j, v in coeffs.items() if v}, rhs, den
    qs = [(j, rat(v)) for j, v in coeffs.items() if v]
    b = rat(rhs)
    d = lcm(int(b.denominator), *(int(v.denominator) for _, v in qs))
    return ({j: int(v.numerator) * (d // int(v.denominator)) for j, v in qs},
            int(b.numerator) * (d // int(b.denominator)), d)


class LinearProgram:
    """Incremental LP builder with integer variable handles and integer rows (``_Row``)."""

    def __init__(self):
        self.var_names: list[str] = []
        self.nonneg: list[bool] = []
        self.rows: list[_Row] = []
        self.sense: Literal["max", "min"] = "max"
        self.objective = _Row({}, 0, 1, "=", "objective")

    def add_var(self, name: str, nonneg: bool = True) -> int:
        self.var_names.append(name)
        self.nonneg.append(nonneg)
        return len(self.var_names) - 1

    def add_constraint(self, coeffs: dict[int, Q], rel: Relation, rhs, name: str = "",
                       den: int | None = None) -> int:
        if rel not in ("<=", "=", ">="):
            raise ValueError(f"bad relation {rel!r}")
        self.rows.append(_Row(*_integers(coeffs, rhs, den), rel, name or f"r{len(self.rows)}"))
        return len(self.rows) - 1

    def set_objective(self, sense: Literal["max", "min"], coeffs: dict,
                      den: int | None = None) -> None:
        self.sense = sense
        self.objective = _Row(*_integers(coeffs, 0, den), "=", "objective")

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def copy(self) -> "LinearProgram":
        other = LinearProgram()
        other.var_names, other.nonneg = list(self.var_names), list(self.nonneg)
        # a stored row is never written (see _Row), so the copy shares them
        other.rows = list(self.rows)
        other.sense, other.objective = self.sense, self.objective
        return other


class IntVector(NamedTuple):
    """A vector as Python int numerators over one positive denominator."""

    nums: list[int]
    den: int

    def at(self, j: int) -> Q:
        """Entry j as a rational; the shared ZERO where it is 0."""
        return Q(self.nums[j], self.den) if self.nums[j] else ZERO

    def nonzero(self, cols: dict[Hashable, int]) -> dict[Hashable, Q]:
        """{key: entry j} for each key: j of cols whose entry is nonzero, as rationals."""
        nums, den = self
        return {key: Q(nums[j], den) for key, j in cols.items() if nums[j]}


def _vector(entries: Iterable[tuple[int, int, int]], size: int) -> IntVector:
    """The vector of the given size with entry j = n/d for each (j, n, d), d != 0,
    and 0 elsewhere, over the lcm of the entries' denominators in lowest terms."""
    entries = [(j, n, d) for j, n, d in entries if n]
    den = lcm(*(d // gcd(n, d) for _, n, d in entries))
    nums = [0] * size
    for j, n, d in entries:
        nums[j] = n * den // d
    return IntVector(nums, den)


class LPOutcome(NamedTuple):
    """A verified solve: ``point`` holds the primal point (optimal) or the ray
    (unbounded), ``mult`` the duals (optimal) or the Farkas vector (infeasible);
    primal, duals, farkas and ray are their rational views, built afresh on
    each read.  Immutable: a changed copy is ``out._replace(value=...)``."""

    status: Literal["optimal", "infeasible", "unbounded"]
    value: Q | None = None
    point: IntVector | None = None
    mult: IntVector | None = None
    # the simplex's own tableau, after the presolve: its pivots, its rows
    # and its columns (split free variables, slacks and artificials)
    pivots: int = 0
    rows: int = 0
    cols: int = 0

    def _view(self, vec: IntVector | None, status: str) -> list[Q] | None:
        return None if vec is None or self.status != status else [
            Q(n, vec.den) if n else ZERO for n in vec.nums]

    primal = property(lambda self: self._view(self.point, "optimal"))
    ray = property(lambda self: self._view(self.point, "unbounded"))
    duals = property(lambda self: self._view(self.mult, "optimal"))
    farkas = property(lambda self: self._view(self.mult, "infeasible"))


def format_lp(lp: LinearProgram) -> str:
    """Human-readable dump of an LP: objective, named rows and free variables."""
    def terms(row: _Row) -> str:
        coeffs = sorted(row.rational()[0].items())
        return " + ".join(f"{v}*{lp.var_names[j]}" for j, v in coeffs) or "0"

    out = [f"# lp: {lp.sense} over {lp.num_vars} vars, {lp.num_rows} rows",
           f"{lp.sense} {terms(lp.objective)}"]
    out += [f"  [{r.name}] {terms(r)} {r.rel} {r.rational()[1]}" for r in lp.rows]
    free = [lp.var_names[j] for j in range(lp.num_vars) if not lp.nonneg[j]]
    if free:
        out.append("  free: " + ", ".join(free))
    return "\n".join(out)


class _Tableau:
    """Simplex tableau in sparse integer rows; columns = structural(+split) | slacks | artificials.

    Constraint row i is a dict {column: int} of its nonzeros, its
    right-hand side under the key ``ncols``, over the positive denominator
    ``den[i]``; an entry that elimination brings to 0 is deleted.  The
    column index ``col_rows[c]`` is the set of rows with a nonzero in
    column c (``c = ncols`` for the rhs), so a pivot eliminates, and the
    ratio test visits, only those rows.  The objective row ``zrow`` stays a
    dense list, the reduced costs and then -z over ``zden``, so Bland's
    entering scan is one pass.  A row need not be in lowest terms (see
    ``_eliminate``), but its denominator is positive, so an entry's sign is
    its numerator's sign and the ratio test compares rhs/entry by
    cross-multiplying (the row's common factor cancels).  Rationals are
    built, and normalised, only when a result is read.  The rows are new
    dicts built from the LP's own integer rows, which the certificate
    checks read, so no pivot writes into the LP.

    Starting basis (``start``): a row starts on its slack where the slack's
    entry is positive, else on an artificial, the only rows that get one.
    That slack's column is the artificial it spares at cost 0, not -1, so
    Bland's rule would enter it first, and a row's dual reads off either.
    A row with a negative rhs is negated, so every rhs starts nonnegative
    and a ``>=`` row becomes ``<=``.  A homogeneous ``>=`` row (rhs 0) is
    negated too, so its slack starts basic at 0 and phase 1 has no work on
    it: the arbitrage and gain-cone LPs are mostly such rows.  The exception is a bound row,
    y >= a nonnegative combination of nonnegative columns (see
    ``_bound_row``), such as a Snell row of a measure LP, in an LP whose
    origin violates some row.  On its artificial, the columns phase 1
    brings in to move off the origin have negative entries in the row and
    pass it by; on a slack at 0, the ratio test's ties pivot them into
    the row and it fills in (on the Snell block of bin T=8 the row
    updates doubled).  Where the origin is feasible, phase 1 starts
    there, with only the artificials of ``=`` rows basic, at 0, and a
    bound row is negated like any other.  The rule reads the rows'
    structure only, never a name.

    The tableau runs the presolved LP (``_Presolve``): ``rows`` are its
    rows, and a variable the presolve merged away (``nonneg[j]`` None)
    gets no column.
    """

    def __init__(self, rows: list[_Row], nonneg: list[bool | None]):
        # structural columns: var j at pos_col[j], and a free var once more,
        # negated, at neg_col[j]
        self.pos_col: list[int | None] = []
        self.neg_col: list[int | None] = []
        ncols = 0
        for pos in nonneg:
            self.pos_col.append(None if pos is None else ncols)
            self.neg_col.append(ncols + 1 if pos is False else None)
            ncols += 0 if pos is None else 1 if pos else 2

        m = len(rows)
        self.slack_col: list[int | None] = [None] * m
        for i, row in enumerate(rows):
            if row.rel != "=":
                self.slack_col[i] = ncols
                ncols += 1
        self.n_real = ncols

        # negated rows (their relation flips): every negative rhs, and every
        # homogeneous >= row but a bound row in an LP the origin violates
        # (see the class docstring); a negated row's dual is negated back
        # on reading.  Signs are read off the numerators (each den > 0)
        self.origin_feasible = not any(_violated(row.rel, 0, row.rhs) for row in rows)
        self.flip = [row.rhs < 0 or (row.rhs == 0 and row.rel == ">=" and (
                         self.origin_feasible or not _bound_row(row.coeffs, nonneg)))
                     for row in rows]
        # the starting basis: each row's slack where its entry is positive, else
        # an artificial, numbered after every slack
        self.start: list[int] = []
        for i, (row, f) in enumerate(zip(rows, self.flip)):
            on_slack = row.rel != "=" and (row.rel == "<=") != f
            self.start.append(self.slack_col[i] if on_slack else ncols)
            ncols += not on_slack
        self.ncols = ncols
        self.rows: list[dict[int, int]] = []
        self.den: list[int] = []
        self.basis = list(self.start)
        self.col_rows: list[set[int]] = [set() for _ in range(self.ncols + 1)]
        for i, row in enumerate(rows):
            sgn, b, d = -1 if self.flip[i] else 1, row.rhs, row.den
            sparse: dict[int, int] = {}
            for j, a in row.coeffs.items():
                sparse[self.pos_col[j]] = sgn * a
                nc = self.neg_col[j]
                if nc is not None:
                    sparse[nc] = -sgn * a
            sc, c0 = self.slack_col[i], self.start[i]
            if sc is not None:
                sparse[sc] = sgn * d if row.rel == "<=" else -sgn * d
            if c0 >= self.n_real:
                sparse[c0] = d
            if b:
                sparse[self.ncols] = sgn * b
            for c in sparse:
                self.col_rows[c].add(i)
            self.rows.append(sparse)
            self.den.append(d)
        self.zrow: list[int] = [0] * (self.ncols + 1)
        self.zden = 1
        self.pivots = 0

    # -- core mechanics -------------------------------------------------

    def set_costs(self, costs: dict[int, int], cden: int) -> None:
        """Price the basis out of the costs {column: numerator} over cden, the lcm
        of their denominators: zrow = costs - c_B B^-1 A, then -z."""
        zrow, zden = [0] * (self.ncols + 1), cden
        for c, v in costs.items():
            zrow[c] = v
        for i, bc in enumerate(self.basis):
            cn = costs.get(bc)
            if cn:
                g = gcd(cn, cden)
                d = cden // g * self.den[i]
                big = lcm(zden, d)
                zrow, zden = _combine(zrow, zden, big // zden, cn // g * (big // d),
                                      self.rows[i].items())
        self.zrow, self.zden = zrow, zden

    def pivot(self, r: int, c: int) -> None:
        rows, den, col_rows = self.rows, self.den, self.col_rows
        prow = rows[r]
        # the pivot row over its pivot entry: its old denominator cancels
        p = prow[c]
        prow, pd = _lowest(prow, p) if p > 0 else _lowest({k: -v for k, v in prow.items()}, -p)
        rows[r], den[r] = prow, pd
        # column c cancels in every other row, which leaves only row r in it
        nz = [(k, v) for k, v in prow.items() if k != c]
        targets, col_rows[c] = col_rows[c], {r}
        for i in targets:
            if i != r:
                rows[i], den[i] = _eliminate(rows[i], den[i], nz, pd, c, i, col_rows)
        f = self.zrow[c]
        if f:
            h = gcd(f, pd)
            self.zrow, self.zden = _combine(self.zrow, self.zden, pd // h, f // h, prow.items())
        self.basis[r] = c
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise LPInternalError("pivot budget exhausted; suspected bug")

    def leave(self, enter: int) -> int:
        """The ratio test's row for the entering column, or -1 where no row blocks it.

        min rhs/a over a > 0, ties to the smallest basic column, so the
        order the index lists rows in moves no pivot; rhs/a is compared as
        b/a < b'/a'  <=>  b*a' < b'*a  (a, a' > 0).
        """
        rows, basis, rc = self.rows, self.basis, self.ncols
        leave = -1
        best_b = best_a = 0
        for i in self.col_rows[enter]:
            row = rows[i]
            a = row[enter]
            if a > 0:
                b = row.get(rc, 0)
                if leave < 0:
                    leave, best_b, best_a = i, b, a
                    continue
                lhs, rhs = b * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, b, a
        return leave

    def run(self, limit: int) -> int | None:
        """Pivot until optimal (None) or unbounded (the entering column that no
        row blocks), entering only columns below limit, by Bland's rule: the
        first column with a positive reduced cost, which with the ratio test's
        ties to the smallest basic column cannot cycle, so the run ends."""
        while True:
            zrow = self.zrow
            for enter in range(limit):
                if zrow[enter] > 0:
                    break
            else:
                return None
            r = self.leave(enter)
            if r < 0:
                return enter
            self.pivot(r, enter)

    def to_vars(self, vals: list[int]) -> list[int]:
        """Each variable's numerator from its columns' over one denominator: a free
        variable's two net, a merged-away one's 0 until ``_Presolve.lift_point``."""
        return [0 if p is None else vals[p] if n is None else vals[p] - vals[n]
                for p, n in zip(self.pos_col, self.neg_col)]

    def duals(self, art_cost: int, sign: int) -> list[int]:
        """sign * y over zden, y_r = cost(c) - reduced_cost(c) unflipped to row r, c its
        starting column: an artificial at art_cost or a slack at 0."""
        n, zrow, base = self.n_real, self.zrow, art_cost * self.zden
        return [(zrow[c] - base * (c >= n) if f else base * (c >= n) - zrow[c]) * sign
                for c, f in zip(self.start, self.flip)]


def _bound_row(coeffs: dict[int, int], nonneg: list[bool]) -> bool:
    """True for y >= a nonnegative combination of nonnegative columns.

    Every column of the row's coefficients is nonnegative and exactly one
    of them is positive; the relation and rhs are not read (see _Tableau).
    """
    return all(nonneg[j] for j in coeffs) and sum(v > 0 for v in coeffs.values()) == 1


def _lowest(row: dict[int, int], d: int) -> tuple[dict[int, int], int]:
    """Row over positive denominator d, divided through by their gcd."""
    g = gcd(d, *row.values())
    if g == 1:
        return row, d
    return {k: v // g for k, v in row.items()}, d // g


def _combine(zrow: list[int], zden: int, s: int, f: int,
             nz: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """(zrow*s - f*row) / (zden*s) for the dense objective row; nz lists row's nonzeros.

    Like a constraint row, it is put in lowest terms only past _REDUCE_BITS.
    """
    if s != 1:
        zrow = [z * s for z in zrow]
        zden *= s
    for k, v in nz:
        zrow[k] -= f * v
    if zden.bit_length() > _REDUCE_BITS:
        g = gcd(zden, *zrow)
        if g > 1:
            return [v // g for v in zrow], zden // g
    return zrow, zden


def _eliminate(row: dict[int, int], d: int, nz: list[tuple[int, int]], pd: int,
               c: int, i: int, col_rows: list[set[int]]) -> tuple[dict[int, int], int]:
    """Row i (row/d) minus row[c]/d times the pivot row prow/pd; nz lists prow but c.

    The result is (row*pd - f*prow) / (d*pd), f = row[c], with gcd(f, pd)
    cancelled first; column c cancels and is dropped, prow is subtracted
    only where it is nonzero, and an entry reaching 0 is deleted, fill-in
    and deletion both kept in ``col_rows``.  It is reduced
    only when its denominator outgrows _REDUCE_BITS: an unreduced row keeps
    the pivot denominators' factors, so the next s = pd/gcd(f, pd) is often 1.
    """
    f = row.pop(c)
    h = gcd(f, pd)
    s, f = pd // h, f // h
    if s != 1:
        row = {k: v * s for k, v in row.items()}
        d *= s
    for k, v in nz:
        if k in row:
            w = row[k] - f * v
            if w:
                row[k] = w
            else:
                del row[k]
                col_rows[k].remove(i)
        else:
            row[k] = -f * v
            col_rows[k].add(i)
    if d.bit_length() > _REDUCE_BITS:
        return _lowest(row, d)
    return row, d


def _pair(a: dict[int, int], nonneg: list[bool | None]) -> tuple[int, int] | None:
    """(j, k) of a two-term row a.x = 0 the presolve merges, j free if one is; else None."""
    if len(a) != 2:
        return None
    (j, aj), (k, ak) = a.items()
    if not nonneg[k]:
        return k, j
    return (j, k) if not nonneg[j] or (aj > 0) != (ak > 0) else None


class _Presolve:
    """The LP with its homogeneous doubleton equalities merged away (module docstring).

    ``reduced`` holds the rows of the reduced LP the tableau runs, then its
    objective, ``nonneg`` its variables' signs and ``rows`` the original
    index of each of its rows.  A merge writes into new rows, made for the
    rows and objective it touches, so an untouched row is the LP's own;
    with nothing to merge, nothing is copied.  ``steps`` logs each merge
    as (r, j, k, nu, mu, col), col being column j as it stood, {row i, or
    m for the objective: a_ij}, for the lifts.
    """

    def __init__(self, lp: LinearProgram):
        asked, nonneg, m = [*lp.rows, lp.objective], lp.nonneg, lp.num_rows
        self.asked, self.reduced, self.nonneg, self.rows = asked, asked, nonneg, range(m)
        self.steps: list[tuple[int, int, int, int, int, dict[int, int]]] = []
        queue = [i for i, row in enumerate(lp.rows)
                 if row.rel == "=" and not row.rhs and _pair(row.coeffs, nonneg)]
        if not queue:
            return
        coeffs = [row.coeffs for row in asked]
        nonneg, owned, gone = list(nonneg), [False] * (m + 1), set()
        where: list[set[int]] = [set() for _ in nonneg]
        for i, a in enumerate(coeffs):
            for j in a:
                where[j].add(i)
        for r in queue:  # grows as merges turn rows into pairs
            pair = None if r in gone else _pair(coeffs[r], nonneg)
            if pair is None:
                continue
            j, k = pair
            aj, ak = coeffs[r][j], coeffs[r][k]
            g = gcd(aj, ak) if aj > 0 else -gcd(aj, ak)
            nu, mu = -ak // g, aj // g
            col = {i: coeffs[i][j] for i in where[j]}
            self.steps.append((r, j, k, nu, mu, col))
            gone.add(r)
            touched = (where[j] | where[k]) - {r}
            where[k].discard(r)
            where[j], nonneg[j] = set(), None
            for i in touched:
                if not owned[i]:
                    coeffs[i], owned[i] = dict(coeffs[i]), True
                a = coeffs[i]
                v = nu * a.pop(j, 0) + mu * a.get(k, 0)
                if v:
                    a[k] = v
                    where[k].add(i)
                else:  # v is 0 only where a held both j and k
                    del a[k]
                    where[k].remove(i)
            queue.extend(sorted(i for i in touched if i < m and len(coeffs[i]) == 2
                                and asked[i].rel == "=" and not asked[i].rhs))
        self.rows = [i for i in range(m) if i not in gone]
        self.nonneg = nonneg
        self.reduced = [_Row(coeffs[i], asked[i].rhs, asked[i].den, asked[i].rel, asked[i].name)
                        if owned[i] else asked[i] for i in (*self.rows, m)]

    def lift_point(self, x: list[int]) -> list[int]:
        """The point (or ray) of the asked LP from the reduced LP's, numerators over
        one denominator: x_j = nu*y, x_k = mu*y."""
        for _, j, k, nu, mu, _ in reversed(self.steps):
            if x[k]:  # else x_j stays 0 from to_vars
                x[j], x[k] = nu * x[k], mu * x[k]
        return x

    def lift_duals(self, nums: list[int], den: int, costs: bool) -> IntVector:
        """Every asked row's dual (costs) or Farkas entry (not costs) from the reduced
        LP's numerators nums over den.

        A merged row's y_r solves y_r a_rj/d_r = c_j/d_c - sum_{i != r} y_i a_ij/d_i
        on the asked rows a/d and objective c/d_c.  Each y_i is an integer
        numerator and denominator, not reduced, until _vector puts them over one.
        """
        if not self.steps:
            g = gcd(den, *nums)
            return IntVector([n // g for n in nums], den // g)
        asked, m = self.asked, len(self.asked) - 1
        y = [(0, 1)] * m
        for i, n in zip(self.rows, nums):
            y[i] = (n, den)
        for r, *_, col in reversed(self.steps):
            terms = [(y[i][0] * a, y[i][1] * asked[i].den)
                     for i, a in col.items() if i != r and i != m and y[i][0]]
            if costs and m in col:
                terms.append((-col[m], asked[m].den))
            e = lcm(*{f for _, f in terms})
            y[r] = (-sum(t * (e // f) for t, f in terms) * asked[r].den, e * col[r])
        return _vector(((i, n, e) for i, (n, e) in enumerate(y)), m)


def solve(lp: LinearProgram) -> LPOutcome:
    """Solve exactly; certificates are re-verified before returning."""
    pre = _Presolve(lp)
    *rows, objective = pre.reduced
    tab = _Tableau(rows, pre.nonneg)
    m = len(rows)

    # phase 1: drive artificials to zero; z = -zrow[-1]/zden < 0 is infeasible
    tab.set_costs({c: -1 for c in tab.start if c >= tab.n_real}, 1)
    if tab.run(tab.ncols) is not None:  # pragma: no cover - bounded by 0
        raise LPInternalError("phase 1 unbounded")
    if tab.zrow[-1] > 0:
        farkas = pre.lift_duals(tab.duals(-1, 1), tab.zden, costs=False)
        _verify_farkas(lp, farkas)
        return LPOutcome(status="infeasible", mult=farkas,
                         pivots=tab.pivots, rows=m, cols=tab.ncols)

    # pivot leftover artificials out of the basis; their rows are at zero, so
    # the smallest nonzero real column works as a degenerate pivot.  Rows
    # with no such column are redundant and keep their artificial pinned at 0.
    n_real = tab.n_real
    for i in range(m):
        if tab.basis[i] >= n_real:
            c = min((k for k in tab.rows[i] if k < n_real), default=None)
            if c is not None:
                tab.pivot(i, c)

    # phase 2, priced from the reduced objective's integers over the real
    # columns (the artificials come last)
    sign = 1 if lp.sense == "max" else -1
    costs = {}
    for j, v in objective.coeffs.items():
        costs[tab.pos_col[j]] = sign * v
        if tab.neg_col[j] is not None:
            costs[tab.neg_col[j]] = -sign * v
    tab.set_costs(costs, objective.den)
    enter = tab.run(n_real)

    if enter is not None:
        direction = [(enter, 1, 1), *((tab.basis[i], -tab.rows[i][enter], tab.den[i])
                                      for i in tab.col_rows[enter])]
        nums, den = _vector(direction, tab.ncols)
        ray = IntVector(pre.lift_point(tab.to_vars(nums)), den)
        _verify_ray(lp, ray)
        return LPOutcome(status="unbounded", point=ray,
                         pivots=tab.pivots, rows=m, cols=tab.ncols)

    nums, den = _vector(((bc, tab.rows[i].get(tab.ncols, 0), tab.den[i])
                         for i, bc in enumerate(tab.basis)), tab.ncols)
    primal = IntVector(pre.lift_point(tab.to_vars(nums)), den)
    value = Q(-sign * tab.zrow[-1], tab.zden)
    duals = pre.lift_duals(tab.duals(0, sign), tab.zden, costs=True)
    _verify_optimal(lp, primal, duals, value)
    return LPOutcome(status="optimal", value=value, point=primal, mult=duals,
                     pivots=tab.pivots, rows=m, cols=tab.ncols)


# -- exact certificate checks -------------------------------------------
#
# Each check reads only the LP and the returned vectors.  It reads every
# LP row as stored, integers over the row's denominator, and each vector
# as returned, integers over its one denominator, so every predicate is an
# integer comparison with both sides multiplied by the same positive number.


def _dot(a: dict[int, int], x: list[int]) -> int:
    return sum(v * x[j] for j, v in a.items())


def _violated(rel: Relation, lhs: int, rhs: int) -> bool:
    return lhs > rhs if rel == "<=" else lhs < rhs if rel == ">=" else lhs != rhs


def _scaled_duals(lp: LinearProgram, y: IntVector) -> tuple[list[int], int, list[int]]:
    """y_i/d_i, over the rows a/d of lp, as z over one denominator e, and A^T z.

    y's numerators over dy, entry i scaled by lcm(d)/d_i.
    """
    ys, dy = y
    dd = lcm(*{row.den for row in lp.rows})
    z, e = [v * (dd // row.den) for v, row in zip(ys, lp.rows)], dy * dd
    aty = [0] * lp.num_vars
    for zi, row in zip(z, lp.rows):
        if zi:
            for j, v in row.coeffs.items():
                aty[j] += zi * v
    return z, e, aty


def _verify_optimal(lp: LinearProgram, x: IntVector, y: IntVector, value: Q) -> None:
    c, dc = lp.objective.coeffs, lp.objective.den
    xs, dx = x
    for j in range(lp.num_vars):
        if lp.nonneg[j] and xs[j] < 0:
            raise LPInternalError(f"negative value for {lp.var_names[j]}")
    vn, vd = int(value.numerator), int(value.denominator)
    if _dot(c, xs) * vd != vn * dc * dx:
        raise LPInternalError("objective mismatch")
    z, e, aty = _scaled_duals(lp, y)
    ydotb = 0
    for row, zi in zip(lp.rows, z):
        if _violated(row.rel, _dot(row.coeffs, xs), row.rhs * dx):
            raise LPInternalError(f"row {row.name} violated")
        # y >= 0 on a max LP's <= rows and a min LP's >= rows, y <= 0 on the others
        if row.rel != "=" and (zi < 0 if (row.rel == "<=") == (lp.sense == "max") else zi > 0):
            raise LPInternalError(f"dual sign on {row.name}")
        ydotb += zi * row.rhs
    if ydotb * vd != vn * e:
        raise LPInternalError("strong duality gap")
    # dual feasibility: A^T y vs c, as aty/e vs c/dc
    for j in range(lp.num_vars):
        lhs, cj = aty[j] * dc, c.get(j, 0) * e
        if lp.nonneg[j]:
            bad = lhs < cj if lp.sense == "max" else lhs > cj
        else:
            bad = lhs != cj
        if bad:
            raise LPInternalError(f"dual infeasibility at {lp.var_names[j]}")


def _verify_farkas(lp: LinearProgram, y: IntVector) -> None:
    z, _, aty = _scaled_duals(lp, y)
    ydotb = 0
    for row, zi in zip(lp.rows, z):
        if (row.rel == "<=" and zi < 0) or (row.rel == ">=" and zi > 0):
            raise LPInternalError("farkas sign")
        ydotb += zi * row.rhs
    for j in range(lp.num_vars):
        if aty[j] < 0 or (aty[j] and not lp.nonneg[j]):
            raise LPInternalError("farkas cone violation")
    if ydotb >= 0:
        raise LPInternalError("farkas certifies nothing")


def _verify_ray(lp: LinearProgram, d: IntVector) -> None:
    ds = d.nums
    for j in range(lp.num_vars):
        if lp.nonneg[j] and ds[j] < 0:
            raise LPInternalError("ray leaves the sign cone")
    rate = _dot(lp.objective.coeffs, ds)
    improving = rate > 0 if lp.sense == "max" else rate < 0
    if not improving:
        raise LPInternalError("ray does not improve")
    for row in lp.rows:
        if _violated(row.rel, _dot(row.coeffs, ds), 0):
            raise LPInternalError("ray infeasible")


# -- uniform slack maximization -----------------------------------------


def max_slack(lp: LinearProgram, slack_rows: dict[int, Q]) -> LPOutcome:
    """Maximize one slack s over the listed inequality rows, each with its weight.

    Each listed row `a.x <= b` with weight w is tightened to
    `a.x + w*s <= b` (and `>=` rows to `a.x - w*s >= b`); s itself is
    unrestricted in sign so the maximum can be negative when the system
    is only loosely consistent.  With positive weights, s* > 0 certifies
    a point satisfying every listed row strictly.  The outcome is that of
    the slack LP: its value is s*, and its primal point is a point of
    ``lp`` followed by s.
    """
    work = lp.copy()
    s = work.add_var("_slack", nonneg=False)
    for i, w in slack_rows.items():
        row = work.rows[i]
        if row.rel == "=":
            raise ValueError(f"cannot slacken equality row {row.name}")
        # a new row over the lcm of its den and w's, storing no zero coefficient
        w = rat(w if row.rel == "<=" else -w)
        m = int(w.denominator) // gcd(row.den, int(w.denominator))
        coeffs = {j: a * m for j, a in row.coeffs.items()}
        if w:
            coeffs[s] = int(w.numerator) * (row.den * m // int(w.denominator))
        work.rows[i] = _Row(coeffs, row.rhs * m, row.den * m, row.rel, row.name)
    work.set_objective("max", {s: ONE})
    return solve(work)
