"""Exact simplex solver: known optima, certificates, and a float oracle."""
from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import operator
import random
from math import gcd
from pathlib import Path

import pytest

from amhedge import campaign
from amhedge import lp as lpmod
from amhedge.cli import main
from amhedge.enlarged import enlarge
from amhedge.hedging import detect_arbitrage, superhedge
from amhedge.lp import LinearProgram, format_lp, max_slack, solve
from amhedge.market import emit_model, load_model
from amhedge.measures import price_with_dual
from amhedge.rationals import ONE, Q, ZERO

import conftest
from conftest import binomial_put_book_dict, moved
from test_report_bytes import CAMPAIGN_MODELS, COMMANDS, CONFTEST_MODELS


def test_two_variable_max():
    # max x + y, x + 2y <= 4, 3x + y <= 6 -> x = 8/5, y = 6/5
    lp = LinearProgram()
    x = lp.add_var("x")
    y = lp.add_var("y")
    lp.add_constraint({x: ONE, y: Q(2)}, "<=", Q(4))
    lp.add_constraint({x: Q(3), y: ONE}, "<=", Q(6))
    lp.set_objective("max", {x: ONE, y: ONE})
    out = solve(lp)
    assert out.status == "optimal"
    assert out.value == Q(14, 5)
    assert out.point.at(x) == Q(8, 5) and out.point.at(y) == Q(6, 5)


def test_min_with_equalities():
    # min 2x + 3y, x + y = 1, y - x >= 1/3 -> the >= row binds: y = 2/3
    lp = LinearProgram()
    x = lp.add_var("x")
    y = lp.add_var("y")
    lp.add_constraint({x: ONE, y: ONE}, "=", ONE)
    lp.add_constraint({y: ONE, x: -ONE}, ">=", Q(1, 3))
    lp.set_objective("min", {x: Q(2), y: Q(3)})
    out = solve(lp)
    assert out.status == "optimal"
    assert out.value == Q(8, 3)
    assert (out.point.at(x), out.point.at(y)) == (Q(1, 3), Q(2, 3))


def test_free_variable():
    # x unrestricted: min x s.t. x >= -5/7 attains the negative bound
    lp = LinearProgram()
    x = lp.add_var("x", nonneg=False)
    lp.add_constraint({x: ONE}, ">=", Q(-5, 7))
    lp.set_objective("min", {x: ONE})
    out = solve(lp)
    assert out.status == "optimal"
    assert out.value == Q(-5, 7)


def _infeasible_lp() -> LinearProgram:
    lp = LinearProgram()
    x = lp.add_var("x")
    lp.add_constraint({x: ONE}, ">=", ONE)
    lp.add_constraint({x: ONE}, "<=", ZERO)
    lp.set_objective("max", {x: ONE})
    return lp


def _unbounded_lp() -> LinearProgram:
    lp = LinearProgram()
    x = lp.add_var("x")
    y = lp.add_var("y")
    lp.add_constraint({x: ONE, y: -ONE}, "<=", ONE)
    lp.set_objective("max", {x: ONE})
    return lp


def test_infeasible():
    out = solve(_infeasible_lp())
    assert out.status == "infeasible"


def test_unbounded_reports_ray():
    out = solve(_unbounded_lp())
    assert out.status == "unbounded"
    assert out.ray is not None and any(out.ray)


def test_degenerate_vertex():
    # three rows active at the optimum (1/3, 1/3); the simplex must not cycle
    lp = LinearProgram()
    x = lp.add_var("x")
    y = lp.add_var("y")
    lp.add_constraint({x: Q(2), y: ONE}, "<=", ONE)
    lp.add_constraint({x: ONE, y: Q(2)}, "<=", ONE)
    lp.add_constraint({x: ONE}, "<=", Q(1, 3))
    lp.set_objective("max", {x: ONE, y: ONE})
    out = solve(lp)
    assert out.status == "optimal"
    assert out.value == Q(2, 3)
    assert (out.point.at(x), out.point.at(y)) == (Q(1, 3), Q(1, 3))


def test_unbounded_ray_follows_the_column_that_proved_it():
    # max x + 2y s.t. x <= 1: Bland's rule enters x first, which x <= 1
    # blocks, and then y, which no row blocks; the ray is +y, not +x
    lp = LinearProgram()
    x = lp.add_var("x")
    y = lp.add_var("y")
    lp.add_constraint({x: ONE}, "<=", ONE)
    lp.set_objective("max", {x: ONE, y: Q(2)})
    out = solve(lp)
    assert (out.status, out.ray, out.pivots) == ("unbounded", [ZERO, ONE], 1)


def _chvatal_lp() -> LinearProgram:
    """Chvatal's example (Linear Programming, 1983, ch. 3): the largest-
    coefficient rule, ties to the smallest basic column, cycles through six
    degenerate bases at the origin; the optimum is 1 at (1, 0, 1, 0)."""
    lp = LinearProgram()
    x1, x2, x3, x4 = (lp.add_var(f"x{j}") for j in range(1, 5))
    lp.add_constraint({x1: Q(1, 2), x2: Q(-11, 2), x3: Q(-5, 2), x4: Q(9)}, "<=", ZERO)
    lp.add_constraint({x1: Q(1, 2), x2: Q(-3, 2), x3: Q(-1, 2), x4: ONE}, "<=", ZERO)
    lp.add_constraint({x1: ONE}, "<=", ONE)
    lp.set_objective("max", {x1: Q(10), x2: Q(-57), x3: Q(-9), x4: Q(-24)})
    return lp


def test_bland_rule_leaves_chvatals_cycle():
    # where the largest-coefficient rule cycles, Bland's rule reaches the
    # optimum in a few pivots, well inside the default pivot budget
    out = solve(_chvatal_lp())
    assert (out.status, out.value, out.primal) == ("optimal", ONE, [ONE, ZERO, ONE, ZERO])
    assert out.pivots == 7


def test_every_entering_column_is_the_first_with_a_positive_reduced_cost(monkeypatch, capsys):
    # Bland's rule in both phases, on the random LPs and on the LPs of a
    # verify campaign, where many start at a feasible origin
    entered = []  # (the rule held, the tableau's origin is feasible)

    class Recording(lpmod._Tableau):
        def leave(self, enter):
            first = next(c for c in range(self.ncols) if self.zrow[c] > 0)
            entered.append((enter == first, self.origin_feasible))
            return super().leave(enter)

    monkeypatch.setattr(lpmod, "_Tableau", Recording)
    rng = random.Random(20260814)
    for _ in range(150):
        solve(_random_lp(rng)[0])
    # every campaign unit in this process, where the recorder sees it
    monkeypatch.setattr(campaign, "_worker_count", lambda units: 1)
    assert main(["verify", "--models", "1", "--seed", "3"]) == 0
    capsys.readouterr()
    assert all(held for held, _ in entered)
    assert sum(feasible for _, feasible in entered) > 100


def test_exact_rationals_no_drift():
    # denominators compound; the optimum must stay exact
    lp = LinearProgram()
    x = lp.add_var("x")
    y = lp.add_var("y")
    lp.add_constraint({x: Q(1, 3), y: Q(1, 7)}, "<=", Q(1, 11))
    lp.add_constraint({x: Q(1, 5), y: Q(1, 2)}, "<=", Q(1, 13))
    lp.set_objective("max", {x: ONE, y: ONE})
    out = solve(lp)
    assert out.status == "optimal"
    # vertex of the two rows: solve the 2x2 system exactly
    a, b, c = Q(1, 3), Q(1, 7), Q(1, 11)
    d, e, f = Q(1, 5), Q(1, 2), Q(1, 13)
    det = a * e - b * d
    xv = (c * e - b * f) / det
    yv = (a * f - c * d) / det
    assert out.value == xv + yv


def test_copy_is_independent():
    lp = LinearProgram()
    x = lp.add_var("x")
    lp.add_constraint({x: ONE}, "<=", ONE)
    lp.set_objective("max", {x: ONE})
    lp2 = lp.copy()
    lp2.add_constraint({x: ONE}, "<=", Q(1, 2))
    assert solve(lp).value == ONE
    assert solve(lp2).value == Q(1, 2)
    assert format_lp(lp) != format_lp(lp2)


def test_max_slack_simplex_center():
    # mass 1 split over two coordinates: best uniform slack is 1/2
    lp = LinearProgram()
    x = lp.add_var("x")
    y = lp.add_var("y")
    lp.add_constraint({x: ONE, y: ONE}, "=", ONE)
    r1 = lp.add_constraint({x: ONE}, ">=", ZERO)
    r2 = lp.add_constraint({y: ONE}, ">=", ZERO)
    out = max_slack(lp, {r1: ONE, r2: ONE})
    assert out.status == "optimal" and out.value > 0
    assert out.value == Q(1, 2)
    assert out.primal[:2] == [Q(1, 2), Q(1, 2)]
    # weights scale each row's share: x >= s and y >= 2s give s = 1/3
    out = max_slack(lp, {r1: ONE, r2: Q(2)})
    assert out.value == Q(1, 3)
    assert out.primal[:2] == [Q(1, 3), Q(2, 3)]


def test_max_slack_negative_when_tight():
    # x <= 1/3 and x >= 1/2 only coexist with slack -1/12
    lp = LinearProgram()
    x = lp.add_var("x")
    r1 = lp.add_constraint({x: ONE}, "<=", Q(1, 3))
    r2 = lp.add_constraint({x: ONE}, ">=", Q(1, 2))
    out = max_slack(lp, {r1: ONE, r2: ONE})
    assert out.status == "optimal" and not out.value > 0
    assert out.value == Q(-1, 12)


def test_max_slack_rejects_equalities():
    lp = LinearProgram()
    x = lp.add_var("x")
    r = lp.add_constraint({x: ONE}, "=", ONE)
    with pytest.raises(ValueError):
        max_slack(lp, {r: ONE})


def test_no_rows_optimal():
    # max -x over x >= 0 with no constraint rows: the origin, value 0
    lp = LinearProgram()
    x = lp.add_var("x")
    lp.set_objective("max", {x: -ONE})
    out = solve(lp)
    assert out.status == "optimal"
    assert out.value == ZERO and out.primal == [ZERO] and out.duals == []


def test_no_rows_unbounded():
    # max x over x >= 0 with no constraint rows: the ray is +x (verified by solve)
    lp = LinearProgram()
    x = lp.add_var("x")
    lp.set_objective("max", {x: ONE})
    out = solve(lp)
    assert out.status == "unbounded"
    assert out.ray == [ONE]


# -- each certificate check rejects a certificate off by 1/10**30 ---------

EPS = Q(1, 10**30)


def _certified_max() -> LinearProgram:
    """One block per check: x at its cap, y at its floor, w = v = 3, u = p = 1, z = 0.

    Duals (1, -1, 1, 1, 0, 0, 1, 1): the loose rows have 0, and the rows
    w - v = 0 and u - p = 0 have rhs 0, so their duals move A^T y only.
    """
    lp = LinearProgram()
    x, y, w, v, u, p, z = (lp.add_var(n, nonneg=n not in "wv") for n in "xywvupz")
    lp.add_constraint({x: ONE}, "<=", 2, "x_cap")
    lp.add_constraint({y: ONE}, ">=", 1, "y_floor")
    lp.add_constraint({w: ONE, v: -ONE}, "=", 0, "w_eq_v")
    lp.add_constraint({v: ONE}, "=", 3, "v_fix")
    lp.add_constraint({x: ONE}, "<=", 5, "x_loose")
    lp.add_constraint({y: ONE}, ">=", -1, "y_loose")
    lp.add_constraint({u: ONE, p: -ONE}, "=", 0, "u_eq_p")
    lp.add_constraint({p: ONE}, "<=", 1, "p_cap")
    lp.set_objective("max", {x: ONE, y: -ONE, w: ONE, u: ONE, z: -ONE})
    return lp


def _certified_min() -> LinearProgram:
    """min x at x = 1 with duals (1, 0, 0): only x_floor binds."""
    lp = LinearProgram()
    x = lp.add_var("x")
    lp.add_constraint({x: ONE}, ">=", 1, "x_floor")
    lp.add_constraint({x: ONE}, "<=", 5, "x_cap")
    lp.add_constraint({x: ONE}, ">=", -3, "x_loose")
    lp.set_objective("min", {x: ONE})
    return lp


def _certified_infeasible() -> LinearProgram:
    """x <= -1/10**30 with x >= 0; the Farkas vector is (1, 0, 0, 0, 0)."""
    lp = LinearProgram()
    x, u, w = lp.add_var("x"), lp.add_var("u"), lp.add_var("w", nonneg=False)
    lp.add_constraint({x: ONE}, "<=", -EPS, "x_neg")
    lp.add_constraint({x: ONE}, "<=", 1, "x_cap")
    lp.add_constraint({x: ONE}, ">=", -1, "x_floor")
    lp.add_constraint({w: ONE}, "=", 0, "w_zero")
    lp.add_constraint({u: ONE}, "=", 0, "u_zero")
    return lp


def _certified_unbounded() -> LinearProgram:
    """max x/10**30 + w with w = 0 and a, b boxed; the ray is +x."""
    lp = LinearProgram()
    x, a, b, w = lp.add_var("x"), lp.add_var("a"), lp.add_var("b"), lp.add_var("w", nonneg=False)
    lp.add_constraint({w: ONE}, "=", 0, "w_zero")
    lp.add_constraint({a: ONE}, "<=", 3, "a_cap")
    lp.add_constraint({b: -ONE}, ">=", -4, "b_cap")
    lp.set_objective("max", {x: EPS, w: ONE})
    return lp


def test_certified_lps_return_the_certificates_the_rejections_perturb():
    best = solve(_certified_max())
    assert (best.value, best.primal) == (5, [2, 1, 3, 3, 1, 1, 0])
    assert best.duals == [1, -1, 1, 1, 0, 0, 1, 1]
    low = solve(_certified_min())
    assert (low.value, low.primal, low.duals) == (1, [1], [1, 0, 0])
    assert solve(_certified_infeasible()).farkas == [1, 0, 0, 0, 0]
    assert solve(_certified_unbounded()).ray == [1, 0, 0, 0]


@pytest.mark.parametrize("build, field, j, delta, match", [
    (_certified_max, "primal", 6, -EPS, "negative value for z"),
    (_certified_max, "value", None, EPS, "objective mismatch"),
    (_certified_max, "primal", 0, EPS, "row x_cap violated"),
    (_certified_max, "primal", 1, -EPS, "row y_floor violated"),
    (_certified_max, "primal", 2, EPS, "row w_eq_v violated"),
    (_certified_max, "duals", 4, -EPS, "dual sign on x_loose"),
    (_certified_max, "duals", 5, EPS, "dual sign on y_loose"),
    (_certified_min, "duals", 1, EPS, "dual sign on x_cap"),
    (_certified_min, "duals", 2, -EPS, "dual sign on x_loose"),
    (_certified_max, "duals", 3, EPS, "strong duality gap"),
    (_certified_max, "duals", 6, -EPS, "dual infeasibility at u"),
    (_certified_max, "duals", 2, EPS, "dual infeasibility at w"),
])
def test_verify_optimal_rejects(build, field, j, delta, match):
    lp = build()
    out = solve(lp)
    x, y, value = out.point, out.mult, out.value
    if field == "value":
        value += delta
    elif field == "primal":
        # the claimed value follows x, so only the targeted check fails
        x = moved(x, j, delta)
        value += lp.objective.rational()[0].get(j, ZERO) * delta
    else:
        y = moved(y, j, delta)
    with pytest.raises(lpmod.LPInternalError, match=match):
        lpmod._verify_optimal(lp, x, y, value)


@pytest.mark.parametrize("j, delta, match", [
    (1, -EPS, "farkas sign"),              # <= row
    (2, EPS, "farkas sign"),               # >= row
    (4, -EPS, "farkas cone violation"),    # nonnegative u
    (3, EPS, "farkas cone violation"),     # free w
    (1, EPS, "farkas certifies nothing"),  # y.b = -1/10**30 + 1/10**30 = 0
])
def test_verify_farkas_rejects(j, delta, match):
    lp = _certified_infeasible()
    y = moved(solve(lp).mult, j, delta)
    with pytest.raises(lpmod.LPInternalError, match=match):
        lpmod._verify_farkas(lp, y)


@pytest.mark.parametrize("j, delta, match", [
    (1, -EPS, "ray leaves the sign cone"),
    (3, -EPS, "ray does not improve"),  # rate 1/10**30 - 1/10**30 = 0
    (3, EPS, "ray infeasible"),          # = row
    (1, EPS, "ray infeasible"),          # <= row
    (2, EPS, "ray infeasible"),          # >= row
])
def test_verify_ray_rejects(j, delta, match):
    lp = _certified_unbounded()
    d = moved(solve(lp).point, j, delta)
    with pytest.raises(lpmod.LPInternalError, match=match):
        lpmod._verify_ray(lp, d)


@pytest.mark.parametrize("build, field, j, match", [
    (_certified_max, "point", 6, "negative value for z"),
    (_certified_max, "mult", 4, "dual sign on x_loose"),
    (_certified_infeasible, "mult", 1, "farkas sign"),
    (_certified_unbounded, "point", 1, "ray leaves the sign cone"),
])
def test_each_check_rejects_a_numerator_moved_by_one(build, field, j, match):
    # numerator j less 1, over the vector's own denominator
    lp = build()
    out = solve(lp)
    vec = getattr(out, field)
    moved_vec = moved(vec, j, Q(-1, vec.den))
    assert moved_vec.den == vec.den
    with pytest.raises(lpmod.LPInternalError, match=match):
        if out.status == "optimal":
            x, y = (moved_vec, out.mult) if field == "point" else (out.point, moved_vec)
            lpmod._verify_optimal(lp, x, y, out.value)
        elif out.status == "infeasible":
            lpmod._verify_farkas(lp, moved_vec)
        else:
            lpmod._verify_ray(lp, moved_vec)


def _random_lp(rng: random.Random):
    """Random LP with <=, >= and = rows, negative rhs and free variables.

    Half the draws add a box on every nonnegative variable and leave the
    free ones unbounded, so optimal, infeasible and unbounded LPs all occur.
    """
    lp = LinearProgram()
    n = rng.randint(2, 4)
    xs = [lp.add_var(f"x{j}", nonneg=rng.random() < 0.7) for j in range(n)]
    if rng.random() < 0.5:
        for x in xs:
            lp.add_constraint({x: ONE}, "<=", Q(rng.randint(1, 5)))
            if not lp.nonneg[x]:
                lp.add_constraint({x: ONE}, ">=", Q(-rng.randint(1, 5)))
    for _ in range(rng.randint(1, 4)):
        row = {x: Q(rng.randint(-3, 3), rng.randint(1, 4)) for x in xs}
        rel = rng.choice(["<=", "<=", ">=", "="])
        lp.add_constraint(row, rel, Q(rng.randint(-6, 6), rng.randint(1, 3)))
    lp.set_objective(rng.choice(["max", "min"]),
                     {x: Q(rng.randint(-2, 4), rng.randint(1, 3)) for x in xs})
    return lp, xs


def _check_against_highs(scipy_lin, lp: LinearProgram, out) -> None:
    """The status and optimal value of ``out`` agree with HiGHS on ``lp``."""
    codes = {"optimal": 0, "infeasible": 2, "unbounded": 3}  # linprog's res.status
    sign = -1.0 if lp.sense == "max" else 1.0
    c = [0.0] * lp.num_vars
    for j, v in lp.objective.rational()[0].items():
        c[j] = sign * float(v)
    a_ub, b_ub = [], []
    a_eq, b_eq = [], []
    for row in lp.rows:
        dense = [0.0] * lp.num_vars
        coeffs, rhs = row.rational()
        for j, v in coeffs.items():
            dense[j] = float(v)
        if row.rel == "<=":
            a_ub.append(dense)
            b_ub.append(float(rhs))
        elif row.rel == ">=":
            a_ub.append([-v for v in dense])
            b_ub.append(-float(rhs))
        else:
            a_eq.append(dense)
            b_eq.append(float(rhs))
    bounds = [(0, None) if pos else (None, None) for pos in lp.nonneg]
    res = scipy_lin.linprog(
        c, A_ub=a_ub or None, b_ub=b_ub or None,
        A_eq=a_eq or None, b_eq=b_eq or None, bounds=bounds, method="highs",
    )
    assert res.status == codes[out.status], format_lp(lp)
    if out.status == "optimal":
        assert abs(float(out.value) - sign * res.fun) < 1e-9, format_lp(lp)


def test_against_float_solver():
    scipy_lin = pytest.importorskip("scipy.optimize")
    rng = random.Random(20260814)
    seen = dict.fromkeys(["optimal", "infeasible", "unbounded"], 0)
    for _ in range(150):
        lp, _ = _random_lp(rng)
        out = solve(lp)
        seen[out.status] += 1
        _check_against_highs(scipy_lin, lp, out)
    assert all(seen.values()), seen


def test_integer_vectors_are_their_rational_views():
    # an outcome keeps each vector once, numerators over a positive
    # denominator; primal, duals, farkas and ray read it as rationals
    rng = random.Random(47)
    views = {"optimal": {"point": "primal", "mult": "duals"},
             "infeasible": {"mult": "farkas"}, "unbounded": {"point": "ray"}}
    seen = dict.fromkeys(views, 0)
    for i in range(120):
        lp = _random_lp(rng)[0] if i % 2 else _random_homogeneous_lp(rng)
        out = solve(lp)
        seen[out.status] += 1
        kept = views[out.status]
        for field in ("point", "mult"):
            vec = getattr(out, field)
            assert (vec is None) == (field not in kept)
            if vec is not None:
                assert vec.den > 0
                assert [Q(n, vec.den) for n in vec.nums] == getattr(out, kept[field])
        for name in ("primal", "duals", "farkas", "ray"):
            assert (getattr(out, name) is None) == (name not in kept.values())
    assert all(seen.values()), seen


def test_no_module_but_lp_reads_the_rational_views():
    # the engine reads an outcome's integers; only lp builds the views
    package = Path(__file__).resolve().parent.parent / "src" / "amhedge"
    views = {"primal", "duals", "farkas", "ray"}
    for path in sorted(package.glob("*.py")):
        if path.name != "lp.py":
            reads = {node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
            assert not reads & views, path.name


def _random_homogeneous_lp(rng: random.Random) -> LinearProgram:
    """Random LP whose inequality rows all have rhs 0, as the gain cones have.

    Its rows: one to four homogeneous <= or >= rows, a third of them bound
    rows (one positive coefficient, the others negative, all on nonnegative
    variables); up to two equality rows, with rhs 0 half the time; and one
    norm row (every nonnegative variable sums to at most b), one box row
    (a single variable at most b) or one cap row (the objective at most b,
    or at least -b when minimized: the arbitrage LP's shape).  Free
    variables get no bound of their own, so optimal, infeasible and
    unbounded LPs all occur.
    """
    lp = LinearProgram()
    n = rng.randint(2, 4)
    xs = [lp.add_var(f"x{j}", nonneg=rng.random() < 0.7) for j in range(n)]
    pos = [x for x in xs if lp.nonneg[x]]
    for _ in range(rng.randint(1, 4)):
        if len(pos) >= 2 and rng.random() < 1 / 3:
            top, *rest = rng.sample(pos, rng.randint(2, len(pos)))
            row = {top: Q(rng.randint(1, 3))}
            row.update((x, -Q(rng.randint(1, 3), rng.randint(1, 2))) for x in rest)
            rel = ">="
        else:
            row = {x: Q(rng.randint(-3, 3), rng.randint(1, 4)) for x in xs}
            rel = rng.choice(["<=", ">=", ">="])
        lp.add_constraint(row, rel, ZERO)
    for _ in range(rng.randint(0, 2)):
        row = {x: Q(rng.randint(-2, 2)) for x in xs}
        lp.add_constraint(row, "=", Q(rng.randint(-2, 2)) if rng.random() < 0.5 else ZERO)
    sense = rng.choice(["max", "min"])
    objective = {x: Q(rng.randint(-2, 4), rng.randint(1, 3)) for x in xs}
    lp.set_objective(sense, objective)
    b = Q(rng.randint(1, 3))
    shape = rng.choice(["norm", "box", "cap"])
    if shape == "cap":
        rel, cap = ("<=", b) if sense == "max" else (">=", -b)
        lp.add_constraint(objective, rel, cap)
    elif shape == "norm" and pos:
        lp.add_constraint({x: ONE for x in pos}, "<=", b)
    else:
        lp.add_constraint({rng.choice(xs): ONE}, "<=", b)
    return lp


def test_homogeneous_lps_against_float_solver():
    # the rows the slack start negates, and the bound rows it leaves on
    # their artificials, in every mix; solve re-verifies each certificate
    scipy_lin = pytest.importorskip("scipy.optimize")
    rng = random.Random(20261018)
    seen = dict.fromkeys(["optimal", "infeasible", "unbounded"], 0)
    for _ in range(200):
        lp = _random_homogeneous_lp(rng)
        out = solve(lp)
        seen[out.status] += 1
        _check_against_highs(scipy_lin, lp, out)
    assert all(v >= 10 for v in seen.values()), seen


def _random_pair_lp(rng: random.Random) -> tuple[LinearProgram, dict[int, str]]:
    """Random LP built around homogeneous two-term = rows, and the kind of each.

    Two to four pairs, each a row a*x_j + b*x_k = 0 of one kind: "opposite"
    (both nonnegative, opposite signs), "free" (x_j free, x_k
    nonnegative), "free-free", or "same" (both nonnegative, same sign,
    which the presolve keeps).  A "cascade" row over both variables of a
    pair and one other becomes a pair once that pair is merged.  One or
    two general rows follow, and half the draws box every variable, so
    optimal, infeasible and unbounded LPs all occur.
    """
    lp = LinearProgram()
    coef = lambda: Q(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice([1, -1])
    kinds, pairs = {}, []
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(["opposite", "free", "free-free", "same"])
        j = lp.add_var(f"x{lp.num_vars}", nonneg=kind in ("opposite", "same"))
        k = lp.add_var(f"x{lp.num_vars}", nonneg=kind != "free-free")
        a, b = coef(), abs(coef())
        b = b if (a > 0) == (kind == "same") else -b
        kinds[lp.add_constraint({j: a, k: b}, "=", ZERO)] = kind
        pairs.append((j, k))
    j, k = rng.choice(pairs)
    other = rng.choice([v for v in range(lp.num_vars) if v not in (j, k)])
    kinds[lp.add_constraint({j: coef(), k: coef(), other: coef()}, "=", ZERO)] = "cascade"
    xs = range(lp.num_vars)
    for _ in range(rng.randint(1, 2)):
        row = {x: coef() for x in rng.sample(xs, rng.randint(1, 3))}
        lp.add_constraint(row, rng.choice(["<=", ">=", "="]), Q(rng.randint(-3, 3)))
    if rng.random() < 0.5:
        for x in xs:
            lp.add_constraint({x: ONE}, "<=", Q(rng.randint(1, 5)))
            lp.add_constraint({x: ONE}, ">=", Q(-rng.randint(0, 5)))
    lp.set_objective(rng.choice(["max", "min"]), {x: coef() for x in xs})
    return lp, kinds


def test_presolved_lps_against_float_solver(monkeypatch):
    # every kind of pair is merged, a cascade row after its pair, and a
    # same-sign pair never; solve re-verifies each lifted certificate on
    # the LP as built, and HiGHS agrees on the status and value
    scipy_lin = pytest.importorskip("scipy.optimize")
    merged = []

    class Recording(lpmod._Presolve):
        def __init__(self, *args):
            super().__init__(*args)
            merged.append([r for r, *_ in self.steps])

    monkeypatch.setattr(lpmod, "_Presolve", Recording)
    rng = random.Random(20261019)
    seen = dict.fromkeys(["optimal", "infeasible", "unbounded"], 0)
    kinds_merged = dict.fromkeys(["opposite", "free", "free-free", "cascade"], 0)
    for _ in range(200):
        lp, kinds = _random_pair_lp(rng)
        out = solve(lp)
        seen[out.status] += 1
        _check_against_highs(scipy_lin, lp, out)
        (rows,) = merged
        merged.clear()
        assert all(kinds[r] != "same" for r in rows if r in kinds), format_lp(lp)
        assert all(r in rows for r, kind in kinds.items() if kind in ("opposite", "free", "free-free"))
        for r in rows:
            if r in kinds:
                kinds_merged[kinds[r]] += 1
    assert all(v >= 10 for v in seen.values()), seen
    assert all(kinds_merged.values()), kinds_merged


def _merged_max() -> LinearProgram:
    """max x + y + 3z, x - 2y = 0 merged, x + z <= 4, z <= 1: x = 3, y = 3/2, z = 1."""
    lp = LinearProgram()
    x, y, z = lp.add_var("x"), lp.add_var("y"), lp.add_var("z")
    lp.add_constraint({x: ONE, y: -Q(2)}, "=", 0, "x_eq_2y")
    lp.add_constraint({x: ONE, z: ONE}, "<=", 4, "cap")
    lp.add_constraint({z: ONE}, "<=", 1, "z_cap")
    lp.set_objective("max", {x: ONE, y: ONE, z: Q(3)})
    return lp


def _merged_infeasible() -> LinearProgram:
    """x - y = 0 merged, x >= 1 and y <= 1/2 cannot both hold."""
    lp = LinearProgram()
    x, y = lp.add_var("x"), lp.add_var("y")
    lp.add_constraint({x: ONE, y: -ONE}, "=", 0, "x_eq_y")
    lp.add_constraint({x: ONE}, ">=", 1, "x_floor")
    lp.add_constraint({y: ONE}, "<=", Q(1, 2), "y_cap")
    return lp


def _merged_unbounded() -> LinearProgram:
    """max x, free w = 3x merged, w <= 1 + w: the ray is (1, 3)."""
    lp = LinearProgram()
    x, w = lp.add_var("x"), lp.add_var("w", nonneg=False)
    lp.add_constraint({w: ONE, x: -Q(3)}, "=", 0, "w_eq_3x")
    lp.add_constraint({x: ONE, w: -ONE}, "<=", 1, "loose")
    lp.set_objective("max", {x: ONE})
    return lp


def test_merged_lps_return_lifted_certificates():
    # each LP's first row is merged away, so its dual, Farkas entry, and
    # the merged column's point and ray entries are the lifted ones
    for build in (_merged_max, _merged_infeasible, _merged_unbounded):
        lp = build()
        pre = lpmod._Presolve(lp)
        assert [r for r, *_ in pre.steps] == [0] and pre.rows == [1, 2][:lp.num_rows - 1]
    best = solve(_merged_max())
    assert (best.value, best.primal, best.duals, best.rows) == (Q(15, 2), [3, Q(3, 2), 1], [Q(-1, 2), Q(3, 2), Q(3, 2)], 2)
    assert solve(_merged_infeasible()).farkas == [1, -1, 1]
    assert solve(_merged_unbounded()).ray == [1, 3]


@pytest.mark.parametrize("build, field, j, delta, check, match", [
    (_merged_max, "duals", 0, -EPS, "optimal", "dual infeasibility at x"),
    (_merged_max, "primal", 0, EPS, "optimal", "row x_eq_2y violated"),
    (_merged_infeasible, "farkas", 0, -EPS, "farkas", "farkas cone violation"),
    (_merged_unbounded, "ray", 1, EPS, "ray", "ray infeasible"),
])
def test_lifted_certificates_reject_a_move(build, field, j, delta, check, match):
    # one entry of a merged row or column, moved by 1/10**30, fails the
    # unchanged check on the LP as built
    lp = build()
    out = solve(lp)
    vec = moved(out.point if field in ("primal", "ray") else out.mult, j, delta)
    objective = lp.objective.rational()[0]
    with pytest.raises(lpmod.LPInternalError, match=match):
        if check == "optimal":
            x, y = (vec, out.mult) if field == "primal" else (out.point, vec)
            value = out.value + (objective.get(j, ZERO) * delta if field == "primal" else 0)
            lpmod._verify_optimal(lp, x, y, value)
        elif check == "farkas":
            lpmod._verify_farkas(lp, vec)
        else:
            lpmod._verify_ray(lp, vec)


def test_presolve_shrinks_the_binomial_measure_lp():
    # the T=5 binomial put super-hedge's measure LP: 161 rows as built,
    # at most 20 once its martingale pairs are merged up the tree
    asked = []

    class Recording(lpmod._Presolve):
        def __init__(self, prog, *args):
            asked.append(prog.num_rows)
            super().__init__(prog, *args)

    model = load_model(binomial_put_book_dict(5))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lpmod, "_Presolve", Recording)
        report, _ = price_with_dual(enlarge(model, model.N + 1), "super")
    assert (report.price, asked) == (Q(188, 81), [161])
    assert report.lp.rows <= 20


def _floor_lp(implied: bool = True, cap: bool = False) -> LinearProgram:
    """max s, q1 = q2 = q3 merged into y, q1 + q2 + q3 = 1, and the floor rows
    q1 >= 2s, q2 >= 3s and -q3 + 3s <= 0: y = 1/3, s = 1/9.

    Without ``implied`` only q2's row, the one the presolve keeps, is
    built; ``cap`` adds s >= 1, which no point meets.
    """
    lp = LinearProgram()
    q1, q2, q3 = (lp.add_var(f"q{i}") for i in (1, 2, 3))
    s = lp.add_var("s", nonneg=False)
    lp.add_constraint({q1: ONE, q2: -ONE}, "=", 0, "q1_eq_q2")
    lp.add_constraint({q2: ONE, q3: -ONE}, "=", 0, "q2_eq_q3")
    lp.add_constraint({q1: ONE, q2: ONE, q3: ONE}, "=", 1, "mass")
    if implied:
        lp.add_constraint({q1: ONE, s: -Q(2)}, ">=", 0, "floor_q1")
    lp.add_constraint({q2: ONE, s: -Q(3)}, ">=", 0, "floor_q2")
    if implied:
        lp.add_constraint({q3: -ONE, s: Q(3)}, "<=", 0, "floor_q3")
    if cap:
        lp.add_constraint({s: ONE}, ">=", 1, "s_floor")
    lp.set_objective("max", {s: ONE})
    return lp


def _unmerged_floor_lp(implied: bool = True) -> LinearProgram:
    """max s, y <= 1, y >= s, 2y >= 4s and y >= 2s: y = 1, s = 1/2, nothing merged.

    Without ``implied`` only 2y >= 4s, the row the presolve keeps, is built.
    """
    lp = LinearProgram()
    y, s = lp.add_var("y"), lp.add_var("s", nonneg=False)
    lp.add_constraint({y: ONE}, "<=", 1, "cap")
    if implied:
        lp.add_constraint({y: ONE, s: -ONE}, ">=", 0, "floor_1")
    lp.add_constraint({y: Q(2), s: -Q(4)}, ">=", 0, "floor_2")
    if implied:
        lp.add_constraint({y: ONE, s: -Q(2)}, ">=", 0, "floor_2_again")
    lp.set_objective("max", {s: ONE})
    return lp


def test_presolve_keeps_only_the_least_ratio_floor_row():
    # after the merges all three floor rows bound s by y: q2's ratio 1/3 is
    # the least, and q3's, tied with it, comes later; unmerged, the first
    # of the two rows at ratio 1/2 stays
    pre = lpmod._Presolve(_floor_lp())
    assert [r for r, *_ in pre.steps] == [0, 1] and pre.rows == [2, 4]
    assert lpmod._Presolve(_unmerged_floor_lp()).rows == [0, 2]


@pytest.mark.parametrize("build, dropped", [(_floor_lp, [3, 5]), (_unmerged_floor_lp, [1, 3])])
def test_dropped_floor_rows_move_no_result(build, dropped):
    # the solve runs the tableau of the LP built without the implied rows,
    # and gives each dropped row the dual 0
    full, pruned = solve(build()), solve(build(implied=False))
    assert (full.value, full.primal) == (pruned.value, pruned.primal)
    assert (full.rows, full.cols, full.pivots) == (pruned.rows, pruned.cols, pruned.pivots)
    assert [full.duals[i] for i in dropped] == [0, 0]
    assert [y for i, y in enumerate(full.duals) if i not in dropped] == pruned.duals


def test_infeasible_slack_lp_with_dropped_rows_returns_a_farkas_vector():
    # s >= 1 against s <= y/3 = 1/9: the kept floor row carries the proof,
    # the dropped ones get 0, and the vector passes the check on every row
    lp = _floor_lp(cap=True)
    out = solve(lp)
    assert (out.status, out.rows) == ("infeasible", 3)
    assert out.farkas[3] == out.farkas[5] == 0 and out.farkas[4] != 0
    lpmod._verify_farkas(lp, out.mult)


def test_presolve_keeps_lower_bounds_on_the_slack():
    # s >= y and s >= y/2 read a*y - b*s >= 0 with a < 0: no floor rows
    lp = LinearProgram()
    y, s = lp.add_var("y"), lp.add_var("s", nonneg=False)
    lp.add_constraint({s: ONE, y: -ONE}, ">=", 0, "s_over_y")
    lp.add_constraint({y: -ONE, s: Q(2)}, ">=", 0, "s_over_half_y")
    lp.add_constraint({y: ONE}, "<=", 1, "cap")
    lp.set_objective("min", {s: ONE})
    assert list(lpmod._Presolve(lp).rows) == [0, 1, 2]
    assert solve(lp).value == 0


def test_presolve_keeps_two_term_rows_on_nonnegative_columns():
    # a Snell stop row u >= w*z against a nonnegative z is no floor row,
    # even where another such row on (u, z) implies it
    lp = LinearProgram()
    u, z = lp.add_var("u"), lp.add_var("z")
    lp.add_constraint({u: ONE, z: -ONE}, ">=", 0, "stop_1")
    lp.add_constraint({u: ONE, z: -Q(2)}, ">=", 0, "stop_2")
    lp.add_constraint({z: ONE}, "<=", 1, "cap")
    lp.set_objective("min", {u: ONE})
    assert list(lpmod._Presolve(lp).rows) == [0, 1, 2]
    assert solve(lp).value == 0


def _recording_tableau(check):
    """A _Tableau subclass calling check(tab, step) after every update.

    step is the (row, column) of a pivot, or None after set_costs.  The
    tableau keeps the (rows, nonneg) of the presolved LP it was built from
    as ``given``.
    """

    class Recording(lpmod._Tableau):
        def __init__(self, *args):
            self.given = args
            super().__init__(*args)

        def set_costs(self, *args):
            super().set_costs(*args)
            check(self, None)

        def pivot(self, r, c):
            super().pivot(r, c)
            check(self, (r, c))

    return Recording


def _rows(tab):
    """(values, denominator) of every tableau row, the objective row last."""
    return [*((list(row.values()), d) for row, d in zip(tab.rows, tab.den)), (tab.zrow, tab.zden)]


def test_reduction_bound_moves_no_pivot(monkeypatch):
    # bound 0 puts every updated row in lowest terms; a huge bound reduces
    # only the pivot row.  Bland's rule reads signs and the ratio test
    # compares within a row, so every outcome, certificate and pivot agrees.
    rng = random.Random(20260814)
    lps = [_random_lp(rng)[0] for _ in range(150)] + [_infeasible_lp(), _unbounded_lp()]
    model = load_model(binomial_put_book_dict(4))  # degenerate: Bland's ties matter
    steps = {}
    monkeypatch.setattr(lpmod, "_Tableau", _recording_tableau(
        lambda tab, step: steps.setdefault(lpmod._REDUCE_BITS, []).append(step)))
    runs = {}
    for bits in (0, 10**9):
        monkeypatch.setattr(lpmod, "_REDUCE_BITS", bits)
        runs[bits] = [solve(lp) for lp in lps], superhedge(enlarge(model, model.N + 1))
    (eager, eager_hedge), (lazy, lazy_hedge) = runs[0], runs[10**9]
    assert {out.status for out in eager} == {"optimal", "infeasible", "unbounded"}
    for lp, a, b in zip(lps, eager, lazy):
        assert a == b, format_lp(lp)
    assert eager_hedge == lazy_hedge
    assert steps[0] == steps[10**9]


def test_row_denominators_stay_within_the_bit_bound(monkeypatch):
    # T=5 binomial put super-hedge, 192 rows: no denominator grows past the
    # bound by more than one pivot-row denominator's bits
    def check(tab, step):
        if step is not None:
            limit = lpmod._REDUCE_BITS + tab.den[step[0]].bit_length()
            assert max(d.bit_length() for _, d in _rows(tab)) <= limit

    monkeypatch.setattr(lpmod, "_Tableau", _recording_tableau(check))
    model = load_model(binomial_put_book_dict(5))
    report = superhedge(enlarge(model, model.N + 1))
    assert (report.price, report.lp.rows, report.lp.pivots) == (Q(188, 81), 192, 196)


@pytest.mark.parametrize("bits", [4, lpmod._REDUCE_BITS])
def test_rows_past_the_bound_are_in_lowest_terms(bits, monkeypatch):
    # T=4 binomial put super-hedge: a row whose denominator has more than
    # _REDUCE_BITS bits is in lowest terms after every update; rows below
    # the bound may keep a common factor, and some do
    unreduced = []

    def check(tab, step):
        for row, d in _rows(tab):
            g = gcd(d, *row)
            assert g == 1 or d.bit_length() <= bits
            unreduced.append(g > 1)

    monkeypatch.setattr(lpmod, "_REDUCE_BITS", bits)
    monkeypatch.setattr(lpmod, "_Tableau", _recording_tableau(check))
    model = load_model(binomial_put_book_dict(4))
    assert superhedge(enlarge(model, model.N + 1)).price == Q(52, 27)
    assert any(unreduced)


def test_tableau_stores_only_nonzeros(monkeypatch):
    # no stored entry is 0, col_rows is the rows' exact nonzero pattern,
    # and before any pivot the rows hold the presolved LP's nonzeros (free
    # variables twice), one slack per inequality, one artificial per row
    # that does not start on its slack and the nonzero right-hand sides
    fresh = {}

    def check(tab, step):
        pattern = [set() for _ in range(tab.ncols + 1)]
        for i, row in enumerate(tab.rows):
            assert all(row.values())
            for c in row:
                pattern[c].add(i)
        assert tab.col_rows == pattern
        if tab.pivots == 0:
            rows, nonneg = tab.given
            stored = sum(1 + (not nonneg[j]) for row in rows for j in row.coeffs)
            on_slack = [sc is not None and tab.rows[i][sc] > 0
                        for i, sc in enumerate(tab.slack_col)]
            assert [c < tab.n_real for c in tab.start] == on_slack
            assert tab.basis == tab.start and len(set(tab.start)) == len(rows)
            stored += sum((row.rel != "=") + (not slack) + (row.rhs != 0)
                          for row, slack in zip(rows, on_slack))
            assert sum(map(len, tab.rows)) == stored
            fresh[id(tab)] = tab

    monkeypatch.setattr(lpmod, "_Tableau", _recording_tableau(check))
    rng = random.Random(20260814)
    lps = [_random_lp(rng)[0] for _ in range(150)] + [_infeasible_lp(), _unbounded_lp()]
    assert {solve(lp).status for lp in lps} == {"optimal", "infeasible", "unbounded"}
    assert len(fresh) == len(lps)
    model = load_model(binomial_put_book_dict(4))
    assert superhedge(enlarge(model, model.N + 1)).price == Q(52, 27)


def test_solve_converts_no_row(monkeypatch):
    # every row is stored as integers when it is added, so a solve makes no
    # rational-to-integer conversion, and it leaves the LP's rows, which
    # the certificate checks read, exactly as they were
    calls = []
    real = lpmod._integers
    monkeypatch.setattr(lpmod, "_integers", lambda *args: calls.append(1) or real(*args))
    rng = random.Random(20261019)
    lps = [_random_lp(rng)[0] for _ in range(60)] + [_infeasible_lp(), _unbounded_lp()]
    statuses, pivots = set(), 0
    for lp in lps:
        rows = list(lp.rows)
        stored = [(dict(r.coeffs), r.rel, r.rhs, r.den, r.name) for r in rows]
        calls.clear()
        out = solve(lp)
        statuses.add(out.status)
        pivots += out.pivots
        assert calls == []
        assert all(a is b for a, b in zip(lp.rows, rows))
        assert [(r.coeffs, r.rel, r.rhs, r.den, r.name) for r in lp.rows] == stored
    assert statuses == {"optimal", "infeasible", "unbounded"} and pivots > len(lps)


# (LPs the CLI fixtures ask, LPs with verify --models 1 --seed 3 as well,
# sha256 of their sorted format_lp texts), first recorded when the LP stored
# its rows as rationals, so reading the integer rows back moves no text, and
# re-recorded when the arbitrage LP came to cap its expected gain
ASKED_FORMAT = (31, 309, "259e25a35513fc46d8657e6ec06cadf99062fc0ba865be519fdecab7c546aacd")


@pytest.fixture(scope="module")
def asked(tmp_path_factory):
    """Every LP the CLI fixtures and ``verify --models 1 --seed 3`` solve, in
    solve order: its format_lp text and its stored rows, objective last,
    taken as the solve was asked."""

    seen = []

    class Asked(lpmod._Presolve):
        def __init__(self, prog, *args):
            seen.append((format_lp(prog), [*prog.rows, prog.objective]))
            super().__init__(prog, *args)

    models = [load_model(getattr(conftest, f"{name}_dict")()) for name in CONFTEST_MODELS]
    models += [factory() for factory in CAMPAIGN_MODELS.values()]
    path = tmp_path_factory.mktemp("asked") / "model.json"
    with pytest.MonkeyPatch.context() as m, contextlib.redirect_stdout(io.StringIO()):
        m.setattr(lpmod, "_Presolve", Asked)
        # every campaign unit in this process, where the recorder sees it
        m.setattr(campaign, "_worker_count", lambda units: 1)
        for model in models:
            path.write_text(json.dumps(emit_model(model)))
            for command in sorted(COMMANDS):
                assert main([*COMMANDS[command], "--model", str(path)]) == 0
        cli = len(seen)
        assert main(["verify", "--models", "1", "--seed", "3"]) == 0
    return cli, seen


def test_stored_rows_read_back_as_the_asked_lp(asked):
    cli, seen = asked
    texts = sorted(text for text, _ in seen)
    digest = hashlib.sha256("\n\n".join(texts).encode()).hexdigest()
    assert (cli, len(seen), digest) == ASKED_FORMAT


def test_every_stored_entry_is_a_python_int(asked):
    # the builders' integer rows and the rational entry's conversion alike:
    # ints whatever the rational backend, no zero coefficient, den > 0
    _, seen = asked
    for text, rows in seen:
        for row in rows:
            assert type(row.rhs) is int and type(row.den) is int and row.den > 0, text
            assert all(type(j) is int and type(a) is int and a
                       for j, a in row.coeffs.items()), text


def test_edits_on_a_copy_leave_the_source(monkeypatch):
    # max_slack writes its slackened rows into a copy: the source keeps its
    # row objects, the copy shares every row it does not list, and the copy
    # is the LP a fresh build gives, a zero weight storing no coefficient
    solved = []
    monkeypatch.setattr(lpmod, "solve", lambda prog: solved.append(prog) or solve(prog))
    rng = random.Random(20261020)
    for _ in range(30):
        lp, xs = _random_lp(rng)
        before, source = format_lp(lp), list(lp.rows)
        rows = {i: w for i, row in enumerate(lp.rows) if row.rel != "="
                for w in [Q(rng.randint(0, 4), rng.randint(1, 3))]}
        max_slack(lp, rows)
        assert format_lp(lp) == before
        assert len(lp.rows) == len(source) and all(map(operator.is_, lp.rows, source))
        work = solved.pop()
        assert len(work.rows) == len(source)
        assert [row is old for row, old in zip(work.rows, source)] == [
            i not in rows for i in range(len(source))]
        fresh = LinearProgram()
        for j in xs:
            fresh.add_var(lp.var_names[j], lp.nonneg[j])
        s = fresh.add_var("_slack", nonneg=False)
        for i, row in enumerate(lp.rows):
            coeffs, rhs = row.rational()
            if i in rows:
                coeffs[s] = rows[i] if row.rel == "<=" else -rows[i]
            fresh.add_constraint(coeffs, row.rel, rhs, row.name)
        fresh.set_objective("max", {s: ONE})
        assert format_lp(work) == format_lp(fresh)
        assert all(type(a) is int and a for r in work.rows for a in r.coeffs.values())
        assert all(type(a) is int
                   for r in fresh.rows for a in (*r.coeffs.values(), r.rhs, r.den))


def _start(rows, nonneg=(True, True, True)):
    """(flip, starting basic column kind) of each row of a fresh tableau.

    The tableau is built on the rows as written, not presolved, so a
    two-term ``=`` row the presolve would merge still reaches the start rule.
    """
    lp = LinearProgram()
    xs = [lp.add_var(f"x{j}", nonneg=pos) for j, pos in enumerate(nonneg)]
    for coeffs, rel, rhs in rows:
        lp.add_constraint({xs[j]: Q(v) for j, v in coeffs.items()}, rel, Q(rhs))
    tab = lpmod._Tableau(lp.rows, lp.nonneg)
    kind = lambda i: "slack" if tab.basis[i] == tab.slack_col[i] else "art"
    return [(tab.flip[i], kind(i)) for i in range(lp.num_rows)]


def test_starting_basis():
    mass = ({1: 1, 2: 1}, "=", 1)  # the origin violates it
    # a homogeneous >= row is negated and starts on its slack, at 0
    assert _start([({0: 1, 1: 1, 2: -1}, ">=", 0), mass])[0] == (True, "slack")
    free_x0 = (False, True, True)
    assert _start([({0: 1, 1: -1}, ">=", 0), mass], free_x0)[0] == (True, "slack")
    # a bound row y - x1 - 2*x2 >= 0 keeps its artificial where the origin
    # is infeasible ...
    bound = ({0: 1, 1: -1, 2: -2}, ">=", 0)
    assert _start([bound, mass])[0] == (False, "art")
    # ... and starts on its slack where the origin is feasible
    assert _start([bound, ({1: 1, 2: -1}, "=", 0)])[0] == (True, "slack")
    assert _start([bound, ({0: 1, 1: 1}, "<=", 1)])[0] == (True, "slack")
    # negative-rhs rows are negated as before; homogeneous <= and = rows are not
    assert _start([({0: 1, 1: -1}, ">=", -2), ({0: 1, 1: 1}, "<=", -1), mass]) == [
        (True, "slack"), (True, "art"), (False, "art")]
    assert _start([({0: 1, 1: -1}, "<=", 0), ({0: 1, 1: -1}, "=", 0)]) == [
        (False, "slack"), (False, "art")]


def test_arbitrage_lp_phase_1_pivots_only_the_equality_rows(binomial, monkeypatch):
    # every row of the arbitrage LP is homogeneous or the cap row, so
    # phase 1 starts at the origin, feasible: at most one pivot per = row
    costs = []  # (pivots so far, = rows) each time a phase prices its costs

    def check(tab, step):
        if step is None:
            costs.append((tab.pivots, sum(row.rel == "=" for row in tab.given[0])))

    monkeypatch.setattr(lpmod, "_Tableau", _recording_tableau(check))
    assert not detect_arbitrage(enlarge(binomial, 0)).found
    _, (pivots, equalities) = costs
    assert pivots <= equalities
