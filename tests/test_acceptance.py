"""End-to-end acceptance battery on randomized corpora.

Eight criteria, every check exact rational equality (zero tolerance).
Each criterion writes one verdict line straight to the terminal,
bypassing pytest capture, so a full run always shows eight lines.
"""
from __future__ import annotations

import random
import sys
import time

from amhedge.campaign import (
    BOUNDARY_OFFSET,
    check_chain,
    check_degenerations,
    check_depth_zero,
    check_ftap_grid,
    check_singleton_robust,
    pin_quote,
    random_kernel_model,
    random_sna_model,
    selector_sweep,
    strict_chain_market,
)
from amhedge.divisible import verify_divisibility_equivalence
from amhedge.enlarged import enlarge, extend_claim
from amhedge.errors import PropertyViolation
from amhedge.hedging import subhedge, superhedge
from amhedge.measures import MeasurePolytope, build_polytope, ftap_certificate, price_with_dual
from amhedge.oracles import (
    check_sna,
    dp_superhedge,
    drop_options,
    e2_chain,
    robust_na,
    selectors,
    verify_minimax,
    vertex_measure,
)
from amhedge.rationals import Q, ZERO, rat_str
from amhedge.robust import supported_space

SEED = 20260814

_CORPUS: list = []
_EVAL: dict[int, tuple] = {}
_POLYTOPES: dict[int, tuple] = {}    # both polytopes and the closed maximizer, for check_chain
_KERNELS: list = []


def _line(capfd, num: int, ok: bool, detail: str) -> None:
    # write past pytest's capture so every run shows the verdict
    with capfd.disabled():
        sys.stdout.write(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}\n")
        sys.stdout.flush()
    assert ok, f"criterion {num}: {detail}"


def _corpus() -> list:
    if not _CORPUS:
        for i in range(50):
            _CORPUS.append(random_sna_model(random.Random(SEED + i)))
    return _CORPUS


def _evaluate(i: int) -> tuple:
    """(sna report, hedge LP prices, raw price quadruple) for corpus model i."""
    if i not in _EVAL:
        model = _corpus()[i].model
        dual_sub, pt_sub = price_with_dual(enlarge(model, model.N), "sub")
        sna = check_sna(pt_sub)
        dual_sup, pt_sup = price_with_dual(enlarge(model, model.N + 1), "super")
        quad = (
            subhedge(pt_sub.enl).price,
            dual_sub.price,
            superhedge(pt_sup.enl).price,
            dual_sup.price,
        )
        _POLYTOPES[i] = (pt_sub, pt_sup, dual_sup.measure)
        _EVAL[i] = (sna, (quad[0], quad[2]), quad)
    return _EVAL[i]


def _kernels() -> list:
    if not _KERNELS:
        for i in range(30):
            gm = random_kernel_model(random.Random(SEED * 5 + i))
            _KERNELS.append(gm.model)
    return _KERNELS


def _qs_price(enl, side):
    """The quasi-sure price: the classical measure LP on the supported space."""
    return price_with_dual(supported_space(enl), side)[0]


def test_criterion_1_classical_duality(capfd):
    t0 = time.monotonic()
    failures = []
    try:
        for i in range(len(_corpus())):
            _, _, (sub_p, sub_d, sup_p, sup_d) = _evaluate(i)
            if sub_p != sub_d:
                failures.append(f"model {i}: sub {rat_str(sub_p)} != dual {rat_str(sub_d)}")
            if sup_p != sup_d:
                failures.append(f"model {i}: super {rat_str(sup_p)} != dual {rat_str(sup_d)}")
            if sub_p > sup_p:
                failures.append(f"model {i}: price interval inverted")
    except Exception as exc:
        failures.append(repr(exc))
    elapsed = time.monotonic() - t0
    if elapsed >= 300.0:
        failures.append(f"runtime budget blown: {elapsed:.1f}s")
    _line(capfd, 1, not failures,
          failures[0] if failures
          else f"primal = dual exactly on both sides, 50 models, {elapsed:.1f}s")


def test_criterion_2_ftap_biconditional_on_grid(capfd):
    failures = []
    points = 0
    try:
        for i, gm in enumerate(_corpus()):
            try:
                pt = build_polytope(enlarge(gm.model, gm.model.N))
                rec, _ = check_ftap_grid(pt, expect="sna")
                points += len(rec["na"])
            except PropertyViolation as exc:
                failures.append(f"model {i}: {exc}")
        for i in range(20):
            seed = SEED * 2 + i
            rng = random.Random(seed)
            gm = random_sna_model(rng, require_option=True)
            try:
                if i % 3 == 0:
                    bad, _ = pin_quote(rng, gm, None)
                    rec, _ = check_ftap_grid(build_polytope(enlarge(bad, bad.N)), expect="fail")
                elif i % 3 == 1:
                    bad, _ = pin_quote(rng, gm, ZERO)
                    rec, sna = check_ftap_grid(build_polytope(enlarge(bad, bad.N)), expect="fail")
                    if sna.slack != ZERO:
                        raise PropertyViolation("pinned quote should have zero slack")
                else:
                    bad, _ = pin_quote(rng, gm, BOUNDARY_OFFSET)
                    rec, sna = check_ftap_grid(build_polytope(enlarge(bad, bad.N)), expect="sna")
                    if not ZERO < sna.slack <= BOUNDARY_OFFSET:
                        raise PropertyViolation("offset quote should cap the slack")
                points += len(rec["na"])
            except PropertyViolation as exc:
                failures.append(f"adversarial {i}: {exc}")
    except Exception as exc:
        failures.append(repr(exc))
    _line(capfd, 2, not failures,
          failures[0] if failures
          else f"measure-side verdict matches trading side at {points} shifted"
               " quote systems over 70 models")


def test_criterion_3_divisibility_equivalence(capfd):
    failures = []
    count = 0
    try:
        for i in range(20):
            seed = SEED * 3 + i
            gm = random_sna_model(random.Random(seed), force_n=1 + i % 2)
            try:
                verify_divisibility_equivalence(gm.model)
                count += 1
            except PropertyViolation as exc:
                failures.append(f"model {i}: {exc}")
    except Exception as exc:
        failures.append(repr(exc))
    _line(capfd, 3, not failures and count == 20,
          failures[0] if failures
          else "clock-indexed = enlarged prices and matching no-arbitrage"
               f" grids on {count} models with 1-2 shorted options")


def test_criterion_4_price_chain_and_transport(capfd):
    failures = []
    strict = 0
    try:
        for i, gm in enumerate(_corpus()):
            sna, prices, _ = _evaluate(i)
            try:
                rec = check_chain(sna, prices, *_POLYTOPES[i])
                strict += bool(rec["strict_upper"])
            except PropertyViolation as exc:
                failures.append(f"model {i}: {exc}")
        wedge = strict_chain_market()
        sub, pt_sub = price_with_dual(enlarge(wedge, wedge.N), "sub")
        sup, _ = price_with_dual(enlarge(wedge, wedge.N + 1), "super")
        chain = e2_chain(pt_sub, sub.price, sup.price)
        if (sub.price, chain.middle, sup.price) != \
                (Q(3, 4), Q(758717, 799680), Q(5879, 5880)):
            failures.append("canonical strict-gap market lost its gap")
        else:
            strict += 1
    except Exception as exc:
        failures.append(repr(exc))
    _line(capfd, 4, not failures,
          failures[0] if failures
          else f"chain and measure transports hold on 50 models; strict upper"
               f" gap found in {strict} markets (deterministic witness included)")


def test_criterion_5_robust_duality_and_dp(capfd):
    failures = []
    count = 0
    try:
        for k, model in enumerate(_kernels()):
            enl_sub, enl_sup = enlarge(model, model.N), enlarge(model, model.N + 1)
            # the stock-only price on the 1-clock space of the market
            # without its books, against the induction on the full space
            stock = _qs_price(enlarge(drop_options(model), 1), "super")
            supported = supported_space(enl_sup)
            dp = dp_superhedge(supported, extend_claim(supported, "super"))
            if stock.price != dp.value:
                failures.append(f"kernel {k}: backward induction disagrees with the LP")
            sub = _qs_price(enl_sub, "sub")
            sup = _qs_price(enl_sup, "super")
            if sub.gap != ZERO or sup.gap != ZERO or stock.gap != ZERO:
                failures.append(f"kernel {k}: primal-dual gap")
            if not sub.price <= sup.price <= stock.price:
                failures.append(f"kernel {k}: prices not sandwiched")
            count += 1
    except Exception as exc:
        failures.append(repr(exc))
    _line(capfd, 5, not failures and count == 30,
          failures[0] if failures
          else f"dp = stock-only price and zero primal-dual gap on {count}"
               " kernel families")


def test_criterion_6_robust_ftap_and_domination(capfd):
    failures = []
    singles = 0
    verdicts = {True: 0, False: 0}
    try:
        for k, model in enumerate(_kernels()):
            for n in (model.N, model.N + 1):
                enl = enlarge(model, n)
                # quotes moved 1/4 towards arbitrage make some families fail
                for shift in (ZERO, Q(1, 4)):
                    shifted = enl.with_model(model.shifted_prices(shift))
                    pt = build_polytope(supported_space(shifted))
                    cert = ftap_certificate(pt)
                    verdicts[cert.holds] += 1
                    where = f"kernel {k}, n = {n}, shift {shift}"
                    if cert.holds != selector_sweep(pt):
                        failures.append(f"{where}: one-LP verdict vs selector sweep")
                    rows = pt.verdicts(cert.measure, min_slack=cert.slack)
                    if not all(row[-1] for row in rows):
                        failures.append(f"{where}: certificate fails re-validation")
            stock = enlarge(drop_options(model), 0)
            base = MeasurePolytope(supported_space(stock))
            if robust_na(enlarge(model, model.N))[1].holds != selector_sweep(base):
                failures.append(f"kernel {k}: no-arbitrage verdict vs selector sweep")
        for i in range(15):
            gm = _corpus()[i]
            _evaluate(i)
            pt_sub, pt_sup, _ = _POLYTOPES[i]
            try:
                check_singleton_robust(pt_sub.enl, pt_sup.enl, gm.laws)
                singles += 1
            except PropertyViolation as exc:
                failures.append(f"singleton {i}: {exc}")
    except Exception as exc:
        failures.append(repr(exc))
    _line(capfd, 6, not failures and singles == 15 and all(verdicts.values()),
          failures[0] if failures
          else "one uniform-slack LP = selector sweep on 30 kernel families"
               f" ({verdicts[True]} consistent and {verdicts[False]} inconsistent"
               " quote systems at n = N and N + 1, plus no-arbitrage);"
               f" {singles} singleton families match the classical verdicts bit-for-bit")


def test_criterion_7_minimax_identity(capfd):
    failures = []
    count = 0
    try:
        kernels = _kernels()
        for i in range(20):
            model = kernels[i % len(kernels)]
            enl = enlarge(model, model.N)
            rng = random.Random(SEED * 7 + i)
            streams = [
                {v: Q(rng.randint(-8, 16), 8) for v in supported_space(enl).children}
                for _ in range(rng.choice([1, 2]))
            ]
            vertices = [vertex_measure(enl, sel) for sel in selectors(model)[:3]]
            try:
                verify_minimax(enl, streams, vertices)
                count += 1
            except PropertyViolation as exc:
                failures.append(f"instance {i}: {exc}")
    except Exception as exc:
        failures.append(repr(exc))
    _line(capfd, 7, not failures and count == 20,
          failures[0] if failures
          else f"guaranteed-liquidation = worst-case liquidation = worst-case"
               f" stopping on {count} instances")


def _hedge_prices(enl, enl_sup) -> tuple:
    return subhedge(enl).price, superhedge(enl_sup).price


def test_criterion_8_degenerations(capfd):
    failures = []
    zero_iso = 0
    try:
        for i in range(12):
            sna, prices, _ = _evaluate(i)
            pt_sub, pt_sup, _ = _POLYTOPES[i]
            try:
                check_degenerations(pt_sub.enl, pt_sup.enl, sna, prices)
                # the zero-clock isomorphism is checked exactly when N = 0
                zero_iso += pt_sub.enl.model.N == 0
            except PropertyViolation as exc:
                failures.append(f"model {i}: {exc}")
        for j in range(3):
            seed = SEED * 8 + j
            gm = random_sna_model(random.Random(seed), force_n=0)
            enl, enl_sup = enlarge(gm.model, 0), enlarge(gm.model, 1)
            prices = _hedge_prices(enl, enl_sup)
            check_degenerations(enl, enl_sup, check_sna(build_polytope(enl)), prices)
            zero_iso += 1
        if check_depth_zero() is not None:
            failures.append("single-date market recorded a value")
    except Exception as exc:
        failures.append(repr(exc))
    _line(capfd, 8, not failures,
          failures[0] if failures
          else "constant claims, quote monotonicity,"
               f" {zero_iso} zero-clock collapses, single-date market")
