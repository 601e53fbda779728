"""Model factories and the seeded verification sweep."""
from __future__ import annotations

import contextlib
import copy
import json
import os
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from amhedge import campaign, lp
from amhedge.cli import main
from amhedge.campaign import (
    BOUNDARY_OFFSET,
    check_depth_zero,
    check_robust_model,
    node_interior,
    pin_quote,
    random_kernel_model,
    random_sna_model,
    random_stock,
    random_tree,
    run_campaign,
    selector_sweep,
    strict_chain_market,
)
from amhedge.enlarged import EnlargedModel, enlarge
from amhedge.errors import PropertyViolation
from amhedge.mapper import map_units
from amhedge.market import emit_model, load_model
from amhedge.measures import MeasurePolytope, build_polytope, ftap_certificate, price_with_dual
from amhedge.oracles import check_sna, drop_options, e2_chain, robust_na
from amhedge.rationals import ONE, Q, ZERO
from amhedge.robust import num_selectors, supported_space

from conftest import binomial_dict, binomial_short_put_dict
from test_report_bytes import CAMPAIGN_MODELS


def test_fixture_markets_round_trip():
    for factory in CAMPAIGN_MODELS.values():
        model = factory()
        again = load_model(emit_model(model))
        assert emit_model(again) == emit_model(model)


def test_short_put_slack_matches_hand_value():
    model = load_model(binomial_short_put_dict())
    enl = enlarge(model, model.N)
    cert = ftap_certificate(build_polytope(enl))
    assert cert.holds and cert.slack == Q(1, 24)


def test_strict_chain_market_has_a_gap():
    model = strict_chain_market()
    sub, pt_sub = price_with_dual(enlarge(model, model.N), "sub")
    sup, _ = price_with_dual(enlarge(model, model.N + 1), "super")
    chain = e2_chain(pt_sub, sub.price, sup.price)
    assert sub.price == Q(3, 4)
    assert chain.middle == Q(758717, 799680)
    assert sup.price == Q(5879, 5880)
    assert chain.middle < sup.price


@pytest.mark.parametrize("seed", range(6))
def test_random_tree_shape(seed):
    rng = random.Random(seed)
    horizon = rng.choice([1, 2, 3])
    tree = random_tree(rng, horizon, max_branch=3)
    assert tree.horizon == horizon
    assert len(tree.children[tree.root]) >= 2
    for node in tree.nodes.values():
        if node.parent is not None:
            assert node.time == tree.nodes[node.parent].time + 1
        if node.time < horizon:
            assert tree.children[node.id]


@pytest.mark.parametrize("seed", range(6))
def test_random_stock_straddles_parent(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, 2, max_branch=3)
    stock = random_stock(rng, tree, dim=2)
    for nid, kids in tree.children.items():
        if len(kids) < 2:
            continue
        base = stock[nid][0]
        moves = [stock[k][0] for k in kids]
        assert max(moves) > base > min(moves)
    for vals in stock.values():
        assert vals[0] > ZERO
        assert vals[1] == Q(2) + vals[0] / 2


def test_node_interior_is_martingale_and_positive():
    rng = random.Random(11)
    gm = random_sna_model(rng)
    laws = node_interior(gm.model)
    tree = gm.model.tree
    for nid, law in laws.items():
        kids = tree.children[nid]
        assert set(law) == set(kids)
        assert sum(law.values()) == ONE
        assert all(q > ZERO for q in law.values())
        parent = gm.model.stock[nid]
        for d in range(gm.model.dim):
            mean = sum(law[k] * gm.model.stock[k][d] for k in kids)
            assert mean == parent[d]


def test_node_interior_refuses_a_node_without_a_martingale_law():
    # both moves go up from 1, so no law at the root has mean 1
    model = load_model(binomial_dict(stock={"dim": 1, "values": {
        "r": ["1"], "u": ["2"], "d": ["3/2"]}}))
    with pytest.raises(PropertyViolation, match="^node 'r' has no full-support martingale law$"):
        node_interior(model)


@pytest.mark.parametrize("make", [
    pytest.param(random_sna_model, id="default"),
    pytest.param(lambda rng: random_sna_model(rng, force_n=1), id="force_n=1"),
    pytest.param(lambda rng: random_sna_model(rng, force_n=2), id="force_n=2"),
    pytest.param(lambda rng: random_sna_model(rng, require_option=True), id="require_option"),
    pytest.param(random_kernel_model, id="kernel"),
])
def test_factory_draw_ranges_bound_size(make):
    # the draw ranges alone bound the corpus: at most 81 enlarged paths at
    # n = N + 1 (T = 2, three branches, N = 1) and, on kernel markets, at
    # most 4 internal nodes of at most 2 vertices each
    for seed in range(100):
        model = make(random.Random(seed)).model
        horizon = model.tree.horizon
        assert len(model.tree.paths) * (horizon + 1) ** (model.N + 1) <= 81
        assert model.kernels is None or num_selectors(model) <= 16


@pytest.mark.parametrize("seed", range(5))
def test_random_sna_model_holds(seed):
    gm = random_sna_model(random.Random(seed))
    sna = check_sna(build_polytope(enlarge(gm.model, gm.model.N)))
    assert sna.holds and sna.slack > ZERO


@pytest.mark.parametrize("seed", range(5))
def test_inject_arbitrage_breaks_sna(seed):
    rng = random.Random(100 + seed)
    gm = random_sna_model(rng, require_option=True)
    broken, kind = pin_quote(rng, gm, None)
    assert kind in {"european", "long", "short"}
    sna = check_sna(build_polytope(enlarge(broken, broken.N)))
    assert not sna.holds


def test_boundary_model_pins_the_slack():
    rng = random.Random(21)
    gm = random_sna_model(rng, require_option=True)
    pinned, _ = pin_quote(random.Random(22), gm, ZERO)
    sna = check_sna(build_polytope(enlarge(pinned, pinned.N)))
    assert not sna.holds and sna.slack == ZERO
    nudged, _ = pin_quote(random.Random(22), gm, BOUNDARY_OFFSET)
    sna2 = check_sna(build_polytope(enlarge(nudged, nudged.N)))
    assert sna2.holds and ZERO < sna2.slack <= BOUNDARY_OFFSET


@pytest.mark.parametrize("seed", range(3))
def test_random_kernel_model_is_consistent(seed):
    model = random_kernel_model(random.Random(seed)).model
    enl = enlarge(model, model.N)
    cert = ftap_certificate(build_polytope(supported_space(enl)))
    assert cert.holds and cert.slack > ZERO


def test_kernel_factory_falls_back_to_the_interior_law(monkeypatch):
    # every vertex family drawn for the root is refused; node_interior's
    # all-ones family still passes, so the root's family after 8 refused
    # draws is the singleton of its interior law
    refused = []
    dominating = campaign._dominating_law

    def refuse_root(model, nid, vertices):
        if nid == model.tree.root and vertices != [(ONE,) * len(model.tree.children[nid])]:
            refused.append(vertices)
            return None
        return dominating(model, nid, vertices)

    monkeypatch.setattr(campaign, "_dominating_law", refuse_root)
    gm = random_kernel_model(random.Random(0))
    model = gm.model
    root = model.tree.root
    assert refused and len(refused) % 8 == 0
    interior = node_interior(model)[root]
    assert gm.laws[root] == interior
    assert model.kernels[root] == [tuple(interior[k] for k in model.tree.children[root])]
    assert robust_na(enlarge(model, model.N))[1].holds
    assert selector_sweep(MeasurePolytope(supported_space(enlarge(drop_options(model), 0))))
    assert selector_sweep(build_polytope(supported_space(enlarge(model, model.N))))


def test_stock_only_arbitrage_is_a_property_violation(monkeypatch):
    # past a (stubbed) clean robust_na, an unbounded stock-only hedge
    # still ends the battery in PropertyViolation
    model = load_model(binomial_dict(kernels={"r": [["1", "0"]]}))
    monkeypatch.setattr(campaign, "robust_na", lambda enl: (None, SimpleNamespace(holds=True)))
    with pytest.raises(PropertyViolation, match="stock-only"):
        check_robust_model(model)


def _count_lps(monkeypatch, check):
    """check()'s result and the number of LPs it solved."""
    solved = []

    class Counting(lp._Presolve):
        def __init__(self, prog, *args):
            solved.append(prog)
            super().__init__(prog, *args)

    with monkeypatch.context() as m:
        m.setattr(lp, "_Presolve", Counting)
        return check(), len(solved)


def test_dropped_vertex_keeping_the_support_reuses_the_prices(monkeypatch):
    # both vertices charge both moves, so dropping one keeps the support
    model = load_model(binomial_dict(kernels={"r": [["1/2", "1/2"], ["1/3", "2/3"]]}))
    record, lps = _count_lps(monkeypatch, lambda: check_robust_model(model)[0])
    assert record["dropped_vertex"] == "r" and record["dropped_consistent"]
    # a path list that equals no other forces the two price LPs that an
    # unchanged support skips
    class Unequal(list):
        def __eq__(self, other):
            return False

        def __ne__(self, other):
            return True

    real = campaign.supported_space

    def forced(enl):
        space = copy.copy(real(enl))
        space.epaths = Unequal(space.epaths)
        return space

    monkeypatch.setattr(campaign, "supported_space", forced)
    forced, forced_lps = _count_lps(monkeypatch, lambda: check_robust_model(model)[0])
    assert forced == record and lps == forced_lps - 2


def test_dropped_vertex_shrinking_the_support_prices_again():
    # without its last, interior vertex the family charges the up move only
    model = load_model(binomial_dict(kernels={"r": [["1", "0"], ["1/2", "1/2"]]}))
    record, _ = check_robust_model(model)
    assert record["dropped_vertex"] == "r" and not record["dropped_consistent"]


def on_workers(monkeypatch, workers: int):
    monkeypatch.setattr(campaign, "_worker_count", lambda units: min(workers, units))


def test_campaign_reuses_the_spaces_it_holds(monkeypatch):
    # builds counted by the nearest campaign function on the stack: the
    # singleton check enlarges only robust_na's stock space, the minimax
    # check and the degenerations none (68 builds, 5 of them repeats,
    # before the reuse)
    # on one worker every unit runs in this process, where the patch counts it
    on_workers(monkeypatch, 1)
    built = Counter()
    real = EnlargedModel.__init__

    def counting(self, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] != "amhedge.campaign":
            frame = frame.f_back
        built[frame.f_code.co_name] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(EnlargedModel, "__init__", counting)
    run_campaign(3, models=1)
    assert built["check_singleton_robust"] == 1 and "check_minimax_instance" not in built
    assert sum(built.values()) == 61


@pytest.mark.parametrize("cut", ["sub", "super"])
def test_singleton_family_that_cuts_a_path_is_raised(monkeypatch, cut):
    # a full-support family keeps every path, so its supported spaces are
    # the market's own and its LPs check_duality's and check_sna's; a
    # family whose support drops a path on either side is refused
    gm = random_sna_model(random.Random(3))
    _, _, pt_sub, pt_sup, _ = campaign.check_duality(gm.model)
    args = (pt_sub.enl, pt_sup.enl, gm.laws)
    assert campaign.check_singleton_robust(*args) is None
    n = gm.model.N + (cut == "super")
    real = campaign.supported_space
    monkeypatch.setattr(campaign, "supported_space", lambda enl: enl.restricted(
        range(1, enl.num_paths)) if enl.n == n else real(enl))
    with pytest.raises(PropertyViolation, match="^singleton family cut a path$"):
        campaign.check_singleton_robust(*args)


def test_depth_zero_market(monkeypatch):
    # raises on a failure and records nothing, like check_singleton_robust
    assert check_depth_zero() is None
    monkeypatch.setattr(campaign, "superhedge", lambda enl: SimpleNamespace(price=ONE))
    with pytest.raises(PropertyViolation, match="^single-date market does not price"):
        check_depth_zero()


def test_run_campaign_is_deterministic():
    first = run_campaign(5, models=3)
    second = run_campaign(5, models=3)
    assert first == second
    assert first["ok"] is True
    assert first["seed"] == 5
    assert [len(recs) for recs in first["sections"].values()] == [3, 3, 3, 3]
    assert len({rec["seed"] for rec in first["sections"]["main"]}) == 3


def test_the_first_scaled_20_kernel_units_carry_the_minimax_instances(monkeypatch):
    # models=7 draws 4 kernel units (scaled(30)) and 3 minimax instances
    # (scaled(20)); at models=3 both counts are 3
    on_workers(monkeypatch, 1)
    for name in ("_main_unit", "_adversarial_unit", "_divisibility_unit", "check_depth_zero",
                 "_wedge_unit"):
        monkeypatch.setattr(campaign, name, lambda *args: {})
    monkeypatch.setattr(campaign, "_kernel_unit",
                        lambda submarkets, minimax, mseed: {"minimax": minimax})
    kernel = run_campaign(5, models=7)["sections"]["kernel"]
    assert [rec["minimax"] for rec in kernel] == [True, True, True, False]


def test_a_kernel_unit_without_its_minimax_instance_records_none():
    rec = campaign._kernel_unit(False, False, 12345)
    assert rec["seed"] == 12345 and "minimax" not in rec


# -- the units run on every CPU, with the report of one -------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the mapper forks its children")


def _fail_when_drawn(monkeypatch, name: str, seed: int, message: str) -> None:
    """Make campaign.<name>(rng, ...) raise when rng is fresh from ``seed``.

    The factories and the minimax check take a random.Random first, seeded
    by their unit's seed, so this fails one unit wherever it runs.
    """
    real = getattr(campaign, name)
    fresh = random.Random(seed).getstate()

    def failing(rng, *args, **kwargs):
        if rng.getstate() == fresh:
            raise PropertyViolation(message)
        return real(rng, *args, **kwargs)

    monkeypatch.setattr(campaign, name, failing)


def _first_failure(monkeypatch, seed: int, workers: int) -> tuple[str, list[str]]:
    on_workers(monkeypatch, workers)
    notes = []
    with pytest.raises(PropertyViolation) as info:
        run_campaign(seed, models=3, progress=notes.append)
    return str(info.value), notes


@needs_fork
@pytest.mark.parametrize("seed, other, other_seed, raised", [
    # a divisibility unit runs before every kernel unit
    (3, "random_sna_model", lambda s: s["divisibility"][2]["seed"], "the other unit"),
    # a kernel unit raises its own minimax failure, ahead of a later
    # unit's kernel failure
    (7, "random_kernel_model", lambda s: s["kernel"][1]["seed"], "minimax of the first unit"),
], ids=["3-divisibility", "7-kernel"])
def test_report_does_not_depend_on_worker_count(seed, other, other_seed, raised, monkeypatch,
                                                capsys):
    seen = []
    for workers in (1, 2):
        on_workers(monkeypatch, workers)
        assert main(["verify", "--models", "3", "--seed", str(seed), "--pretty"]) == 0
        seen.append(capsys.readouterr())
    (out1, err1), (out2, err2) = seen
    assert out1 == out2 and err1 == err2
    assert err1.count(" ok (seed ") == 3 + 3 + 3 + 3

    # with two units failing, the first in campaign order is raised after
    # the same progress lines
    sections = json.loads(out1)["campaign"]["sections"]
    _fail_when_drawn(monkeypatch, "check_minimax_instance",
                     sections["kernel"][0]["seed"] ^ 0x5EED, "minimax of the first unit")
    _fail_when_drawn(monkeypatch, other, other_seed(sections), "the other unit")
    serial = _first_failure(monkeypatch, seed, 1)
    assert serial[0] == raised
    assert _first_failure(monkeypatch, seed, 2) == serial


# -- mapper.map_units: this process and forked children draw the units ----------


@contextlib.contextmanager
def _deadline(seconds: int):
    # a mapper that deadlocks fails the test instead of hanging the suite
    def expired(signum, frame):
        raise TimeoutError(f"the units did not come back within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_reaped(pid: int) -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_the_first_unit_is_handed_out_first():
    # in one process the units run in hand-out order, and come back in list order
    ran = []
    assert list(map_units([(ran.append, (k,)) for k in range(5)], 1, first=3)) == [None] * 5
    assert ran == [3, 0, 1, 2, 4]


@needs_fork
def test_more_units_than_a_pipe_holds_tickets_come_back_in_order():
    # 20,000 four-byte tickets would not fit in a 64 KiB pipe
    with _deadline(60):
        assert list(map_units([(abs, (k,)) for k in range(20_000)], 2)) == list(range(20_000))


@needs_fork
def test_units_run_in_this_process_and_in_a_child(tmp_path):
    log = tmp_path / "pids"

    def unit(k):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        # hold the unit until both processes have drawn one
        while len(set(log.read_text().split())) < 2:
            time.sleep(0.005)
        return k

    with _deadline(60):
        assert list(map_units([(unit, (k,)) for k in range(6)], 2, first=5)) == list(range(6))
    pids = set(map(int, log.read_text().split()))
    assert os.getpid() in pids and len(pids) == 2
    _assert_reaped(max(pids - {os.getpid()}))


def _child_in_a_pipe_write(folder: Path) -> int | None:
    """The pid logged in ``folder``, once that process sleeps in a pipe write."""
    for entry in folder.glob("[0-9]*"):
        if Path(f"/proc/{entry.name}/wchan").read_text().endswith("pipe_write"):
            return int(entry.name)
    return None


@needs_fork
@pytest.mark.skipif(not Path("/proc/self/wchan").exists(), reason="reads /proc/<pid>/wchan")
def test_child_killed_writing_a_result_ends_in_memory_error(tmp_path):
    parent, killed, started = os.getpid(), [], tmp_path / "parent"

    def unit():
        if os.getpid() != parent:
            (tmp_path / str(os.getpid())).touch()
            # this process reads results while any are ready: hold the first
            # one until it has drawn a unit of its own
            while not started.exists():
                time.sleep(0.005)
            return bytes(1 << 20)  # 16 times what a pipe holds
        started.touch()
        if not killed:
            # kill the child once it sleeps in the middle of writing its result
            while (child := _child_in_a_pipe_write(tmp_path)) is None:
                time.sleep(0.005)
            os.kill(child, signal.SIGKILL)
            killed.append(child)

    with _deadline(60), pytest.raises(MemoryError, match="^a campaign worker process died$"):
        list(map_units([(unit, ())] * 4, 2))
    _assert_reaped(killed[0])


def test_verify_imports_no_process_pool(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import sys; from amhedge.cli import main; "
              "code = main(['verify', '--models', '1', '--out', sys.argv[1]]); "
              "print(code, sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "verify.json")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout == "0 []\n", proc.stderr
