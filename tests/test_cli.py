"""Command-line behaviour: exit codes, determinism, JSON shapes."""
from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import amhedge.campaign as campaign
import amhedge.cli as cli
import amhedge.hedging as hedging
import amhedge.lp as lpmod
import amhedge.measures as measures
import amhedge.strategies as strategies
from amhedge.cli import main
from amhedge.enlarged import enlarge
from amhedge.errors import CapExceededError
from amhedge.hedging import evaluate_gain
from amhedge.lp import LPInternalError
from amhedge.market import emit_model, load_model
from amhedge.measures import build_polytope
from amhedge.rationals import Q, rat, rat_str
from amhedge.robust import supported_paths, supported_space
from amhedge.strategies import DEFAULT_ENUM_CAP

from conftest import binomial_dict, binomial_put_book_dict, trinomial_kernels_dict
from test_report_bytes import CAMPAIGN_MODELS

VERIFY_SMALL_SHA256 = "21ad3419cb064631142f91a9b12761b2e3a9d8b5a863ffda4a11cb580d406a3d"


@pytest.fixture()
def model_file(tmp_path):
    d = binomial_dict(
        americans_short=[{"values": {"r": "0", "u": "0", "d": "1/2"}, "price": "1/4"}],
    )
    path = tmp_path / "model.json"
    path.write_text(json.dumps(d))
    return str(path)


@pytest.fixture()
def kernel_file(tmp_path):
    d = binomial_dict(kernels={"r": [["1/2", "1/2"]]})
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(d))
    return str(path)


@pytest.fixture()
def mispriced_file(tmp_path):
    # the short put of model_file bid at 1/2: no measure clears it
    d = binomial_dict(
        americans_short=[{"values": {"r": "0", "u": "0", "d": "1/2"}, "price": "1/2"}],
    )
    path = tmp_path / "mispriced.json"
    path.write_text(json.dumps(d))
    return str(path)


@pytest.fixture()
def no_enumeration(monkeypatch):
    # any stopping-time enumeration ends the request in an AssertionError;
    # every enumeration of the engine goes through this one name
    def refuse(*args, **kwargs):
        raise AssertionError("a stopping time was enumerated")

    monkeypatch.setattr(strategies, "enumerate_stopping_times", refuse)


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_price_sub(model_file, capsys):
    code, out, err = run(["price", "--model", model_file, "--side", "sub"], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["price"] == "1/3"
    assert doc["gap"] == "0/1"
    assert doc["side"] == "sub" and doc["n"] == 1
    assert doc["quasi_sure"] is False


@pytest.mark.parametrize("side", ["sub", "super"])
@pytest.mark.parametrize("fixture", ["model_file", "kernel_file"])
def test_price_report_states_each_value_once(fixture, side, request, capsys):
    # side, price and gap live at the top level alone: the nested report
    # holds the hedge and the measure, and its dual_ref the measure alone
    code, out, err = run(["price", "--model", request.getfixturevalue(fixture),
                          "--side", side], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert (doc["side"], doc["price"], doc["gap"]) == (side, "1/3", "0/1")
    report = doc["report"]
    assert not {"kind", "price", "gap"} & set(report)
    assert list(report["dual_ref"]) == ["measure"] and report["dual_ref"]["measure"]


def test_price_super(model_file, capsys):
    code, out, _ = run(["price", "--model", model_file, "--side", "super"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["price"] == "1/3" and doc["n"] == 2


def test_output_bytes_are_deterministic(model_file, capsys):
    _, first, _ = run(["price", "--model", model_file, "--side", "sub"], capsys)
    _, second, _ = run(["price", "--model", model_file, "--side", "sub"], capsys)
    assert first == second
    # compact separators and sorted keys
    assert ": " not in first and ", " not in first
    keys = list(json.loads(first))
    assert keys == sorted(keys)


def test_pretty_mode(model_file, capsys):
    code, out, err = run(["price", "--model", model_file, "--side", "sub", "--pretty"], capsys)
    assert code == 0
    assert out.startswith("{\n")
    assert "1/3" in err


def _keys(doc) -> set:
    """Every key of a parsed JSON report, at any depth."""
    if isinstance(doc, dict):
        return set(doc).union(*map(_keys, doc.values()))
    if isinstance(doc, list):
        return set().union(*map(_keys, doc))
    return set()


def test_solver_telemetry_stays_off_stdout(model_file, capsys):
    model = load_model(Path(model_file).read_bytes())
    for side, n in (("sub", model.N), ("super", model.N + 1)):
        argv = ["price", "--model", model_file, "--side", side]
        _, plain, _ = run(argv, capsys)
        code, pretty, err = run([*argv, "--pretty"], capsys)
        assert code == 0 and "lp" not in _keys(json.loads(plain))
        assert json.loads(pretty) == json.loads(plain)
        # the tableau of the same request, on the --pretty summary only
        report, _ = measures.price_with_dual(enlarge(model, n), side)
        assert f"LP {report.lp.rows} rows, {report.lp.cols} cols, {report.lp.pivots} pivots" in err
    # ftap's summary ends with the tableau of its slack LP
    argv = ["ftap", "--model", model_file]
    _, plain, _ = run(argv, capsys)
    code, pretty, err = run([*argv, "--pretty"], capsys)
    assert code == 0 and "lp" not in _keys(json.loads(plain))
    assert json.loads(pretty) == json.loads(plain)
    lp = measures.ftap_certificate(build_polytope(enlarge(model, model.N))).outcome
    assert err.endswith(f"; LP {lp.rows} rows, {lp.cols} cols, {lp.pivots} pivots\n")
    _, out, _ = run(["verify", "--models", "1", "--seed", "7"], capsys)
    doc = json.loads(out)
    assert doc["campaign"]["sections"]["kernel"] and "dp_lps" not in _keys(doc)


def test_out_flag_writes_file(model_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(["price", "--model", model_file, "--side", "sub",
                        "--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["price"] == "1/3"


@pytest.mark.parametrize("argv", [
    ["price", "--side", "sub"], ["ftap"], ["enlarge-dump"],
], ids=lambda argv: argv[0])
def test_out_into_missing_directory_exits_schema(argv, model_file, tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run([*argv, "--model", model_file, "--out", str(target)], capsys)
    assert code == 4 and out == ""
    assert "cannot write report" in err and "Traceback" not in err


def test_verify_out_into_missing_directory_runs_nothing(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(cli, "run_campaign", refuse)
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(["verify", "--models", "1", "--out", str(target)], capsys)
    assert code == 4 and out == "" and "cannot write report" in err
    # an existing directory cannot take the report either
    code, out, err = run(["verify", "--models", "1", "--out", str(tmp_path)], capsys)
    assert code == 4 and out == "" and "is a directory" in err


def test_out_that_cannot_be_opened_exits_schema(model_file, tmp_path, capsys):
    # the directory takes files, so the open itself fails: a file name
    # longer than the file system allows
    target = tmp_path / ("r" * 300)
    code, out, err = run(["ftap", "--model", model_file, "--out", str(target)], capsys)
    assert code == 4 and out == ""
    assert err.startswith("amhedge: schema error: cannot write report: ")
    assert os.strerror(errno.ENAMETOOLONG) in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--models", "0"],
    ["verify", "--models", "-2"],
], ids=lambda argv: "-".join(argv[0:1] + argv[-2:]))
def test_nonpositive_models_exits_schema(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:    # usage errors exit from the parser
        code = exc.code
    assert code == 4 and "positive" in capsys.readouterr().err


def test_ftap_holds(model_file, capsys):
    code, out, _ = run(["ftap", "--model", model_file], capsys)
    assert code == 0
    doc = json.loads(out)["classical"]
    assert doc["holds"] is True and doc["epsilon"] == "1/24"


@pytest.mark.parametrize("fixture, exit_code, epsilon", [
    ("model_file", 0, "1/24"), ("kernel_file", 0, "1/3"), ("mispriced_file", 2, "-1/6"),
])
def test_ftap_report_states_each_value_once(fixture, exit_code, epsilon, request, capsys):
    # the certificate is the measure alone: its slack is epsilon, and a row
    # by row ledger would restate the measure, the constants 1 and 0, the
    # quotes and a verdict that is true whenever a report is written
    path = request.getfixturevalue(fixture)
    code, out, err = run(["ftap", "--model", path], capsys)
    assert code == exit_code, err
    doc = json.loads(out)["classical"]
    assert doc["epsilon"] == epsilon
    assert list(doc["certificate"]) == ["paths"]
    # the measure and epsilon alone re-validate against the model
    model = load_model(Path(path).read_bytes())
    enl = enlarge(model, model.N)
    index = {ep.label: p for p, ep in enumerate(enl.epaths)}
    measure = {index[label]: rat(q) for label, q in doc["certificate"]["paths"].items()}
    pt = build_polytope(enl)
    assert all(row[-1] for row in pt.verdicts(measure, min_slack=rat(epsilon)))


def test_gamma_override_flips_ftap(model_file, capsys):
    # the short put's bid raised from 1/4 to 1/2 in the model file itself
    data = json.loads(Path(model_file).read_text())
    data["americans_short"][0]["price"] = "1/2"
    Path(model_file).write_text(json.dumps(data))
    code, out, _ = run(["ftap", "--model", model_file], capsys)
    assert code == 2
    doc = json.loads(out)["classical"]
    assert doc["holds"] is False and doc["epsilon"] == "-1/6"
    assert doc["arbitrage"]["found"] is True


def test_ftap_reads_a_gross_mispricing_off_one_lp(tmp_path, capsys, monkeypatch):
    # a call bid of 200 over a payoff of at most 123: selling it gains on
    # every path, and the slack LP's own duals are the witness, so ftap
    # solves that one LP and builds no arbitrage LP
    tableaus = []

    class Recording(lpmod._Tableau):
        def __init__(self, *args):
            super().__init__(*args)
            tableaus.append(self)

    def no_gain_lp(*args, **kwargs):
        raise AssertionError("ftap built a GainLP")

    monkeypatch.setattr(lpmod, "_Tableau", Recording)
    monkeypatch.setattr(hedging.GainLP, "__init__", no_gain_lp)
    data = binomial_put_book_dict(5, short_bid="200")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(["ftap", "--model", str(path)], capsys)
    assert code == 2 and len(tableaus) == 1
    doc = json.loads(out)["classical"]
    assert doc["holds"] is False and doc["epsilon"] == "-1781/9"
    assert doc["arbitrage"]["found"] is True and doc["arbitrage"]["gain"] == "3653689/18432"
    # the reported witness gains at least -s* = 1781/9 on every path
    model = load_model(json.dumps(data).encode())
    enl = enlarge(model, model.N)
    pt = build_polytope(enl)
    arb = measures.ftap_arbitrage(pt, measures.ftap_certificate(pt))
    assert arb.to_json(enl) == doc["arbitrage"]
    gains, den = evaluate_gain(enl, arb.strategy)
    assert min(gains.values()) >= Q(1781, 9) * den


def test_parser_built_once_keeps_no_override_between_requests(model_file, capsys):
    # main reuses one parser; one request's --side must not leak into the
    # next, whose report must match one made with a freshly built parser
    argv = ["price", "--model", model_file, "--side"]
    code, sub, _ = run([*argv, "sub"], capsys)
    assert code == 0 and json.loads(sub)["n"] == 1
    code, sup, _ = run([*argv, "super"], capsys)
    assert code == 0 and json.loads(sup)["n"] == 2
    assert run([*argv, "sub"], capsys) == (0, sub, "")
    assert cli._build_parser() is cli._build_parser()
    cli._build_parser.cache_clear()
    assert run([*argv, "super"], capsys) == (0, sup, "")
    # enlarge-dump's default side comes back after an explicit one
    dump = ["enlarge-dump", "--model", model_file]
    code, default, _ = run(dump, capsys)
    assert code == 0 and json.loads(default)["side"] == "sub"
    assert run([*dump, "--side", "super"], capsys)[0] == 0
    assert run(dump, capsys) == (0, default, "")


def test_cap_exit(capsys, monkeypatch):
    # no option reaches the fixed enumeration guard, so raise what it raises
    def over(*args, **kwargs):
        raise CapExceededError("stopping times", DEFAULT_ENUM_CAP + 1, DEFAULT_ENUM_CAP)

    monkeypatch.setattr(cli, "run_campaign", over)
    code, out, err = run(["verify", "--models", "1"], capsys)
    assert code == 3 and out == "" and "cap exceeded" in err


def test_price_enumerates_nothing_without_longs(tmp_path, capsys, no_enumeration):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(binomial_put_book_dict(3, short_bid="35/48")))
    code, out, err = run(["price", "--model", str(path), "--side", "sub"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["gap"] == "0/1" and doc["price"] == "52/27"
    # a longed American adds a Snell block, not one row per stopping time
    put = {"values": {"r": "0", "u": "0", "d": "1/2"}, "price": "1/2"}
    path.write_text(json.dumps(binomial_dict(americans_long=[put])))
    for argv in (["price", "--side", "sub"], ["price", "--side", "super"], ["ftap"]):
        code, out, err = run([*argv, "--model", str(path)], capsys)
        assert code == 0 and err == "", (argv, err)


@pytest.mark.parametrize("horizon, argv", [
    (2, ["price", "--side", "super"]),      # 371,461 stopping-time rows if enumerated
    (3, ["ftap"]),
], ids=["T2-price-super", "T3-ftap"])
def test_short_and_long_probe_markets(horizon, argv, tmp_path, capsys, no_enumeration):
    bid, ask = {2: ("5/9", "25/9"), 3: ("35/48", "10/3")}[horizon]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(binomial_put_book_dict(horizon, short_bid=bid, long_ask=ask)))
    code, out, err = run([*argv, "--model", str(path)], capsys)
    assert code == 0 and err == "", err
    doc = json.loads(out)
    if argv[0] == "price":
        assert doc["gap"] == "0/1"
    else:
        assert doc["classical"]["holds"] is True


def test_missing_model_file(capsys):
    code, _, err = run(["price", "--model", "/nonexistent.json", "--side", "sub"], capsys)
    assert code == 4 and "schema error" in err


def test_unparseable_model(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run(["ftap", "--model", str(bad)], capsys)
    assert code == 4 and "schema error" in err


def test_usage_error_exits_schema(model_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--model", model_file, "--side", "sideways"])
    assert exc.value.code == 4


@pytest.mark.parametrize("argv", [
    ["price", "--side", "sub", "--clock-weights", "skewed"],
    ["price", "--side", "sub", "--seed", "1"],
    ["ftap", "--seed", "1"],
    ["enlarge-dump", "--seed", "1"],
    ["verify", "--clock-weights", "skewed"],
    ["verify", "--cap", "5"],
    ["price", "--side", "sub", "--gamma-override", "0=1/2"],
    ["ftap", "--gamma-override", "0=1/2"],
    ["enlarge-dump", "--gamma-override", "0=1/2"],
    ["ftap", "--clock-weights", "skewed"],
    ["enlarge-dump", "--clock-weights", "uniform"],
], ids=lambda argv: "-".join(argv[0:1] + argv[-2:]))
def test_options_that_change_no_result_are_refused(argv, model_file, capsys):
    # a report reads its quotes from the model file and its clocks from the
    # one uniform law, only verify's campaign is seeded, and the enumeration
    # guard is fixed: no option may re-quote, re-weigh, re-seed or re-cap
    model = [] if argv[0] == "verify" else ["--model", model_file]
    with pytest.raises(SystemExit) as exc:
        main([*argv, *model])
    assert exc.value.code == 4
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


# each subcommand's option strings, in the order the parser adds them
CLI_SURFACE = {
    "price": ["--side", "--model", "--out", "--pretty"],
    "ftap": ["--model", "--out", "--pretty"],
    "verify": ["--seed", "--models", "--out", "--pretty"],
    "enlarge-dump": ["--side", "--model", "--out", "--pretty"],
}


def test_cli_surface():
    # every option is an input a report may depend on: a new one fails
    # here until this pin is edited on purpose
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    surface = {name: [s for a in p._actions if not isinstance(a, argparse._HelpAction)
                      for s in a.option_strings]
               for name, p in commands.choices.items()}
    assert surface == CLI_SURFACE


def test_property_violation_exit(model_file, capsys, monkeypatch):
    # price re-checks the measure's Snell value, looked up in amhedge.measures
    real = measures.snell_value
    monkeypatch.setattr(measures, "snell_value", lambda *a, **kw: real(*a, **kw) + 1)
    code, _, err = run(["price", "--model", model_file, "--side", "sub"], capsys)
    assert code == 5 and "property violation" in err


def _put(price):
    return {"values": {"r": "0", "u": "0", "d": "1/2"}, "price": price}


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(europeans=[{"payoff": {"u": "1", "d": "0"}, "price": 0.5}]),
    lambda d: d.update(europeans=[{"payoff": {"u": "1", "d": "0"}, "price": "1/0"}]),
    lambda d: d.update(americans_long=[_put(0.25)]),
    lambda d: d.update(americans_short=[_put("1/0")]),
    lambda d: d["weights"].update(u=0.5),
    lambda d: d["weights"].update(u="1/0"),
    lambda d: d.update(kernels={"r": [[0.5, "1/2"]]}),
    lambda d: d.update(kernels={"r": [["1/0", "1/2"]]}),
    lambda d: d["stock"].update(dim=True),
    lambda d: d["stock"]["values"].update(u=[2.0]),
    lambda d: d["claim"]["values"].update(u="1/0"),
])
def test_bad_numbers_exit_schema(mutate, tmp_path, capsys):
    data = binomial_dict()
    mutate(data)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    code, _, err = run(["ftap", "--model", str(path)], capsys)
    assert code == 4 and "schema error" in err


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(nodes=5),
    lambda d: d.update(stock=3),
    lambda d: d["stock"].update(values=[["1"], ["2"], ["1/2"]]),
    lambda d: d["claim"].update(values=["0", "1", "0"]),
    lambda d: d.update(claim=4),
    lambda d: d.update(europeans=[7]),
    lambda d: d.update(europeans=[{"payoff": ["1", "0"], "price": "1/3"}]),
    lambda d: d.update(americans_short=3),
    lambda d: d.update(kernels=[["1/2", "1/2"]]),
    lambda d: d.update(kernels={"r": [5]}),
])
def test_malformed_structure_exit_schema(mutate, tmp_path, capsys):
    data = binomial_dict()
    mutate(data)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    code, _, err = run(["ftap", "--model", str(path)], capsys)
    assert code == 4 and "schema error" in err


def _beyond_first(data):
    # listed before its parent u, so the horizon check meets it first
    data["nodes"].insert(0, {"id": "x", "time": 2, "parent": "u"})


@pytest.mark.parametrize("command, mutate, message", [
    ("ftap", lambda d: d.update(horizon=-1), "horizon must be >= 0"),
    ("ftap", lambda d: d["nodes"][0].update(time=1), "root must sit at time 0"),
    ("ftap", lambda d: d["nodes"].append({"id": "x", "time": 2, "parent": "u"}),
     "terminal node 'u' has children"),
    ("ftap", _beyond_first, "node 'x' sits beyond the horizon"),
    ("ftap", lambda d: d.update(kernels={"r": [["1/3", "1/3", "1/3"]]}),
     "kernel at 'r' has 3 entries for 2 children"),
    ("ftap", lambda d: d.update(europeans=[{"payoff": {"u": "1", "d": "0"}, "price": True}]),
     "bad rational in europeans[0].price: booleans are not rationals"),
    ("sub", lambda d: d.pop("claim"), "model has no claim"),
    ("super", lambda d: d.pop("claim"), "model has no claim"),
], ids=["negative-horizon", "root-at-time-1", "terminal-with-child", "beyond-horizon-first",
        "kernel-too-long", "boolean-price", "sub-without-claim", "super-without-claim"])
def test_malformed_model_exit_schema_with_its_message(command, mutate, message, tmp_path, capsys):
    data = binomial_dict()
    mutate(data)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    argv = ["ftap"] if command == "ftap" else ["price", "--side", command]
    code, out, err = run([*argv, "--model", str(path)], capsys)
    assert (code, out, err) == (4, "", f"amhedge: schema error: {message}\n")


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    json.dumps(binomial_dict()).replace('"horizon": 1', '"horizon": 1' + "0" * 5000),
], ids=["deep-nesting", "5001-digit-integer"])
def test_unloadable_json_exit_schema(text, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(text)
    code, _, err = run(["ftap", "--model", str(path)], capsys)
    assert code == 4 and "schema error" in err


def test_deep_chain_runs_without_recursion(tmp_path, capsys):
    T = 2000
    nodes = [{"id": "n0", "time": 0}]
    nodes += [{"id": f"n{t}", "time": t, "parent": f"n{t - 1}"} for t in range(1, T + 1)]
    data = {
        "horizon": T,
        "nodes": nodes,
        "stock": {"dim": 1, "values": {f"n{t}": ["1"] for t in range(T + 1)}},
        "claim": {"values": {f"n{t}": str(t % 2) for t in range(T + 1)}},
        "weights": {f"n{T}": "1"},
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(data))
    assert sys.getrecursionlimit() < T
    code, _, err = run(["ftap", "--model", str(path)], capsys)
    assert code == 0, err
    code, out, err = run(["price", "--model", str(path), "--side", "sub"], capsys)
    assert code == 0, err
    assert json.loads(out)["price"] == "1/1"


def test_lp_self_check_failure_exit(model_file, capsys, monkeypatch):
    def broken(lp):
        raise LPInternalError("objective mismatch")

    # price solves its one LP, the measure LP, in measures
    monkeypatch.setattr(measures, "solve", broken)
    code, _, err = run(["price", "--model", model_file, "--side", "sub"], capsys)
    assert code == 5 and "LP self-check failed" in err


def test_enlarge_dump(model_file, capsys):
    code, out, _ = run(["enlarge-dump", "--model", model_file, "--side", "sub"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 1 and doc["horizon"] == 1
    assert len(doc["enodes"]) == 6 and len(doc["paths"]) == 4
    assert doc["children"]["r|0"] == ["u|0", "d|0"]
    # each path's weight carries the clock mass (T+1)^-n: no clock section restates it
    assert "clock_dist" not in doc
    base = load_model(Path(model_file).read_bytes()).weights
    clock_mass = Q(1, (doc["horizon"] + 1) ** doc["n"])
    assert [p["weight"] for p in doc["paths"]] == [
        rat_str(base[p["base_leaf"]] * clock_mass) for p in doc["paths"]]


def test_robust_model_routes_to_quasi_sure(kernel_file, capsys):
    code, out, _ = run(["price", "--model", kernel_file, "--side", "super"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["quasi_sure"] is True and doc["price"] == "1/3"
    code, out, _ = run(["ftap", "--model", kernel_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["robust"]["holds"] is True and doc["robust"]["epsilon"] == "1/3"


def test_ftap_decides_8192_selectors_in_under_a_second(tmp_path, capsys):
    path = tmp_path / "trinomial3.json"
    path.write_text(json.dumps(trinomial_kernels_dict(3)))
    t0 = time.monotonic()
    code, out, err = run(["ftap", "--model", str(path)], capsys)
    elapsed = time.monotonic() - t0
    assert code == 0, err
    robust = json.loads(out)["robust"]
    assert robust["holds"] is True and robust["selectors"] == 8192
    assert robust["epsilon"] == "1/108" and robust["supported_paths"] == 32
    assert elapsed < 1.0


@pytest.mark.parametrize("name", ["binomial_kernel", "trinomial_two_kernels"])
def test_full_support_robust_slack_is_classical(name, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(emit_model(CAMPAIGN_MODELS[name]())))
    code, out, err = run(["ftap", "--model", str(path)], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["robust"]["supported_paths"] == doc["classical"]["paths"]
    assert doc["robust"]["epsilon"] == doc["classical"]["epsilon"]


def _kernel_model_dict(name):
    if name == "trinomial_kernels_3":
        return trinomial_kernels_dict(3)
    return emit_model(CAMPAIGN_MODELS[name]())


@pytest.mark.parametrize("side", ["sub", "super"])
@pytest.mark.parametrize("name", ["binomial_kernel", "trinomial_two_kernels",
                                  "trinomial_kernels_3"])
def test_kernel_price_reports_its_supported_measure(name, side, tmp_path, capsys):
    data = _kernel_model_dict(name)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    code, out, err = run(["price", "--model", str(path), "--side", side], capsys)
    assert code == 0, err
    doc = json.loads(out)
    dual = doc["report"]["dual_ref"]
    # the reported measure lies in the supported polytope rebuilt from the model
    enl = enlarge(load_model(data), doc["n"])
    space = supported_space(enl)
    index = {ep.label: p for p, ep in enumerate(space.epaths)}
    assert dual["measure"] and set(dual["measure"]) <= set(index)
    measure = {index[label]: rat(q) for label, q in dual["measure"].items()}
    assert doc["report"]["paths"] == space.num_paths == len(supported_paths(enl))
    bad = [row for row in build_polytope(space).verdicts(measure) if not row[-1]]
    assert not bad, bad


def test_verify_small_run(model_file, capsys):
    argv = ["verify", "--models", "3", "--seed", "7"]
    code, first, _ = run(argv, capsys)
    assert code == 0
    _, second, _ = run(argv, capsys)
    assert first == second
    doc = json.loads(first)
    assert doc["campaign"]["ok"] is True and doc["campaign"]["seed"] == 7
    # re-recorded only under the ROADMAP item 1 protocol
    assert hashlib.sha256(first.encode()).hexdigest() == VERIFY_SMALL_SHA256


def test_verify_report_states_each_value_once(capsys):
    # one record per unit: the shift grid once, the chain ends only as
    # duality's prices, no constant of the code and no tally of the sections
    models = 3
    code, out, err = run(["verify", "--models", str(models), "--seed", "7"], capsys)
    assert code == 0, err
    report = json.loads(out)["campaign"]
    assert set(report) == {"seed", "models", "eps_grid", "sections", "ok"}
    sections = report["sections"]
    assert set(sections) == {"main", "adversarial", "divisibility", "kernel"}
    gone = {"lower", "upper", "bracket_lam", "grid", "sna_grid", "constant_claim",
            "monotone", "zero_clock_iso"}
    assert not gone & _keys(sections)
    assert report["eps_grid"] == sorted(report["eps_grid"], key=rat)
    records = [rec for recs in sections.values() for rec in recs]
    assert all(len(rec["na"]) == len(report["eps_grid"]) for rec in records if "na" in rec)
    assert all("na" in rec for name in ("main", "adversarial", "divisibility")
               for rec in sections[name])
    # the first scaled(20) kernel units carry their minimax instance
    with_minimax = max(3, models * 20 // 50)
    assert ["minimax" in rec for rec in sections["kernel"]] == [
        i < with_minimax for i in range(len(sections["kernel"]))]


def test_readme_model_example_prices(binomial_short_put, tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block)
    code, out, err = run(["price", "--model", str(path), "--side", "sub"], capsys)
    assert code == 0, err
    assert json.loads(out)["quasi_sure"] is True
    # the README's dual_ref example is price --side sub on binomial_short_put
    path.write_text(json.dumps(emit_model(binomial_short_put)))
    code, out, err = run(["price", "--model", str(path), "--side", "sub"], capsys)
    assert code == 0, err
    dual_ref = json.loads(out)["report"]["dual_ref"]
    [example] = [line for line in readme.splitlines() if line.startswith('"dual_ref": ')]
    assert example == f'"dual_ref": {json.dumps(dual_ref, sort_keys=True)}'


def test_readme_model_example_with_a_misspelled_book_exits_schema(tmp_path, capsys):
    # read without its shorted put, the misspelled model would price as if
    # it had none
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block.replace('"americans_short"', '"american_short"'))
    code, out, err = run(["price", "--model", str(path), "--side", "sub"], capsys)
    assert code == 4 and out == ""
    assert "schema error" in err and "unknown key 'american_short' in model" in err


def test_module_entry_point(model_file):
    proc = subprocess.run(
        [sys.executable, "-m", "amhedge.cli", "price", "--model", model_file,
         "--side", "sub"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["price"] == "1/3"


def test_out_of_memory_exits_with_the_cap_code(model_file, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "enlarge", exhausted)
    code, out, err = run(["ftap", "--model", model_file], capsys)
    assert code == cli.EXIT_CAP
    assert out == ""
    assert err == "amhedge: cap exceeded: out of memory\n"


# an address-space limit under which a one-period ftap still runs, while the
# 6-period binomial with two shorted calls runs out of memory within a second
_MEMORY_LIMIT = 80 * 2**20


def _ftap_under_memory_limit(path: Path) -> subprocess.CompletedProcess:
    resource = pytest.importorskip("resource")

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_LIMIT, _MEMORY_LIMIT))

    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "amhedge.cli", "ftap", "--model", str(path)],
        capture_output=True, text=True, preexec_fn=limit, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


def test_out_of_memory_under_an_address_space_limit(tmp_path):
    small = tmp_path / "small.json"
    small.write_text(json.dumps(binomial_dict()))
    calibration = _ftap_under_memory_limit(small)
    if calibration.returncode != 0:
        pytest.skip(f"a one-period ftap does not run under {_MEMORY_LIMIT >> 20} MB here")
    big = binomial_put_book_dict(6, short_bid="1/8")
    big["americans_short"] *= 2
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big))
    proc = _ftap_under_memory_limit(path)
    assert proc.returncode == cli.EXIT_CAP, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "amhedge: cap exceeded: out of memory\n"


# -- verify's worker processes --------------------------------------------------


def _in_workers(monkeypatch, tmp_path, act=None, workers=2) -> Path:
    """Run verify's units on ``workers`` processes, this one and forked
    children; log the pid of every process that draws a market, and call
    ``act`` in each divisibility check a child runs.

    Units are handed out as processes come free, so each process holds its
    first divisibility check until another process has started one too:
    both this process and a child check a divisibility market.
    """
    monkeypatch.setattr(campaign, "_worker_count", lambda units: min(workers, units))
    parent, log = os.getpid(), tmp_path / "pids"
    draw, check = campaign.random_sna_model, campaign.check_divisibility

    def drawing(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return draw(*args, **kwargs)

    def checking(model):
        here, there = ("parent", "child") if os.getpid() == parent else ("child", "parent")
        (tmp_path / here).touch()
        while not (tmp_path / there).exists():
            time.sleep(0.005)
        if act is not None and here == "child":
            act()
        return check(model)

    monkeypatch.setattr(campaign, "random_sna_model", drawing)
    monkeypatch.setattr(campaign, "check_divisibility", checking)
    return log


def _verify_within(seconds: int, capsys) -> tuple[int, str, str]:
    # a child that died must not hang verify: fail the test instead
    def expired(signum, frame):
        raise TimeoutError(f"verify did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        return run(["verify", "--models", "1", "--seed", "3"], capsys)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_reaped(pid: int) -> None:
    # neither a child still to be waited for nor a process at all
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def _assert_no_worker_left(log: Path) -> set[int]:
    pids = set(map(int, log.read_text().split()))
    children = pids - {os.getpid()}
    assert children and os.getpid() in pids, "units did not run both here and in a child"
    for pid in children:
        _assert_reaped(pid)
    return children


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="verify forks its workers")


@needs_fork
def test_verify_leaves_no_worker_running(tmp_path, monkeypatch, capsys):
    log = _in_workers(monkeypatch, tmp_path)
    code, out, err = _verify_within(60, capsys)
    assert code == 0 and json.loads(out)["campaign"]["ok"] is True
    _assert_no_worker_left(log)


@needs_fork
def test_cap_exceeded_in_a_worker_exits_with_the_cap_code(tmp_path, monkeypatch, capsys):
    def over():
        raise CapExceededError("stopping times", DEFAULT_ENUM_CAP + 1, DEFAULT_ENUM_CAP)

    log = _in_workers(monkeypatch, tmp_path, over)
    code, out, err = _verify_within(60, capsys)
    assert code == cli.EXIT_CAP and out == ""
    assert err == (f"amhedge: cap exceeded: stopping times needs {DEFAULT_ENUM_CAP + 1} "
                   f"items, cap is {DEFAULT_ENUM_CAP}\n")
    _assert_no_worker_left(log)


@needs_fork
def test_killed_worker_exits_with_the_cap_code(tmp_path, monkeypatch, capsys):
    # what the kernel's out-of-memory killer does: no exception, no result
    log = _in_workers(monkeypatch, tmp_path, lambda: os.kill(os.getpid(), signal.SIGKILL))
    code, out, err = _verify_within(60, capsys)
    assert code == cli.EXIT_CAP and out == ""
    assert err == "amhedge: cap exceeded: out of memory (a campaign worker process died)\n"
    _assert_no_worker_left(log)


def _fork_fails_after(monkeypatch, forks: int) -> list[int]:
    """Let the first ``forks`` forks happen and fail the next for want of a
    process slot; the pids forked are listed in the list returned."""
    real, forked = os.fork, []

    def fork():
        if len(forked) == forks:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        pid = real()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


@needs_fork
def test_failed_fork_runs_the_units_in_process(monkeypatch, capsys):
    monkeypatch.setattr(campaign, "_worker_count", lambda units: 1)
    expected = run(["verify", "--models", "1", "--seed", "3"], capsys)
    # two workers are this process and one child, whose fork fails
    monkeypatch.setattr(campaign, "_worker_count", lambda units: min(2, units))
    forked = _fork_fails_after(monkeypatch, 0)
    assert _verify_within(60, capsys) == expected
    assert forked == []


@needs_fork
def test_second_failed_fork_leaves_its_units_to_the_others(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(campaign, "_worker_count", lambda units: 1)
    expected = run(["verify", "--models", "1", "--seed", "3"], capsys)
    # three workers: the first child forks, the second finds no process slot
    log = _in_workers(monkeypatch, tmp_path, workers=3)
    forked = _fork_fails_after(monkeypatch, 1)
    assert _verify_within(60, capsys) == expected
    assert len(forked) == 1 and _assert_no_worker_left(log) == set(forked)
