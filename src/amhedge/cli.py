"""Command-line front end.

Four commands: price (sub/super hedging with duals), ftap (pricing
consistency certificate, robust variant when the model carries
kernels), verify (the randomized property campaign), and enlarge-dump
(the enlarged space as JSON).  All reports are deterministic JSON.
A report of price, ftap or enlarge-dump depends only on the model
bytes, the command and --side; a verify report on --seed and --models.

Exit codes: 0 success, 2 domain-level no-arbitrage failure, 3 cap
exceeded (the fixed stopping-time guard, or out of memory; a child
process of verify that dies without a result, as one the kernel's
out-of-memory killer ends, counts as out of memory), 4 schema or usage
error, 5 property violation or failed LP self-check (an internal
cross-check failed, i.e. a bug).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .campaign import run_campaign
from .enlarged import enlarge
from .errors import CapExceededError, ModelFormatError, PropertyViolation, SnaFailure
from .lp import LPInternalError, LPOutcome
from .market import MarketModel, load_model
from .measures import build_polytope, ftap_arbitrage, ftap_certificate, price_with_dual
from .rationals import rat_str
from .robust import num_selectors, supported_space

EXIT_OK = 0
EXIT_SNA = 2
EXIT_CAP = 3
EXIT_SCHEMA = 4
EXIT_PROPERTY = 5


class _Parser(argparse.ArgumentParser):
    # usage problems are schema errors, not domain outcomes
    def error(self, message):
        self.exit(EXIT_SCHEMA, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise ValueError(f"{value} is not positive")
    return value


_positive_int.__name__ = "positive integer"


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parsing leaves the parser as it was
    parser = _Parser(prog="amhedge", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--pretty", action="store_true",
                       help="indent the JSON and add a text summary on stderr")

    p_price = sub.add_parser("price", help="sub/super hedging price with its dual")
    p_price.add_argument("--side", choices=["sub", "super"], required=True)
    common(p_price)

    p_ftap = sub.add_parser("ftap", help="strict no-arbitrage certificate")
    common(p_ftap)

    p_verify = sub.add_parser("verify", help="randomized property campaign")
    p_verify.add_argument("--seed", type=int, default=0, help="campaign seed")
    p_verify.add_argument("--models", type=_positive_int, default=50,
                          help="size of the main corpus")
    common(p_verify, model=False)

    p_dump = sub.add_parser("enlarge-dump", help="emit the enlarged space as JSON")
    p_dump.add_argument("--side", choices=["sub", "super"], default="sub",
                        help="sub: n = N, super: n = N + 1")
    common(p_dump)
    return parser


# -- plumbing -------------------------------------------------------------------


def _load(args) -> MarketModel:
    try:
        with open(args.model, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}") from exc
    return load_model(text)


def _config(args) -> dict:
    # the options a result can depend on; the model is known by its bytes,
    # not by the path it was read from
    doc = {"command": args.command}
    if hasattr(args, "side"):
        doc["side"] = args.side
    return doc


def _emit(doc: dict, args) -> None:
    if args.pretty:
        body = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        body = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            raise ModelFormatError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(body)


def _say(args, message: str) -> None:
    if args.pretty:
        print(message, file=sys.stderr)


# -- commands -------------------------------------------------------------------


def cmd_price(args) -> int:
    model = _load(args)
    n = model.N if args.side == "sub" else model.N + 1
    doc = _config(args)
    doc["n"] = n
    doc["quasi_sure"] = bool(model.kernels)
    enl = enlarge(model, n)
    if model.kernels:
        enl = supported_space(enl)
    report, _ = price_with_dual(enl, args.side)
    doc["report"] = report.to_json(enl)
    doc["price"] = rat_str(report.price)
    doc["gap"] = rat_str(report.gap)
    _emit(doc, args)
    lp: LPOutcome = report.lp
    _say(args, f"{args.side}-hedging price {doc['price']} (duality gap {doc['gap']}); "
               f"LP {lp.rows} rows, {lp.cols} cols, {lp.pivots} pivots")
    return EXIT_OK


def cmd_ftap(args) -> int:
    model = _load(args)
    enl = enlarge(model, model.N)
    pt = build_polytope(enl)
    cert = ftap_certificate(pt)
    doc = _config(args)
    doc["n"] = model.N
    doc["classical"] = {
        "holds": cert.holds,
        "epsilon": rat_str(cert.slack) if cert.slack is not None else None,
        "certificate": cert.to_json(enl),
        "enodes": len(enl.enodes),
        "paths": enl.num_paths,
    }
    if not cert.holds:
        doc["classical"]["arbitrage"] = ftap_arbitrage(pt, cert).to_json(enl)
    verdict = cert
    if model.kernels:
        space = supported_space(enl)
        # kernels that support every path leave the classical LP
        if space is not enl:
            verdict = ftap_certificate(build_polytope(space))
        doc["robust"] = {
            "holds": verdict.holds,
            "epsilon": rat_str(verdict.slack) if verdict.slack is not None else None,
            "selectors": num_selectors(model),
            "supported_paths": space.num_paths,
        }
    _emit(doc, args)
    which = "robust" if model.kernels else "classical"
    eps = doc.get("robust", doc["classical"])["epsilon"]
    lp: LPOutcome = verdict.outcome
    _say(args, f"{which} strict no-arbitrage "
               f"{'holds' if verdict.holds else 'fails'} (slack {eps}); "
               f"LP {lp.rows} rows, {lp.cols} cols, {lp.pivots} pivots")
    return EXIT_OK if verdict.holds else EXIT_SNA


def cmd_verify(args) -> int:
    progress = (lambda msg: print(msg, file=sys.stderr)) if args.pretty else None
    report = run_campaign(args.seed, models=args.models, progress=progress)
    doc = _config(args)
    doc["campaign"] = report
    _emit(doc, args)
    sections = report["sections"]
    counts = ", ".join(f"{name}={len(recs)}" for name, recs in sections.items())
    gaps = sum(rec["strict_upper"] for rec in sections["main"])
    _say(args, f"campaign ok: {counts}; strict chain gaps {gaps} in the main corpus")
    return EXIT_OK


def cmd_enlarge_dump(args) -> int:
    model = _load(args)
    n = model.N if args.side == "sub" else model.N + 1
    enl = enlarge(model, n)
    doc = _config(args)
    doc["n"] = n
    doc["horizon"] = enl.horizon
    doc["enodes"] = [
        {
            "label": node.label,
            "base": node.base,
            "time": node.time,
            "status": ["*" if s is None else s for s in node.status],
        }
        for node in enl.enodes
    ]
    doc["children"] = {
        enl.enode(v).label: [enl.enode(c).label for c in kids]
        for v, kids in sorted(enl.children.items())
    }
    doc["roots"] = [enl.enode(r).label for r in enl.roots]
    doc["paths"] = [
        {
            "label": ep.label,
            "base_leaf": model.tree.paths[ep.base_index][-1],
            "clocks": list(ep.clocks),
            "nodes": [enl.enode(v).label for v in ep.node_seq],
            "weight": rat_str(enl.weights[i]),
        }
        for i, ep in enumerate(enl.epaths)
    ]
    _emit(doc, args)
    _say(args, f"enlarged space: n={n}, {len(enl.enodes)} nodes, {enl.num_paths} paths")
    return EXIT_OK


_COMMANDS = {
    "price": cmd_price,
    "ftap": cmd_ftap,
    "verify": cmd_verify,
    "enlarge-dump": cmd_enlarge_dump,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # fail before any work when the report's directory cannot take it
        folder = os.path.dirname(args.out or "") or "."
        if args.out and not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ModelFormatError(f"cannot write report: {folder!r} is not a writable directory")
        if args.out and os.path.isdir(args.out):
            raise ModelFormatError(f"cannot write report: {args.out!r} is a directory")
        return _COMMANDS[args.command](args)
    except ModelFormatError as exc:
        print(f"amhedge: schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except CapExceededError as exc:
        print(f"amhedge: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except SnaFailure as exc:
        print(f"amhedge: no-arbitrage failure: {exc}", file=sys.stderr)
        return EXIT_SNA
    except PropertyViolation as exc:
        print(f"amhedge: property violation: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except LPInternalError as exc:
        print(f"amhedge: LP self-check failed: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"amhedge: cap exceeded: out of memory{detail}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
