"""Re-check the arbitrage witness of ``ftap`` reports from the JSON alone.

For each MODEL REPORT pair the script enlarges the model, rebuilds the
semi-static strategy that the report's ``classical.arbitrage.strategy``
spells out (nodes by label), and runs ``hedging.check_hedge`` on it: the
strategy must gain at least 0 on every path, and at least -epsilon when
the report's epsilon is negative.  The expected gain under the model's
path weights must equal the reported ``gain``.  One line per report; the
exit code is 1 when a report fails or carries no witness.

    PYTHONPATH=src python tools/check_ftap_witness.py MODEL REPORT [MODEL REPORT ...]
"""
from __future__ import annotations

import json
import sys

from amhedge.enlarged import enlarge
from amhedge.errors import PropertyViolation
from amhedge.hedging import SemiStaticStrategy, check_hedge
from amhedge.market import load_model
from amhedge.rationals import ONE, ZERO, Q, rat, rat_str


def check(model_path: str, report_path: str) -> str:
    with open(model_path, "rb") as fh:
        model = load_model(fh.read())
    with open(report_path, encoding="utf-8") as fh:
        doc = json.load(fh)["classical"]
    arb = doc.get("arbitrage") or {}
    if not arb.get("found"):
        raise PropertyViolation("no arbitrage witness in the report")
    enl = enlarge(model, model.N)
    node = {n.label: v for v, n in enumerate(enl.enodes)}
    spec = arb["strategy"]
    strat = SemiStaticStrategy(
        stock={(node[label], int(d)): rat(h)
               for label, dims in spec["stock"].items() for d, h in dims.items()},
        long_european=[rat(a) for a in spec["long_european"]],
        long_american=[rat(b) for b in spec["long_american"]],
        short_american=[rat(c) for c in spec["short_american"]],
        liquidation=[{node[label]: rat(m) for label, m in nu.items()}
                     for nu in spec["liquidation"]],
    )
    eps = rat(doc["epsilon"]) if doc["epsilon"] is not None else None
    floor = -eps if eps is not None and eps < ZERO else ZERO
    gains, den = check_hedge(enl, strat, ONE, -floor, [ZERO] * enl.num_paths,
                             kind="reported witness")
    expected = sum((enl.weights[p] * Q(g, den) for p, g in gains.items()), ZERO)
    if expected != rat(arb["gain"]):
        raise PropertyViolation(f"expected gain {rat_str(expected)} != reported {arb['gain']}")
    least = min(Q(g, den) for g in gains.values())
    return (f"epsilon {doc['epsilon']}, gain {arb['gain']}, {enl.num_paths} paths, "
            f"least path gain {rat_str(least)} >= {rat_str(floor)}: ok")


def main(argv: list[str]) -> int:
    if not argv or len(argv) % 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    failed = 0
    for model_path, report_path in zip(argv[::2], argv[1::2]):
        try:
            line = check(model_path, report_path)
        except (PropertyViolation, ValueError, KeyError) as exc:
            line, failed = f"FAILED: {exc}", failed + 1
        print(f"{report_path}: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
