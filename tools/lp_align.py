"""Align the LPs two source trees solve for the same CLI requests.

Each request runs once per tree, in a subprocess that imports ``amhedge``
from that tree's ``src``.  Every solve is recorded as the fingerprint
tests record it: the LP as asked, at ``amhedge.lp._Presolve``, and the
pivots, at ``amhedge.lp._Tableau``; the outcome adds the status and the
value.  LPs are paired in solve order.  Per request the script counts the
pairs that agree with names (sense, objective, rows with their names,
relations, right-hand sides and coefficients, variables with their names
and signs, status, value and pivot sequence), the pairs that agree
once row and variable names are ignored, and the pairs that agree on all
but the pivot sequence once names are ignored (``equal_but_pivots``: the
same LP, status and value reached by other pivots), and how many of
those start at a feasible origin on both trees (``from_feasible_origin``,
read off the tableau's ``origin_feasible``).  Where one tree
solves more LPs than the other, solve order pairs every LP after the
first dropped one with the wrong partner, so the request also lists
the LPs only one side solves: the two trees' LPs compared as multisets
of fingerprints without names or pivots, with status and value, each
line giving how many, the sense, the size, the outcome and the name of
the LP's first row.  Where some pairs differ once names are ignored, the
request also lists those pairs grouped by the name of the LP's first row
with its digits dropped (``nonneg[p#]``), with each side's status and the
sign of its value.

    python tools/lp_align.py BASE HEAD --fixtures --verify 3 5

BASE and HEAD are checkouts of the repository.  ``--fixtures`` runs
price --side sub, price --side super and ftap on every model that
``tests/test_report_bytes.py`` of HEAD pins; ``--verify SEED`` runs
``verify --models 1 --seed SEED``; ``--request "ARGS"`` runs any other
request.  ``--show K`` prints the first K differing row or variable
names of each request.  The exit code is 1 when some pair differs once
names are ignored.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

FIXTURE_COMMANDS = {
    "price-sub": ["price", "--side", "sub"],
    "price-super": ["price", "--side", "super"],
    "ftap": ["ftap"],
}


def _worker(tree: str, argv: list[str]) -> None:
    """Run one request on ``tree`` and print its solves as JSON."""
    sys.path.insert(0, str(Path(tree) / "src"))
    from amhedge import cli, lp
    from amhedge.rationals import rat_str

    solves: list[dict] = []
    origins: list[bool | None] = []  # per solve: does its tableau start at a feasible origin

    def rational(row):
        """A row's coefficients and rhs as rationals; a tree that stores its
        rows as rationals has no ``rational`` view and gives them as they are."""
        return row.rational() if hasattr(row, "rational") else (row.coeffs, row.rhs)

    def terms(coeffs):
        return sorted((j, rat_str(v)) for j, v in coeffs.items())

    class Asked(lp._Presolve):
        def __init__(self, prog, *args):
            objective = prog.objective
            solves.append({
                "sense": prog.sense,
                "objective": terms(objective if isinstance(objective, dict)
                                   else objective.rational()[0]),
                "rows": [[r.name, r.rel, rat_str(rational(r)[1]), terms(rational(r)[0])]
                         for r in prog.rows],
                "vars": [[name, bool(pos)] for name, pos in zip(prog.var_names, prog.nonneg)],
                "pivots": [],
            })
            super().__init__(prog, *args)

    class Recording(lp._Tableau):
        def __init__(self, *args):
            super().__init__(*args)
            origins.append(getattr(self, "origin_feasible", None))

        def pivot(self, r, c):
            solves[-1]["pivots"].append([r, c])
            super().pivot(r, c)

    made = lp.LPOutcome

    def outcome(*args, **kwargs):
        # a wrapper, not a subclass: a tree's LPOutcome may be a dataclass or a NamedTuple
        out = made(*args, **kwargs)
        solves[-1]["status"] = out.status
        solves[-1]["value"] = None if out.value is None else rat_str(out.value)
        return out

    lp._Presolve, lp._Tableau, lp.LPOutcome = Asked, Recording, outcome
    # verify runs some campaign units in forked children when it may use
    # more than one CPU; on one CPU every solve happens here, where it is recorded
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    stdout = sys.stdout
    sys.stdout = open(os.devnull, "w")
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.close()
        sys.stdout = stdout
    json.dump({"exit": code, "solves": solves, "origins": origins}, stdout)


def _write_fixtures(head: Path, folder: Path,
                    commands: dict[str, list[str]] = FIXTURE_COMMANDS) -> list[tuple[str, list[str]]]:
    """Model files of HEAD's pinned fixtures, and the requests on each."""
    script = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "import conftest\n"
        "from test_report_bytes import CAMPAIGN_MODELS, CONFTEST_MODELS\n"
        "from amhedge.market import emit_model, load_model\n"
        "folder = Path(sys.argv[1])\n"
        "for name in CONFTEST_MODELS:\n"
        "    model = load_model(getattr(conftest, name + '_dict')())\n"
        "    (folder / f'{name}.json').write_text(json.dumps(emit_model(model)))\n"
        "for name, factory in CAMPAIGN_MODELS.items():\n"
        "    (folder / f'{name}.json').write_text(json.dumps(emit_model(factory())))\n"
        "print(json.dumps([*CONFTEST_MODELS, *CAMPAIGN_MODELS]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(head / "tests"), str(head / "src")])}
    names = json.loads(subprocess.run([sys.executable, "-B", "-c", script, str(folder)], env=env,
                                      check=True, capture_output=True, text=True).stdout)
    return [(f"{name} {cmd}", [args[0], "--model", str(folder / f"{name}.json"), *args[1:]])
            for name in names for cmd, args in commands.items()]


def _run(tree: Path, argv: list[str]) -> dict:
    out = subprocess.run([sys.executable, "-B", __file__, "--worker", str(tree), *argv],
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def _unnamed(solve: dict) -> dict:
    return {**solve, "rows": [row[1:] for row in solve["rows"]],
            "vars": [pos for _, pos in solve["vars"]]}


def _names(solve: dict) -> list[str]:
    return [row[0] for row in solve["rows"]] + [name for name, _ in solve["vars"]]


def unpaired(base: dict, head: dict) -> list[str]:
    """The LPs only one tree solves, and how many LPs both solve take
    other pivots, with the LPs compared as multisets without names."""
    first: dict[str, dict] = {}
    pivots: list[dict[str, Counter]] = []
    for run in (base, head):
        keyed: dict[str, Counter] = {}
        for solve in run["solves"]:
            key = json.dumps(_unnamed({**solve, "pivots": None}))
            first.setdefault(key, solve)
            keyed.setdefault(key, Counter())[json.dumps(solve["pivots"])] += 1
        pivots.append(keyed)
    counts = [Counter({key: sum(seqs.values()) for key, seqs in keyed.items()})
              for keyed in pivots]
    shared = counts[0] & counts[1]
    moved = sum(n - sum((pivots[0][key] & pivots[1][key]).values()) for key, n in shared.items())
    lines = [f"    both: {sum(shared.values())} LPs, {moved} of them by other pivots"]
    outcomes = []
    for label, mine, theirs in (("BASE", *counts), ("HEAD", *reversed(counts))):
        only = mine - theirs
        shown: Counter = Counter()
        reached: Counter = Counter()
        for key, n in only.items():
            solve = first[key]
            row = solve["rows"][0][0] if solve["rows"] else "-"
            outcome = f"{solve['status']} {solve['value']}  (first row {row})"
            shown[f"{solve['sense']} {len(solve['rows'])} rows {len(solve['vars'])} vars:"
                  f" {outcome}"] += n
            reached[f"{solve['sense']} {outcome}"] += n
        lines.append(f"    only {label}: {sum(only.values())} LPs")
        lines += [f"      {n} x {line}" for line, n in sorted(shown.items())]
        outcomes.append(reached)
    missing = outcomes[1] - outcomes[0]
    lines.append("    outcomes only HEAD reaches (sense, status, value, first row): "
                 + ("; ".join(f"{n} x {line}" for line, n in sorted(missing.items()))
                    or "none"))
    return lines


def differing(base: dict, head: dict) -> list[str]:
    """The pairs that differ once names are ignored, counted per first row
    (digits dropped) and per status and value sign of each side."""
    def outcome(solve: dict) -> str:
        value = None if solve["value"] is None else Fraction(solve["value"])
        sign = "none" if value is None else "0" if value == 0 else "<0" if value < 0 else ">0"
        return f"{solve['status']} {sign}"

    def first_row(solve: dict) -> str:
        return re.sub(r"\d+", "#", solve["rows"][0][0]) if solve["rows"] else "-"

    groups = Counter()
    for a, b in zip(base["solves"], head["solves"]):
        if _unnamed(a) != _unnamed(b):
            rows = sorted({first_row(a), first_row(b)})
            groups[f"{' | '.join(rows)}: BASE {outcome(a)}, HEAD {outcome(b)}"] += 1
    return ["    pairs that differ, by first row (status and value sign on each side):",
            *(f"      {n} x {line}" for line, n in sorted(groups.items()))] if groups else []


def align(base: dict, head: dict, show: int) -> tuple[dict, list[str]]:
    """Counts of one request's LP pairs, and the first differing names."""
    pairs = list(zip(base["solves"], head["solves"]))
    named = sum(a == b for a, b in pairs)
    unnamed = sum(_unnamed(a) == _unnamed(b) for a, b in pairs)
    pivots = sum(a["pivots"] == b["pivots"] for a, b in pairs)
    same = [_unnamed({**a, "pivots": None}) == _unnamed({**b, "pivots": None}) for a, b in pairs]
    outcomes = sum(same)
    origins = zip(base.get("origins", []), head.get("origins", []))
    feasible = sum(eq and a["pivots"] != b["pivots"] and f is g is True
                   for eq, (a, b), (f, g) in zip(same, pairs, origins))
    moved: list[str] = []
    for a, b in pairs:
        moved += [f"{x} -> {y}" for x, y in zip(_names(a), _names(b)) if x != y]
    counts = {"exit": [base["exit"], head["exit"]],
              "lps": [len(base["solves"]), len(head["solves"])],
              "equal_with_names": named, "equal_without_names": unnamed,
              "equal_pivots": pivots, "equal_but_pivots": outcomes - unnamed,
              "from_feasible_origin": feasible}
    return counts, moved[:show]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--worker"]:
        _worker(args[1], args[2:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--fixtures", action="store_true")
    parser.add_argument("--verify", type=int, nargs="*", default=[], metavar="SEED")
    parser.add_argument("--request", action="append", default=[], metavar="ARGS")
    parser.add_argument("--show", type=int, default=0, metavar="K")
    opts = parser.parse_args(args)
    with tempfile.TemporaryDirectory() as folder:
        requests = _write_fixtures(opts.head.resolve(), Path(folder)) if opts.fixtures else []
        requests += [(f"verify seed {s}", ["verify", "--models", "1", "--seed", str(s)])
                     for s in opts.verify]
        requests += [(text, shlex.split(text)) for text in opts.request]
        total = {"lps": 0, "equal_with_names": 0, "equal_without_names": 0, "equal_pivots": 0,
                 "equal_but_pivots": 0, "from_feasible_origin": 0}
        aligned = True
        for label, request in requests:
            base, head = _run(opts.base, request), _run(opts.head, request)
            counts, moved = align(base, head, opts.show)
            n = min(counts["lps"])
            same = (counts["exit"][0] == counts["exit"][1] and counts["lps"][0] == counts["lps"][1]
                    and counts["equal_without_names"] == counts["equal_pivots"] == n)
            aligned &= same
            for key in ("equal_with_names", "equal_without_names", "equal_pivots",
                        "equal_but_pivots", "from_feasible_origin"):
                total[key] += counts[key]
            total["lps"] += n
            print(f"{label}: {json.dumps(counts)}{'' if same else '  DIFFERS'}")
            for line in moved:
                print(f"    {line}")
            for line in differing(base, head):
                print(line)
            if counts["lps"][0] != counts["lps"][1]:
                print("\n".join(unpaired(base, head)))
    print(f"total over {len(requests)} requests: {json.dumps(total)}")
    return 0 if aligned else 1


if __name__ == "__main__":
    sys.exit(main())
