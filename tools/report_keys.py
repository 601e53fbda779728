"""Compare the reports two source trees write for the same CLI requests.

When keys leave a report, each old report with those keys deleted must
equal the new report byte for byte (the re-record protocol of ROADMAP
item 1).  Every request runs once per tree, in a subprocess that imports
``amhedge`` from that tree's ``src``.  BASE's stdout is parsed, each
``--drop COMMAND:KEY.PATH`` whose command is the request's is deleted
from it, and the rest is written back as the CLI writes it (sorted keys,
compact separators).  That text and the exit code must equal HEAD's.  A
request whose command has no ``--drop`` is compared as it stands.

    python tools/report_keys.py BASE HEAD --fixtures \\
        --drop price:report.kind --drop price:report.dual_ref.value

BASE and HEAD are checkouts of the repository.  ``--fixtures`` runs
price --side sub and --side super, ftap, and enlarge-dump --side sub and
--side super on every model that ``tests/test_report_bytes.py`` of HEAD
pins; ``--model FILE`` runs the same five requests on another model.
One line per request; the exit code is 1 when some request differs.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from lp_align import _write_fixtures

COMMANDS = {
    "price-sub": ["price", "--side", "sub"],
    "price-super": ["price", "--side", "super"],
    "ftap": ["ftap"],
    "enlarge-dump-sub": ["enlarge-dump", "--side", "sub"],
    "enlarge-dump-super": ["enlarge-dump", "--side", "super"],
}


def _run(tree: Path, argv: list[str]) -> tuple[int, str]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = subprocess.run([sys.executable, "-B", "-m", "amhedge.cli", *argv], env=env,
                         capture_output=True, text=True)
    return out.returncode, out.stdout


def dropped(text: str, paths: list[list[str]]) -> tuple[str, int]:
    """The report with each key path deleted, as the CLI writes it, and
    how many of the paths were there to delete."""
    doc, found = json.loads(text), 0
    for path in paths:
        node = doc
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict) and path[-1] in node:
            del node[path[-1]]
            found += 1
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--fixtures", action="store_true")
    parser.add_argument("--model", action="append", default=[], type=Path, metavar="FILE")
    parser.add_argument("--drop", action="append", default=[], metavar="COMMAND:KEY.PATH")
    opts = parser.parse_args(argv)
    drops: dict[str, list[list[str]]] = {}
    for spec in opts.drop:
        command, _, path = spec.partition(":")
        drops.setdefault(command, []).append(path.split("."))
    base, head = opts.base.resolve(), opts.head.resolve()
    with tempfile.TemporaryDirectory() as folder:
        requests = _write_fixtures(head, Path(folder), COMMANDS) if opts.fixtures else []
        requests += [(f"{path.name} {cmd}", [args[0], "--model", str(path.resolve()), *args[1:]])
                     for path in opts.model for cmd, args in COMMANDS.items()]
        differs = deleted = 0
        for label, request in requests:
            (code0, old), (code1, new) = _run(base, request), _run(head, request)
            paths = drops.get(request[0], [])
            if old and paths:
                old, found = dropped(old, paths)
                deleted += found
                note = f"{found} of {len(paths)} keys dropped"
            else:
                note = "as it stands"
            same = code0 == code1 and old == new
            differs += not same
            print(f"{label}: exit {code0}/{code1}, {len(new)} bytes, {note}: "
                  f"{'equal' if same else 'DIFFERS'}")
    print(f"{len(requests) - differs} of {len(requests)} requests equal, "
          f"{deleted} keys dropped in all")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
