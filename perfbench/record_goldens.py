"""Record the goldens the benchmark's output checks compare against.

    python3 perfbench/record_goldens.py

Runs every price and ftap request of every workload on every seed variant
once, in-process, and writes the exit code and the exact ``price`` or
``epsilon`` string per model file and command to ``goldens.json``.  Run it
only on a commit whose outputs are trusted: the goldens define what the
benchmark accepts as correct.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import amhedge.cli  # noqa: E402
import workloads  # noqa: E402
from checks import GOLDENS_PATH, golden_key, summary  # noqa: E402
from gen import model_bytes  # noqa: E402


def main() -> int:
    work = HERE.parent / ".perfbench-work" / "goldens"
    work.mkdir(parents=True, exist_ok=True)
    model_path, out_path = work / "model.json", work / "out.json"
    goldens = {}
    for variant in range(workloads.VARIANTS):
        for req in workloads.PRICE_PRIMAL + workloads.PRICE_DUAL_ENUM:
            data = model_bytes(req.spec, variant)
            key = golden_key(data, req.command, req.side)
            if key in goldens:
                continue
            model_path.write_bytes(data)
            if out_path.exists():
                out_path.unlink()
            with contextlib.redirect_stderr(io.StringIO()):
                rc = amhedge.cli.main(req.argv(str(model_path), str(out_path)))
            body = out_path.read_bytes() if out_path.exists() else None
            goldens[key] = summary(req, rc, body)
            print(f"variant {variant} {req.name}: {goldens[key]}", flush=True)
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
