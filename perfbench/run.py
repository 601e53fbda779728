"""amhedge benchmark: timed and traced runs of one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload price-primal --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

The benchmark drives the public ``amhedge.cli.main(argv)`` in-process, as
a closed loop with one client and no threads: each request starts when the
previous one has returned.  Every request writes its report with ``--out``
into the benchmark's work directory.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same passes untraced and then traced, and
prints the per-layer metrics.  ``--workload all`` runs each workload in a
child process of its own, one after the other.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full result, with the environment block, sample counts
and host reference timings, goes to ``.perfbench-work/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
# The host's speed drifts by up to 2x within minutes, in CPU time as much
# as in wall time.  A fixed Fraction loop is timed before and after every
# request, and a short one every PROBE_INTERVAL_S while a request runs; the
# request's time is divided by its mean slowdown (loop time over the loop's
# time on a quiet 2-core VM), so times are seconds at nominal host speed.
# Raw times stay in the result file.
REF_ITERATIONS = 2000
PROBE_ITERATIONS = 400
NOMINAL_ITERATION_S = 6e-6
PROBE_INTERVAL_S = 0.25

END_TO_END_UNITS = {"wall_s": "s", "req_p50_s": "s", "req_tail_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s", "error_rate": "ratio"}
# metrics a run reports on its last line: error_rate is 0 on a healthy run,
# so it is carried by "failed"/"attempted" there and printed above
LAST_LINE_E2E = ("wall_s", "req_p50_s", "req_tail_s", "peak_rss_mb", "setup_s")
PER_LAYER_UNITS = {
    "lp.solve_s": "s", "lp.calls": "count", "lp.pivots": "count",
    "lp.pivots_per_s": "1/s", "lp.rows_max": "count", "lp.cols_max": "count",
    "lp.tableau_cells": "count", "lp.max_bits": "bits", "lp.infeasible": "count",
    "lp.unbounded": "count", "hedging.lp_s": "s", "hedging.self_s": "s",
    "measures.lp_s": "s", "measures.self_s": "s", "measures.tau_rows": "count",
    "measures.tau_useful_ratio": "ratio", "strategies.enum_s": "s",
    "strategies.taus": "count", "market.load_s": "s", "enlarged.enlarge_s": "s",
    "enlarged.paths": "count", "enlarged.nodes": "count", "cli.self_s": "s",
    "cli.report_bytes": "B", "divisible.self_s": "s", "robust.self_s": "s",
    "campaign.self_s": "s", "campaign.checks": "count", "trace.overhead_s": "s",
    "host.ref_loop_s": "s",
}


def host_slowdown(iterations: int = REF_ITERATIONS) -> float:
    """Time a fixed pure-Python Fraction loop against its quiet-host time."""
    t0 = perf_counter()
    x, acc = Fraction(1, 3), Fraction(0)
    for i in range(1, iterations + 1):
        acc += x * Fraction(i % 7 + 1, i % 11 + 1)
        acc -= Fraction(i, 13)
    return (perf_counter() - t0) / (iterations * NOMINAL_ITERATION_S)


class HostProbe:
    """Samples the host's slowdown on a timer signal while requests run.

    The handler runs in the main thread between bytecodes, so no thread
    competes with the engine.  ``now`` is a clock that stops while the
    handler runs, so neither requests nor spans are charged for it.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        self.samples: list[float] = []

    def now(self) -> float:
        return perf_counter() - self.spent

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(host_slowdown(PROBE_ITERATIONS))
        self.spent += perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        """Sample every PROBE_INTERVAL_S inside the block; yield the samples."""
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self.samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def tail(samples: list[float]) -> dict:
    """Sample at the highest percentile with at least ten samples beyond it.

    With ten samples or fewer no such percentile exists, and the maximum is
    reported with the number of samples beyond it (0).
    """
    s = sorted(samples)
    rank = max(len(s) - 11, 0) if len(s) > 10 else len(s) - 1
    return {"value": s[rank], "percentile": 100.0 * (rank + 1) / len(s),
            "beyond": len(s) - rank - 1, "samples": len(s)}


def environment() -> dict:
    rationals = sys.modules["amhedge.rationals"]
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "amhedge").glob("*.py")))
    return {
        "backend": "gmpy2" if rationals.GMPY2 else "fractions",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_amhedge_lines": src_lines,
    }


# -- set-up -------------------------------------------------------------------


def setup_once(reqs, variant: int, models_dir: Path) -> dict:
    """Import the engine afresh and write the workload's model files."""
    from gen import model_bytes
    for name in [n for n in sys.modules if n == "amhedge" or n.startswith("amhedge.")]:
        del sys.modules[name]
    importlib.import_module("amhedge.cli")
    models = {}
    for req in reqs:
        if req.spec is not None and req.spec not in models:
            data = model_bytes(req.spec, variant)
            path = models_dir / f"{req.spec.name}.json"
            path.write_bytes(data)
            models[req.spec] = (str(path), data)
    return models


# -- passes -------------------------------------------------------------------


class Pass:
    """One pass over the request list, with per-request times and outputs."""

    def __init__(self, raw_times: list[float], slowdowns: list[float], outputs: list[tuple]):
        self.raw_times = raw_times
        self.slowdowns = slowdowns  # mean host slowdown while each request ran
        self.times = [t / s for t, s in zip(raw_times, slowdowns)]
        self.wall = sum(self.times)
        self.outputs = outputs      # (exit code, report bytes or None, stderr)


def run_pass(reqs, models, out_dir: Path, probe: HostProbe, tracer=None) -> Pass:
    """Run every request once, timed on the probe's clock."""
    cli = sys.modules["amhedge.cli"]
    times, slowdowns, outputs = [], [], []
    before = host_slowdown()
    for i, req in enumerate(reqs):
        model_path = models[req.spec][0] if req.spec is not None else None
        out_path = out_dir / f"{i}.json"
        if out_path.exists():
            out_path.unlink()
        argv = req.argv(model_path, str(out_path))
        err = io.StringIO()
        if tracer is not None:
            tracer.request = i
        t0 = probe.now()
        with contextlib.redirect_stderr(err), probe.sampling() as samples:
            try:
                rc = cli.main(argv)
            except SystemExit as exc:          # argparse usage errors
                rc = exc.code
            except Exception:                  # a crash is a failed request, not a dead run
                rc = None
                traceback.print_exc(file=err)
        times.append(probe.now() - t0)
        after = host_slowdown()
        slowdowns.append(statistics.mean([before, after, *samples]))
        before = after
        body = out_path.read_bytes() if out_path.exists() else None
        outputs.append((rc, body, err.getvalue()))
    return Pass(times, slowdowns, outputs)


def check_passes(reqs, models, passes: list[Pass], checker) -> tuple[int, int, list[dict]]:
    """Check every request of every pass; return attempted, failed and the problems."""
    attempted, failed, problems = 0, 0, []
    first = passes[0].outputs
    for k, p in enumerate(passes):
        for i, (req, out) in enumerate(zip(reqs, p.outputs)):
            rc, body, stderr = out
            found = checker.check(req, models[req.spec][1] if req.spec else None,
                                  rc, body, stderr)
            if (rc, body) != first[i][:2]:
                found.append("report bytes differ from the first pass")
            attempted += 1
            if found:
                failed += 1
                problems.append({"pass": k, "request": req.name, "problems": found})
    return attempted, failed, problems


def timed_passes(reqs, models, out_dir: Path, n: int, probe: HostProbe) -> list[Pass]:
    import tracing
    passes = []
    for _ in range(n):
        if tracing.wrapped_names():
            raise RuntimeError("span wrappers are installed during a timed pass")
        passes.append(run_pass(reqs, models, out_dir, probe))
    return passes


# -- one workload -------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import tracing
    import workloads
    from checks import Checker, load_goldens

    variant = workloads.variant_of(seed)
    reqs = workloads.requests(workload, seed)
    n_passes = workloads.passes_for(workload, seconds)
    run_dir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    models_dir, out_dir = run_dir / "models", run_dir / "out"
    models_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups, setup_slowdowns = [], [host_slowdown()]
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            models = setup_once(reqs, variant, models_dir)
            setups.append(perf_counter() - t0)
            setup_slowdowns.append(host_slowdown())
        checker = Checker(load_goldens(), variant)

        # a traced run splits its passes between an untraced and a traced half
        n_timed = max(1, n_passes // 2) if traced else n_passes
        probe = HostProbe()
        passes = timed_passes(reqs, models, out_dir, n_timed, probe)
        all_passes = list(passes)

        layers = None
        spans_out = None
        if traced:
            tracer = tracing.Tracer(clock=probe.now)
            per_pass = []
            tracer.install()
            try:
                for _ in range(n_timed):
                    start = len(tracer.spans)
                    p = run_pass(reqs, models, out_dir, probe, tracer)
                    all_passes.append(p)
                    per_pass.append((p, start, len(tracer.spans)))
            finally:
                tracer.uninstall()
            layers = traced_metrics(tracer.spans, per_pass, passes)
            spans_out = tracer.spans

        attempted, failed, problems = check_passes(reqs, models, all_passes, checker)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # each request's time is its median over the passes, so one pass spoiled
    # by a change of host speed cannot move wall_s or a percentile; every
    # request keeps one sample per pass in the distribution
    req_times = [statistics.median(p.times[i] for p in passes) for i in range(len(reqs))]
    samples = [t for t in req_times for _ in passes]
    t = tail(samples)
    e2e = {
        "wall_s": sum(req_times),
        "req_p50_s": statistics.median(samples),
        "req_tail_s": t["value"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(
            x * 2 / (a + b) for x, a, b in zip(setups, setup_slowdowns, setup_slowdowns[1:])),
        "error_rate": failed / attempted,
    }
    result = {
        "workload": workload, "seed": seed, "variant": variant, "seconds": seconds,
        "trace": int(traced), "passes": n_timed, "requests": [r.name for r in reqs],
        "environment": environment(),
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
        "req_p50_samples": len(samples),
        "req_tail": {k: t[k] for k in ("percentile", "beyond", "samples")},
        "pass_walls_s": [p.wall for p in passes], "setups_raw_s": setups,
        "host": {"setup_slowdowns": setup_slowdowns,
                 "pass_slowdowns": [statistics.median(p.slowdowns) for p in passes],
                 "request_slowdowns": {r.name: [p.slowdowns[i] for p in passes]
                                       for i, r in enumerate(reqs)}},
        "request_times_raw_s": {r.name: [p.raw_times[i] for p in passes]
                                for i, r in enumerate(reqs)},
        "attempted": attempted, "failed": failed, "problems": problems,
    }
    if layers is not None:
        result["per_layer"] = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                               for k, v in layers.items()}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(traced)}"
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if spans_out is not None:
        with open(results_dir / f"{stem}-spans.jsonl", "w") as fh:
            for i, s in enumerate(spans_out):
                fh.write(json.dumps({"id": i, "name": s[0], "start": s[2], "end": s[3],
                                     "parent": s[4], "request": s[5]}) + "\n")
    result["result_file"] = str((results_dir / f"{stem}.json").relative_to(ROOT))
    return result


def traced_metrics(spans, per_pass, untraced: list) -> dict:
    """Median over traced passes of each per-layer metric."""
    import tracing
    rows = []
    for p, lo, hi in per_pass:
        m = tracing.layer_metrics(spans, lo, hi, p.slowdowns)
        m["cli.report_bytes"] = sum(len(body) for _, body, _ in p.outputs if body)
        rows.append(m)
    out = {k: (statistics.median_low if isinstance(v, int) else statistics.median)(
        r[k] for r in rows) for k, v in rows[0].items()}
    out["trace.overhead_s"] = (statistics.median(p.wall for p, _, _ in per_pass)
                               - statistics.median(p.wall for p in untraced))
    # the reference loop's time at the run's median slowdown
    out["host.ref_loop_s"] = (statistics.median(s for p in untraced for s in p.slowdowns)
                              * REF_ITERATIONS * NOMINAL_ITERATION_S)
    return {k: out[k] for k in PER_LAYER_UNITS}


def print_result(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} "
          f"({result['passes']} passes, {len(result['requests'])} requests each)")
    env = result["environment"]
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for k, m in result["end_to_end"].items():
        note = ""
        if k == "req_p50_s":
            note = f"  (n={result['req_p50_samples']})"
        elif k == "req_tail_s":
            tl = result["req_tail"]
            note = f"  (p{tl['percentile']:.1f}, {tl['beyond']} beyond, n={tl['samples']})"
        print(f"  {k:<28} {m['value']:.6g} {m['unit']}{note}")
    for k, m in result.get("per_layer", {}).items():
        print(f"  {k:<28} {m['value']:.6g} {m['unit']}")
    slowdowns = ", ".join(f"{x:.3f}" for x in result["host"]["pass_slowdowns"])
    print(f"  host slowdown per pass       {slowdowns} (times above are at nominal speed)")
    for prob in result["problems"][:20]:
        print(f"  FAILED pass {prob['pass']} {prob['request']}: {'; '.join(prob['problems'])}")
    print(f"  full result: {result['result_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["price-primal", "price-dual-enum", "verify", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "amhedge" / "cli.py").is_file():
        print(f"perfbench: no amhedge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    if args.workload == "all":
        import workloads
        code = 0
        for wl in workloads.WORKLOADS:
            child = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", wl,
                                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                                    "--trace", str(args.trace)], cwd=ROOT)
            code = code or child.returncode
        return code

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {k: result["end_to_end"][k] for k in LAST_LINE_E2E}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
