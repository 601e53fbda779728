"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that the generator emits loadable markets with the intended
no-arbitrage verdicts, that timed passes run without span wrappers, that
layer self times add up to the traced request time, and that a wrong golden
makes the output check fail.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import amhedge.cli  # noqa: E402
from amhedge.market import load_model  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import Checker, golden_key, load_goldens  # noqa: E402
from gen import MISPRICINGS, MarketSpec, model_bytes  # noqa: E402


def _small_requests():
    return [
        workloads.Request("ftap", None, MarketSpec("binomial", 2, N=1, M=1)),
        workloads.Request("price", "super", MarketSpec("binomial", 3)),
        workloads.Request("price", "sub", MarketSpec("binomial", 2, N=1, M=1)),
        workloads.Request("price", "super", MarketSpec("binomial", 2, N=1, mispricing="short_bid_high")),
    ]


class Fixture(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def models(self, reqs, variant=0):
        out = {}
        for req in reqs:
            if req.spec is not None and req.spec not in out:
                data = model_bytes(req.spec, variant)
                path = self.tmp / f"{req.spec.name}.json"
                path.write_bytes(data)
                out[req.spec] = (str(path), data)
        return out

    def ftap(self, spec, variant=0):
        path, out = self.tmp / "m.json", self.tmp / "o.json"
        path.write_bytes(model_bytes(spec, variant))
        with contextlib.redirect_stderr(io.StringIO()):
            rc = amhedge.cli.main(["ftap", "--model", str(path), "--out", str(out)])
        return rc, json.loads(out.read_text())["classical"]


class GeneratorTest(Fixture):
    def test_workload_markets_load_and_have_their_verdict(self):
        specs = {r.spec for r in workloads.PRICE_PRIMAL + workloads.PRICE_DUAL_ENUM}
        for spec in sorted(specs, key=lambda s: s.name):
            for variant in (0, 1):
                load_model(model_bytes(spec, variant))
            rc, doc = self.ftap(spec)
            if spec.mispricing:
                self.assertEqual(rc, 2, spec.name)
                self.assertFalse(doc["holds"], spec.name)
            else:
                self.assertEqual(rc, 0, spec.name)
                self.assertGreater(Fraction(doc["epsilon"]), 0, spec.name)

    def test_every_mispricing_is_an_arbitrage(self):
        for kind in MISPRICINGS:
            rc, doc = self.ftap(MarketSpec("binomial", 1, N=1, M=1, L=1, mispricing=kind))
            self.assertEqual(rc, 2, kind)
            self.assertTrue(doc["arbitrage"]["found"], kind)

    def test_same_seed_same_bytes(self):
        spec = MarketSpec("trinomial", 2, N=1, L=1)
        self.assertEqual(model_bytes(spec, 3), model_bytes(spec, 3))


class TracingTest(Fixture):
    def test_timed_passes_run_unwrapped(self):
        reqs = _small_requests()[:2]
        models = self.models(reqs)
        original = sys.modules["amhedge.lp"].solve
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(sys.modules["amhedge.hedging"].solve, original)
            with self.assertRaises(RuntimeError):
                run.timed_passes(reqs, models, self.tmp, 1, run.HostProbe())
        finally:
            tracer.uninstall()
        self.assertEqual(tracing.wrapped_names(), [])
        self.assertIs(sys.modules["amhedge.hedging"].solve, original)
        passes = run.timed_passes(reqs, models, self.tmp, 1, run.HostProbe())
        self.assertEqual([out[0] for out in passes[0].outputs], [0, 0])

    def test_layer_self_times_sum_to_request_time(self):
        reqs = _small_requests()
        models = self.models(reqs)
        probe = run.HostProbe()
        tracer = tracing.Tracer(clock=probe.now)
        tracer.install()
        try:
            p = run.run_pass(reqs, models, self.tmp, probe, tracer)
        finally:
            tracer.uninstall()
        per_request = tracing.request_layer_self(tracer.spans)
        self.assertEqual(sorted(per_request), list(range(len(reqs))))
        for i, measured in enumerate(p.raw_times):
            total = sum(per_request[i].values())
            self.assertLessEqual(total, measured)
            self.assertLess(measured - total, max(0.002, 0.05 * measured), reqs[i].name)
        names = {s[tracing.NAME] for s in tracer.spans}
        self.assertTrue({"cli.main", "lp.solve", "hedging.superhedge",
                         "measures.dual_subhedge"} <= names)


class CheckTest(Fixture):
    def test_wrong_golden_fails_the_check(self):
        reqs = _small_requests()
        models = self.models(reqs)
        p = run.run_pass(reqs, models, self.tmp, run.HostProbe())
        goldens = load_goldens()
        ok = Checker(goldens, 0)
        for req, out in zip(reqs, p.outputs):
            self.assertEqual(ok.check(req, models[req.spec][1], *out), [], req.name)

        req = reqs[1]
        key = golden_key(models[req.spec][1], req.command, req.side)
        wrong = dict(goldens)
        wrong[key] = dict(goldens[key], price="1/1")
        problems = Checker(wrong, 0).check(req, models[req.spec][1], *p.outputs[1])
        self.assertTrue(any("golden" in msg for msg in problems), problems)


if __name__ == "__main__":
    unittest.main()
