"""Output checks for every benchmark request.

A request counts as failed when any of these does not hold:

* the exit code is the expected one (2 for a mispriced market, else 0);
* on complete binomial markets, the price equals the benchmark's own
  backward-induction value under the unique martingale measure;
* a sub price is at most the super price of the same market, wherever the
  other side is known from this run or from the goldens;
* the exact ``price`` or ``epsilon`` string equals the golden recorded from
  the engine for that model file (whole reports are not compared: another
  optimal vertex is a legitimate change);
* a mispriced ``price`` fails with an unbounded hedging LP, a mispriced
  ``ftap`` reports an arbitrage witness, and ``verify`` reports ``ok``;
* the report bytes are identical across passes (checked by the runner).
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from gen import claim_snell, model_key

GOLDENS_PATH = Path(__file__).with_name("goldens.json")


def load_goldens(path: Path = GOLDENS_PATH) -> dict:
    return json.loads(path.read_text())


def golden_key(model: bytes, command: str, side: str | None) -> str:
    return f"{model_key(model)}:{command}:{side or '-'}"


def summary(req, rc: int | None, body: bytes | None) -> dict:
    """What goldens record for one request: exit code plus price or epsilon."""
    doc = {"exit": rc}
    if body is None or rc not in (0, 2):
        return doc
    data = json.loads(body)
    if req.command == "price":
        doc["price"] = data["price"]
    elif req.command == "ftap":
        doc["epsilon"] = data["classical"]["epsilon"]
    return doc


class Checker:
    """Checks request outputs against oracles and goldens."""

    def __init__(self, goldens: dict, variant: int):
        self.goldens = goldens
        self.variant = variant
        self.prices: dict[tuple[str, str], Fraction] = {}   # (model key, side) -> price

    def _other_side(self, mkey: str, side: str) -> Fraction | None:
        other = "super" if side == "sub" else "sub"
        if (mkey, other) in self.prices:
            return self.prices[(mkey, other)]
        gold = self.goldens.get(f"{mkey}:price:{other}")
        if gold and gold.get("price") is not None:
            return Fraction(gold["price"])
        return None

    def check(self, req, model: bytes | None, rc: int | None, body: bytes | None,
              stderr: str) -> list[str]:
        """Problems found in one request's output; empty when it is correct."""
        if rc != req.expect_exit:
            return [f"exit {rc}, expected {req.expect_exit}: {stderr.strip()[:200]}"]
        if req.command == "price" and rc == 2:
            data = None
            problems = [] if "unbounded" in stderr else [
                f"mispriced price failed without an unbounded ray: {stderr.strip()[:200]}"]
        else:
            try:
                data = json.loads(body)
            except (TypeError, ValueError):
                return ["no JSON report written"]
            problems = []

        if req.command == "verify":
            if data["campaign"].get("ok") is not True:
                problems.append("verify did not report ok")
            return problems
        if req.command == "price" and data is not None:
            price = Fraction(data["price"])
            if data["gap"] != "0/1":
                problems.append(f"duality gap {data['gap']}")
            if req.spec.complete and price != claim_snell(req.spec, self.variant):
                problems.append(f"price {price} != Snell value "
                                f"{claim_snell(req.spec, self.variant)}")
            mkey = model_key(model)
            self.prices[(mkey, req.side)] = price
            other = self._other_side(mkey, req.side)
            if other is not None:
                sub, sup = (price, other) if req.side == "sub" else (other, price)
                if sub > sup:
                    problems.append(f"sub price {sub} above super price {sup}")
        elif req.command == "ftap":
            data = data["classical"]
            if rc == 0 and not (data["holds"] and Fraction(data["epsilon"]) > 0):
                problems.append("healthy market without a positive ftap slack")
            if rc == 2 and not (not data["holds"] and data.get("arbitrage", {}).get("found")):
                problems.append("mispriced market without an arbitrage witness")

        gold = self.goldens.get(golden_key(model, req.command, req.side))
        if gold is None:
            problems.append("no golden recorded for this model")
        elif gold != summary(req, rc, body):
            problems.append(f"golden {gold} != {summary(req, rc, body)}")
        return problems
