"""Market generator owned by the benchmark.

Every market the benchmark prices is built here from a workload seed and
written to a JSON model file; the engine only ever sees those files.

Trees are binomial (up 2, down 1/2) or trinomial (up 2, mid 1, down 1/2)
event trees over T periods with S0 = 4.  The claim is an American put.  A
market may add N shorted American calls, M longed American puts and L
European calls.  Strikes and quote margins are drawn from small rational
grids.

Healthy quotes are placed on the consistent side of a reference measure
Q^ that is a strictly positive martingale measure on every enlarged space:
the product of a full-support one-step law at each node (the unique q = 1/3
on binomial trees, (1/6, 1/2, 1/3) on trinomial ones) with independent,
uniform exercise clocks.  Asks sit above their Q^ value and bids below it
by a positive grid margin, so Q^ clears every price row strictly and
strict no-arbitrage holds by construction.

Mispriced copies are arbitrage by construction:

* ``long_ask_low``   -- a long ask below its time-0 exercise value (buy and
  exercise at once);
* ``short_bid_high`` -- a short bid above the payoff's maximum (sell and
  never pay more than the bid);
* ``european_zero``  -- a European call quoted at 0 while it pays on some
  path of positive probability.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F

S0 = F(4)
MOVES = {
    "binomial": (("u", F(2)), ("d", F(1, 2))),
    "trinomial": (("u", F(2)), ("m", F(1)), ("d", F(1, 2))),
}
# one-step law of the reference measure, per move letter
REF_LAW = {
    "binomial": {"u": F(1, 3), "d": F(2, 3)},
    "trinomial": {"u": F(1, 6), "m": F(1, 2), "d": F(1, 3)},
}
MARGINS = (F(1, 8), F(1, 4), F(3, 8))
CLAIM_STRIKE = F(4)     # the put being priced
CALL_STRIKE = F(5)      # first shorted American and first European; then 6, 7, ...
PUT_STRIKE = F(5)       # first longed American, in the money at the root; then 6, ...
MISPRICINGS = ("long_ask_low", "short_bid_high", "european_zero")


@dataclass(frozen=True)
class MarketSpec:
    """Shape of one generated market."""

    tree: str               # "binomial" or "trinomial"
    T: int
    N: int = 0              # shorted American calls
    M: int = 0              # longed American puts
    L: int = 0              # European calls
    mispricing: str | None = None

    @property
    def name(self) -> str:
        base = f"{self.tree[:3]}-T{self.T}-N{self.N}-M{self.M}-L{self.L}"
        return f"{base}-{self.mispricing}" if self.mispricing else base

    @property
    def complete(self) -> bool:
        """Binomial with no option book: the martingale measure is unique."""
        return self.tree == "binomial" and self.N == self.M == self.L == 0


class Tree:
    """Non-recombining event tree; a node id is 'r' plus its move letters."""

    def __init__(self, kind: str, T: int):
        self.kind = kind
        self.T = T
        self.levels = [["r"]]
        for _ in range(T):
            self.levels.append([v + m for v in self.levels[-1] for m, _ in MOVES[kind]])
        factor = dict(MOVES[kind])
        self.stock = {}
        for level in self.levels:
            for v in level:
                s = S0
                for m in v[1:]:
                    s *= factor[m]
                self.stock[v] = s

    @property
    def leaves(self) -> list[str]:
        return self.levels[-1]

    def expect_next(self, v: str, values: dict[str, F]) -> F:
        """Reference-law expectation of ``values`` over the children of ``v``."""
        return sum((q * values[v + m] for m, q in REF_LAW[self.kind].items()), F(0))

    def snell(self, payoff: dict[str, F]) -> F:
        """Root value of the optimal-stopping problem under the reference law."""
        value = {v: payoff[v] for v in self.leaves}
        for level in reversed(self.levels[:-1]):
            for v in level:
                value[v] = max(payoff[v], self.expect_next(v, value))
        return value["r"]

    def expectation_at(self, t: int, payoff: dict[str, F]) -> F:
        """E[payoff(node at time t)] under the reference law."""
        value = {v: payoff[v] for v in self.levels[t]}
        for level in reversed(self.levels[:t]):
            for v in level:
                value[v] = self.expect_next(v, value)
        return value["r"]


def _s(x: F) -> str:
    return f"{x.numerator}/{x.denominator}"


def _put(tree: Tree, k: F) -> dict[str, F]:
    return {v: max(k - s, F(0)) for v, s in tree.stock.items()}


def _call(tree: Tree, k: F) -> dict[str, F]:
    return {v: max(s - k, F(0)) for v, s in tree.stock.items()}


def build_market(spec: MarketSpec, variant: int) -> dict:
    """The JSON model of ``spec`` for one seed variant."""
    rng = random.Random(f"amhedge-perfbench:{variant}:{spec.tree}-{spec.T}-{spec.N}-{spec.M}-{spec.L}")
    tree = Tree(spec.tree, spec.T)
    claim = _put(tree, CLAIM_STRIKE)
    europeans, longs, shorts = [], [], []
    for i in range(spec.L):
        pay = _call(tree, CALL_STRIKE + i)
        ref = tree.expectation_at(spec.T, pay)
        europeans.append([pay, ref * (1 + rng.choice(MARGINS))])
    for j in range(spec.M):
        pay = _put(tree, PUT_STRIKE + j)
        longs.append([pay, tree.snell(pay) * (1 + rng.choice(MARGINS))])
    for k in range(spec.N):
        pay = _call(tree, CALL_STRIKE + k)
        # clock uniform on 0..T and independent of the stock under Q^
        ref = sum((tree.expectation_at(t, pay) for t in range(spec.T + 1)), F(0)) / (spec.T + 1)
        shorts.append([pay, ref * (1 - rng.choice(MARGINS))])

    if spec.mispricing == "long_ask_low":
        longs[0][1] = longs[0][0]["r"] / 2
    elif spec.mispricing == "short_bid_high":
        shorts[0][1] = max(shorts[0][0].values()) + 1
    elif spec.mispricing == "european_zero":
        europeans[0][1] = F(0)
    elif spec.mispricing is not None:
        raise ValueError(f"unknown mispricing {spec.mispricing!r}")

    nodes = [{"id": "r", "time": 0}]
    nodes += [{"id": v, "time": t, "parent": v[:-1]}
              for t, level in enumerate(tree.levels) if t for v in level]
    leaf_weight = F(1, len(tree.leaves))
    return {
        "horizon": spec.T,
        "nodes": nodes,
        "stock": {"dim": 1, "values": {v: [_s(s)] for v, s in tree.stock.items()}},
        "claim": {"values": {v: _s(x) for v, x in claim.items()}},
        "weights": {v: _s(leaf_weight) for v in tree.leaves},
        "europeans": [{"payoff": {v: _s(pay[v]) for v in tree.leaves}, "price": _s(p)}
                      for pay, p in europeans],
        "americans_long": [{"values": {v: _s(x) for v, x in pay.items()}, "price": _s(p)}
                           for pay, p in longs],
        "americans_short": [{"values": {v: _s(x) for v, x in pay.items()}, "price": _s(p)}
                            for pay, p in shorts],
    }


def model_bytes(spec: MarketSpec, variant: int) -> bytes:
    return (json.dumps(build_market(spec, variant), sort_keys=True) + "\n").encode()


def model_key(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def claim_snell(spec: MarketSpec, variant: int) -> F:
    """Backward-induction value of the claim under the reference law.

    On complete binomial markets this is the unique arbitrage-free price,
    so both hedging sides must equal it.
    """
    data = build_market(spec, variant)
    tree = Tree(spec.tree, spec.T)
    return tree.snell({v: F(x) for v, x in data["claim"]["values"].items()})


