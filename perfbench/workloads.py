"""The benchmark's workloads: fixed request lists over generated markets.

Each workload is one pass over a fixed list of ``amhedge`` requests.  The
workload seed picks the quote margins of every generated market (through
``variant``) and, for ``verify``, the order of the campaign requests.
Strikes are part of each market's shape rather than drawn by the seed: on
the same tree they change how many distinct stopping-time rows the duals
keep (49 against 287 for the 4-period binomial put), and with it the
request time by 100x, which would swamp any run-to-run comparison.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from gen import MarketSpec

# seeds map onto this many quote variants, all of which have goldens
VARIANTS = 4
# one pass at nominal host speed (see run.py) with the fractions backend, in
# seconds.  A run makes a fixed number of passes derived from --seconds and
# this figure, so the work behind every percentile does not depend on how
# fast the host happens to be; the median of three or more passes rejects
# one pass spoiled by a change of host speed.
NOMINAL_PASS_S = {"price-primal": 7.8, "price-dual-enum": 6.2, "verify": 5.0}
MIN_PASSES = 3
# campaign seeds of the verify workload.  Campaign cost varies 3x between
# seeds (2.5 to 7.3 s at --models 1 on a 2-core VM), so the pool is fixed
# and runs whole every pass; the workload seed only orders it.
VERIFY_POOL = (3, 5)
VERIFY_MODELS = 1


@dataclass(frozen=True)
class Request:
    command: str                  # "price", "ftap" or "verify"
    side: str | None = None       # price only
    spec: MarketSpec | None = None
    campaign_seed: int | None = None

    @property
    def expect_exit(self) -> int:
        return 2 if self.spec is not None and self.spec.mispricing else 0

    @property
    def name(self) -> str:
        if self.command == "verify":
            return f"verify-s{self.campaign_seed}"
        side = f"-{self.side}" if self.side else ""
        return f"{self.command}{side}:{self.spec.name}"

    def argv(self, model_path: str | None, out_path: str) -> list[str]:
        if self.command == "verify":
            args = ["verify", "--seed", str(self.campaign_seed), "--models", str(VERIFY_MODELS)]
        else:
            args = [self.command, "--model", model_path]
            if self.side:
                args += ["--side", self.side]
        return args + ["--out", out_path]


def _bin(T, **kw):
    return MarketSpec("binomial", T, **kw)


def _tri(T, **kw):
    return MarketSpec("trinomial", T, **kw)


# price --side super with M = 0: a few dense hedging LPs carry the time
PRICE_PRIMAL = [
    Request("price", "super", spec) for spec in (
        _bin(3), _bin(4), _bin(4, L=2), _bin(5), _bin(2, N=1), _bin(2, N=2),
        _bin(1, N=2, L=1), _tri(3),
        _bin(2, N=1, mispricing="short_bid_high"),
    )
]

# dual pricing over enumerated stopping times, plus ftap on the same
# markets and on mispriced copies that must produce an arbitrage witness
_DUAL_MARKETS = (_tri(3), _tri(2, N=1), _bin(4), _bin(4, M=1), _bin(2, N=1, M=1))
PRICE_DUAL_ENUM = (
    [Request("price", "sub", spec) for spec in _DUAL_MARKETS]
    + [Request("ftap", None, spec) for spec in _DUAL_MARKETS]
    + [Request("ftap", None, spec) for spec in (
        _bin(4, M=1, mispricing="long_ask_low"),
        _tri(2, N=1, mispricing="short_bid_high"),
        _bin(2, N=1, M=1, mispricing="long_ask_low"),
    )]
)

WORKLOADS = ("price-primal", "price-dual-enum", "verify")


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def requests(workload: str, seed: int) -> list[Request]:
    """The fixed request list of one pass."""
    if workload == "price-primal":
        return list(PRICE_PRIMAL)
    if workload == "price-dual-enum":
        return list(PRICE_DUAL_ENUM)
    if workload == "verify":
        pool = list(VERIFY_POOL)
        random.Random(seed).shuffle(pool)
        return [Request("verify", campaign_seed=s) for s in pool]
    raise ValueError(f"unknown workload {workload!r}")


def passes_for(workload: str, seconds: float) -> int:
    """Passes one run makes for a measuring time of ``seconds``."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
