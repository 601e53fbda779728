"""Byte-level regression of the CLI reports on the hand-built fixtures.

Each fixture model is written to ``model.json`` in a fresh working
directory, so the echoed ``--model`` path is the same on every run, and
the exit code plus the sha256 of stdout are compared with values
recorded before the hedging, duality and polytope code was consolidated.
Any change to a price, certificate, strategy vertex or LP size shows up
here as a different digest.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from amhedge import campaign
from amhedge.cli import main
from amhedge.market import emit_model, load_model

from conftest import binomial_dict

CONFTEST_MODELS = ("binomial", "binomial_short_put", "trinomial", "two_period")
CAMPAIGN_MODELS = {
    "binomial_call": campaign.binomial_call,
    "binomial_call_short_put": campaign.binomial_call_short_put,
    "strict_chain_market": campaign.strict_chain_market,
    "trinomial_two_kernels": campaign.trinomial_two_kernels,
    "binomial_kernel": lambda: load_model(binomial_dict(kernels={"r": [["1/2", "1/2"]]})),
}
COMMANDS = {
    "price-sub": ["price", "--model", "model.json", "--side", "sub"],
    "price-super": ["price", "--model", "model.json", "--side", "super"],
    "ftap": ["ftap", "--model", "model.json"],
}

# (exit code, sha256 of stdout) per model and command
EXPECTED = {
    ('binomial', 'ftap'): (0, '17456d44c03eb9813298f579f1ca8b8aea33b182c21551b36109792ce55db1f8'),
    ('binomial', 'price-sub'): (0, '4b2e924b6057b399ddf0ebef7166e1f730cb13cf0ea5870e81afb6966cce01b3'),
    ('binomial', 'price-super'): (0, '9ea4556fb3901297bb67d94ffc4f5bae8a07d940e539706005fb51cfa875fc72'),
    ('binomial_short_put', 'ftap'): (0, '34e61e017b0006d243ffe171bc5d5a73b358c21697d93caaf68a57fb89f458f4'),
    ('binomial_short_put', 'price-sub'): (0, '5aca29472b46652009e3752046abfcd5ee095dfc9952bb0fd2a8c9b698dcd3ca'),
    ('binomial_short_put', 'price-super'): (0, 'c532f7d0213437f01e877552d54c0c97063beb1dd6ff5c185af1adce514fbf58'),
    ('trinomial', 'ftap'): (0, '2987fe694fe4434c33ff2d72171ffe8b306592de2c3e6601e481adb27279f96f'),
    ('trinomial', 'price-sub'): (0, 'cf3040de1f284399e11a55912f9124507fb55961e15f6ee43f279d6ef297aebd'),
    ('trinomial', 'price-super'): (0, '6e7c58c6de1f47c3c91952f1ba4a9d678ba6b13f7f35a31df8f7abe53d1977f4'),
    ('two_period', 'ftap'): (0, '4bbe273b6f2f6d5b45ad96819162ce6742bd8f9d10319ba5ef918ab041238f57'),
    ('two_period', 'price-sub'): (0, 'afb5fa1e9c89d73c33bd5ee44f580631a2a1f262a434e848d27a3842ee3705b4'),
    ('two_period', 'price-super'): (0, 'b6467a13e66d629e6853698c2271b1cadefe834da73743b89967ab4cfc02dc1e'),
    ('binomial_call', 'ftap'): (0, '17456d44c03eb9813298f579f1ca8b8aea33b182c21551b36109792ce55db1f8'),
    ('binomial_call', 'price-sub'): (0, '4b2e924b6057b399ddf0ebef7166e1f730cb13cf0ea5870e81afb6966cce01b3'),
    ('binomial_call', 'price-super'): (0, '9ea4556fb3901297bb67d94ffc4f5bae8a07d940e539706005fb51cfa875fc72'),
    ('binomial_call_short_put', 'ftap'): (0, '34e61e017b0006d243ffe171bc5d5a73b358c21697d93caaf68a57fb89f458f4'),
    ('binomial_call_short_put', 'price-sub'): (0, '5aca29472b46652009e3752046abfcd5ee095dfc9952bb0fd2a8c9b698dcd3ca'),
    ('binomial_call_short_put', 'price-super'): (0, 'c532f7d0213437f01e877552d54c0c97063beb1dd6ff5c185af1adce514fbf58'),
    ('strict_chain_market', 'ftap'): (0, 'b77d67426bdf339cf14d69394ee855e1bd2e641f198af0965008ad09b1b6dd56'),
    ('strict_chain_market', 'price-sub'): (0, '1b4d3cde1a90114e3a4127f6a35791a6de906b20d9910ddc16fdd20453fca7e6'),
    ('strict_chain_market', 'price-super'): (0, 'c447f665eef012fbba9036b240454ff15d8d6f287d07c637f0da2395ece10018'),
    ('trinomial_two_kernels', 'ftap'): (0, '50acfd96fa9a88892f9479dc378916c4163e2989bee9e9b054b9fef80772968b'),
    ('trinomial_two_kernels', 'price-sub'): (0, '693e5fba575d50807e34a802a9d9f952c5a21a349bb45d4e6bc5d22c154f63bb'),
    ('trinomial_two_kernels', 'price-super'): (0, 'b063e11e869de1cd338781e617bbcb1dd8543d3c12dabd5bc1406846f43dbc49'),
    ('binomial_kernel', 'ftap'): (0, '8ea27bce6f01b8a29fd453f37acad022c8d060cae3363a3761d0449c77e737c4'),
    ('binomial_kernel', 'price-sub'): (0, '28eae5aa1db72548f8a0fc99369e58341f27f34a0680f94fd63d5f78f9db08a6'),
    ('binomial_kernel', 'price-super'): (0, '2887fe9c4c12ed07be6f905f4ed3b54bcbca396c01523423cab67885dd91ddb2'),
}


def _model(request, name):
    if name in CONFTEST_MODELS:
        return request.getfixturevalue(name)
    return CAMPAIGN_MODELS[name]()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", [*CONFTEST_MODELS, *CAMPAIGN_MODELS])
def test_report_bytes(name, command, request, tmp_path, monkeypatch, capsys):
    (tmp_path / "model.json").write_text(json.dumps(emit_model(_model(request, name))))
    monkeypatch.chdir(tmp_path)
    code = main(COMMANDS[command])
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == EXPECTED[(name, command)]
