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
    ('binomial', 'price-sub'): (0, '806a221a0bfbf65ddde38720f5f404f94ba9c9c675d39ebc5059217dcbaadc07'),
    ('binomial', 'price-super'): (0, '4a857f9d258fc71482ed42a29954169bc8c294152e812fa4dda0db890e650afa'),
    ('binomial_short_put', 'ftap'): (0, '34e61e017b0006d243ffe171bc5d5a73b358c21697d93caaf68a57fb89f458f4'),
    ('binomial_short_put', 'price-sub'): (0, 'f41649b49a21453e1297d588536a24d5483d0c70563bbd9e08d65344618ff993'),
    ('binomial_short_put', 'price-super'): (0, '3cd149d3001e1fddb27943d4d1edf40a9f200db0b4abd8977e6c20c3c35b0ee7'),
    ('trinomial', 'ftap'): (0, '2987fe694fe4434c33ff2d72171ffe8b306592de2c3e6601e481adb27279f96f'),
    ('trinomial', 'price-sub'): (0, '2e1a818cb1ac2062c7e5863faa9fd73c9d867f4c54d4629bdfcb28b9d9852fa2'),
    ('trinomial', 'price-super'): (0, 'b3dbb3f1acc7da1f4f542b00ba642d15022ea50b5367c4bc0d51a9a86e7e195d'),
    ('two_period', 'ftap'): (0, '4bbe273b6f2f6d5b45ad96819162ce6742bd8f9d10319ba5ef918ab041238f57'),
    ('two_period', 'price-sub'): (0, '813634930116c128072af56a42355dce6c012416bc68393c9e06e99f690a06f8'),
    ('two_period', 'price-super'): (0, '29f26b2dd62295dc07bc61c71957a55351f003d11fc25171eef2bebb38c269e6'),
    ('binomial_call', 'ftap'): (0, '17456d44c03eb9813298f579f1ca8b8aea33b182c21551b36109792ce55db1f8'),
    ('binomial_call', 'price-sub'): (0, '806a221a0bfbf65ddde38720f5f404f94ba9c9c675d39ebc5059217dcbaadc07'),
    ('binomial_call', 'price-super'): (0, '4a857f9d258fc71482ed42a29954169bc8c294152e812fa4dda0db890e650afa'),
    ('binomial_call_short_put', 'ftap'): (0, '34e61e017b0006d243ffe171bc5d5a73b358c21697d93caaf68a57fb89f458f4'),
    ('binomial_call_short_put', 'price-sub'): (0, 'f41649b49a21453e1297d588536a24d5483d0c70563bbd9e08d65344618ff993'),
    ('binomial_call_short_put', 'price-super'): (0, '3cd149d3001e1fddb27943d4d1edf40a9f200db0b4abd8977e6c20c3c35b0ee7'),
    ('strict_chain_market', 'ftap'): (0, 'b77d67426bdf339cf14d69394ee855e1bd2e641f198af0965008ad09b1b6dd56'),
    ('strict_chain_market', 'price-sub'): (0, '1b4d3cde1a90114e3a4127f6a35791a6de906b20d9910ddc16fdd20453fca7e6'),
    ('strict_chain_market', 'price-super'): (0, 'c447f665eef012fbba9036b240454ff15d8d6f287d07c637f0da2395ece10018'),
    ('trinomial_two_kernels', 'ftap'): (0, '50acfd96fa9a88892f9479dc378916c4163e2989bee9e9b054b9fef80772968b'),
    ('trinomial_two_kernels', 'price-sub'): (0, '28f0920919ad429318672c312f681493a85077ac6982b604f2fd02dd93b1b38f'),
    ('trinomial_two_kernels', 'price-super'): (0, '1dcd37317f7ec009e68609c20938e6e6c08149d40d31652156861d50d0dafbf8'),
    ('binomial_kernel', 'ftap'): (0, '8ea27bce6f01b8a29fd453f37acad022c8d060cae3363a3761d0449c77e737c4'),
    ('binomial_kernel', 'price-sub'): (0, '847128feb0f810ffbf5d239de4c2d71a69a090fe95cb979ee3b72673e7ff1f94'),
    ('binomial_kernel', 'price-super'): (0, '4ed6c02bc3c2a580ab3cbaadacf19d3d5f3ac1dfeb63248646acfd76055ce79a'),
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
