"""Byte-level regression of the CLI reports on the hand-built fixtures.

Each fixture model is written to ``model.json`` in a fresh working
directory, so the echoed ``--model`` path is the same on every run, and
the exit code plus the sha256 of stdout are compared with values
recorded before the hedging, duality and polytope code was consolidated.
Any change to a price, certificate or strategy vertex shows up here as a
different digest; the reports carry no solver state, so a change to the
LP's size or pivot path alone does not.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from amhedge import campaign
from amhedge.cli import main
from amhedge.market import emit_model, load_model

from conftest import binomial_dict, binomial_short_put_dict, trinomial_dict, trinomial_kernels_dict

CONFTEST_MODELS = ("binomial", "binomial_short_put", "trinomial", "two_period")
CAMPAIGN_MODELS = {
    "binomial_call": lambda: load_model(binomial_dict()),
    "binomial_call_short_put": lambda: load_model(binomial_short_put_dict()),
    "strict_chain_market": campaign.strict_chain_market,
    "trinomial_two_kernels": lambda: load_model({
        **trinomial_dict(), "kernels": {"r": [["1/2", "0", "1/2"], ["1/4", "1/2", "1/4"]]}}),
    "binomial_kernel": lambda: load_model(binomial_dict(kernels={"r": [["1/2", "1/2"]]})),
    # kernels that never charge the middle move: a proper support
    "trinomial_kernels": lambda: load_model(trinomial_kernels_dict(2)),
}
COMMANDS = {
    "price-sub": ["price", "--model", "model.json", "--side", "sub"],
    "price-super": ["price", "--model", "model.json", "--side", "super"],
    "ftap": ["ftap", "--model", "model.json"],
}

# (exit code, sha256 of stdout) per model and command
EXPECTED = {
    ('binomial', 'ftap'): (0, '17456d44c03eb9813298f579f1ca8b8aea33b182c21551b36109792ce55db1f8'),
    ('binomial', 'price-sub'): (0, '780adc1246e519dace66bac96024bf3e83f8f7855cabc646ae3d45d53a6dde85'),
    ('binomial', 'price-super'): (0, '5ba01681793c8f0bcff10501604f2be18fd9735fc528ad5e8a3f1368c169e281'),
    ('binomial_short_put', 'ftap'): (0, '34e61e017b0006d243ffe171bc5d5a73b358c21697d93caaf68a57fb89f458f4'),
    ('binomial_short_put', 'price-sub'): (0, '43b57e78468ed8d13faed232dc7a3ac32063d0650485eafd3295adb993445420'),
    ('binomial_short_put', 'price-super'): (0, '83e04ef1f4892f2b52206fb205031e8aee654e51c4107ade12a62ab834506f4a'),
    ('trinomial', 'ftap'): (0, '2987fe694fe4434c33ff2d72171ffe8b306592de2c3e6601e481adb27279f96f'),
    ('trinomial', 'price-sub'): (0, '5156de6a0faed2c68121b3ad6981489a7c758a409e97597488ffd2d5fdf53196'),
    ('trinomial', 'price-super'): (0, '5273482b73a35e03a506df37058881ccba23a2c4f0e168e2a8157698978d04fc'),
    ('two_period', 'ftap'): (0, '4bbe273b6f2f6d5b45ad96819162ce6742bd8f9d10319ba5ef918ab041238f57'),
    ('two_period', 'price-sub'): (0, '0d9f639b469536440378c13fc231363561f85d0d2065bd5662ec1ddcfbe40249'),
    ('two_period', 'price-super'): (0, 'cd0319da471820dd83346d194f65d26aae58b92a64674f830ce21817396f079d'),
    ('binomial_call', 'ftap'): (0, '17456d44c03eb9813298f579f1ca8b8aea33b182c21551b36109792ce55db1f8'),
    ('binomial_call', 'price-sub'): (0, '780adc1246e519dace66bac96024bf3e83f8f7855cabc646ae3d45d53a6dde85'),
    ('binomial_call', 'price-super'): (0, '5ba01681793c8f0bcff10501604f2be18fd9735fc528ad5e8a3f1368c169e281'),
    ('binomial_call_short_put', 'ftap'): (0, '34e61e017b0006d243ffe171bc5d5a73b358c21697d93caaf68a57fb89f458f4'),
    ('binomial_call_short_put', 'price-sub'): (0, '43b57e78468ed8d13faed232dc7a3ac32063d0650485eafd3295adb993445420'),
    ('binomial_call_short_put', 'price-super'): (0, '83e04ef1f4892f2b52206fb205031e8aee654e51c4107ade12a62ab834506f4a'),
    ('strict_chain_market', 'ftap'): (0, 'b77d67426bdf339cf14d69394ee855e1bd2e641f198af0965008ad09b1b6dd56'),
    ('strict_chain_market', 'price-sub'): (0, '102725d4fd12b78505409f42f7c4fbeaab304eaca10f336c284440dddb7e3b32'),
    ('strict_chain_market', 'price-super'): (0, '4e9551d2d99861fd5330461854b4255233eaf0d1702d5ad1ac1210753ea23d39'),
    ('trinomial_two_kernels', 'ftap'): (0, '50acfd96fa9a88892f9479dc378916c4163e2989bee9e9b054b9fef80772968b'),
    ('trinomial_two_kernels', 'price-sub'): (0, '2da49f13d2b120570ff0f875496c0f8a3d672e7d0313f1ee602f9f5d4d1fa713'),
    ('trinomial_two_kernels', 'price-super'): (0, '08bd1f1f5bf7aed87e50ddff3e4a078fb9aaab76102628a572caf04beac0caeb'),
    ('binomial_kernel', 'ftap'): (0, '8ea27bce6f01b8a29fd453f37acad022c8d060cae3363a3761d0449c77e737c4'),
    ('binomial_kernel', 'price-sub'): (0, '1238d94170a730093af304e384fb955692af8957f52ba5cebbdbdf47dcf984ea'),
    ('binomial_kernel', 'price-super'): (0, '7f706588b20bc7f57518efe329da5a7f85b8f090c99bfd739e5734896d3c567f'),
    ('trinomial_kernels', 'ftap'): (0, 'bc807cb10ab53db549880f64096097f53e285255c61a8e9572212f36f150137f'),
    ('trinomial_kernels', 'price-sub'): (0, '5473599caff9c5f0655a0d27885bc08c7b0938bbd372083a3a5efe5760b8317a'),
    ('trinomial_kernels', 'price-super'): (0, 'dac76be601ec6ab0d5faeb6f7af95474c73a13294e5830f176cc48a6921b29bd'),
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
