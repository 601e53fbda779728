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
    ('binomial', 'ftap'): (0, '0b31327cbb5992461200ee24b8a928d8586fbd2365a6d01bc6b0583ee3704dc4'),
    ('binomial', 'price-sub'): (0, '26b9eb35e0cc2e676947292f166ac587da05f037a5b2f1cda6b1cddcc2af82f3'),
    ('binomial', 'price-super'): (0, 'a5bd9ea3850f4a7663da9fad76e81946c91ae76c58192854740381888d3f4f24'),
    ('binomial_short_put', 'ftap'): (0, '5df1735c70153ed87f78f3fdf84cad369428df4d50d7c565a8f564c56d7c4cbc'),
    ('binomial_short_put', 'price-sub'): (0, '0702bdaea2d187cee56ddd4418bbbe0004c7726dfeef6970c543099ba7091f5c'),
    ('binomial_short_put', 'price-super'): (0, '6e6de5b9c05101dd8fa66bf59ceb7559d15cdda3c9883ab8a93cccf42d61160c'),
    ('trinomial', 'ftap'): (0, 'f942531f1231eb3eda66c01cea81c8842046a6d1f4c759e949e2519726405fc8'),
    ('trinomial', 'price-sub'): (0, '9615b07f7aca0f775c913217aff83b166ea9d2a21ee6173753f2288c44476e08'),
    ('trinomial', 'price-super'): (0, 'e0f06eb042084e677d0eb31b0875ba67bdb81c0000c9361aceaa8d596cf5bc97'),
    ('two_period', 'ftap'): (0, 'b9ff7da94f5f4c9d0dd383a3aa0c3efa87394f5d8b17df6d93527b8656af169b'),
    ('two_period', 'price-sub'): (0, '8d6b278b8313424ec5cc03552292fd7f046bf0cb49e5a738089324ef692b8a56'),
    ('two_period', 'price-super'): (0, '76977a6c1154c132ef974e54fd16caac35db820eb81e2da9f8656dbb229dc714'),
    ('binomial_call', 'ftap'): (0, '0b31327cbb5992461200ee24b8a928d8586fbd2365a6d01bc6b0583ee3704dc4'),
    ('binomial_call', 'price-sub'): (0, '26b9eb35e0cc2e676947292f166ac587da05f037a5b2f1cda6b1cddcc2af82f3'),
    ('binomial_call', 'price-super'): (0, 'a5bd9ea3850f4a7663da9fad76e81946c91ae76c58192854740381888d3f4f24'),
    ('binomial_call_short_put', 'ftap'): (0, '5df1735c70153ed87f78f3fdf84cad369428df4d50d7c565a8f564c56d7c4cbc'),
    ('binomial_call_short_put', 'price-sub'): (0, '0702bdaea2d187cee56ddd4418bbbe0004c7726dfeef6970c543099ba7091f5c'),
    ('binomial_call_short_put', 'price-super'): (0, '6e6de5b9c05101dd8fa66bf59ceb7559d15cdda3c9883ab8a93cccf42d61160c'),
    ('strict_chain_market', 'ftap'): (0, 'bb5e7de10b7a066b38a0ceaba0d176edfc6044febc2f7ea38d3494ff1651b80e'),
    ('strict_chain_market', 'price-sub'): (0, '82400d01ad006d20dc7e1fff9bac5d37673569cf6f2b675f6a021b7bfd3dd0be'),
    ('strict_chain_market', 'price-super'): (0, '7eda44295456fbb5365c732694117094ef9a3ed593d80c119b04e74737f774e7'),
    ('trinomial_two_kernels', 'ftap'): (0, 'feec5c68f597d3b3676dac34f3e8493d05335544d1524df3486a230c40dc7ef0'),
    ('trinomial_two_kernels', 'price-sub'): (0, 'dfd0b236b60f647f0ec17511deb4c7da607f010ab5075ef744985fdcfe598d04'),
    ('trinomial_two_kernels', 'price-super'): (0, '0315a70de358092cf2bd03c9817e12faf5fc13e944c86b8c874c9bc08f50c08d'),
    ('binomial_kernel', 'ftap'): (0, 'efc61152d832c391f10c0371d478a1daa2552aca437abfffc33ceb89ceedf099'),
    ('binomial_kernel', 'price-sub'): (0, 'dcb45bcdcb673a6ef8782ed2144c223302d90daf930dbb75c6f88f98b546be99'),
    ('binomial_kernel', 'price-super'): (0, '1250810fffb20e80435c4e39626cf314058955e582f393e09bd5c0a436f46a09'),
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
