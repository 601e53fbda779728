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
    ('binomial', 'price-sub'): (0, '15a21fd56c6777833e9b1849f2f9dbc399f194f16eacec53df95fc6755b05ce5'),
    ('binomial', 'price-super'): (0, '8cd82097105b1588bade7b643ea81abd03a2589fa074a13730393641f365d234'),
    ('binomial_short_put', 'ftap'): (0, '5df1735c70153ed87f78f3fdf84cad369428df4d50d7c565a8f564c56d7c4cbc'),
    ('binomial_short_put', 'price-sub'): (0, '9841702948511689737d2f5589834ddd5c00ca42d1361a8514e0ad37afae8661'),
    ('binomial_short_put', 'price-super'): (0, '8c73dd61f8f16f31154dd84edd99f4a6d8cb9d1ba00dc76fbf2164e45194602c'),
    ('trinomial', 'ftap'): (0, 'f942531f1231eb3eda66c01cea81c8842046a6d1f4c759e949e2519726405fc8'),
    ('trinomial', 'price-sub'): (0, '0a600faf898f27e8a6a5f3382caaec6f415477149a18d6e27f5f2bec34027b73'),
    ('trinomial', 'price-super'): (0, '183d61a30e6240c4c41a92c7b0149425640de5100b558bc98be0ed608d1d5bcb'),
    ('two_period', 'ftap'): (0, 'b9ff7da94f5f4c9d0dd383a3aa0c3efa87394f5d8b17df6d93527b8656af169b'),
    ('two_period', 'price-sub'): (0, '34656430a5fdc9000b4c0f17a5bb3baa281528502d39bd811bb1557c877da6c4'),
    ('two_period', 'price-super'): (0, 'd77c6e133bfcda0a2a395f3a64c547dc855c7ab3d8c5bb0503aa5640d713a1af'),
    ('binomial_call', 'ftap'): (0, '0b31327cbb5992461200ee24b8a928d8586fbd2365a6d01bc6b0583ee3704dc4'),
    ('binomial_call', 'price-sub'): (0, '15a21fd56c6777833e9b1849f2f9dbc399f194f16eacec53df95fc6755b05ce5'),
    ('binomial_call', 'price-super'): (0, '8cd82097105b1588bade7b643ea81abd03a2589fa074a13730393641f365d234'),
    ('binomial_call_short_put', 'ftap'): (0, '5df1735c70153ed87f78f3fdf84cad369428df4d50d7c565a8f564c56d7c4cbc'),
    ('binomial_call_short_put', 'price-sub'): (0, '9841702948511689737d2f5589834ddd5c00ca42d1361a8514e0ad37afae8661'),
    ('binomial_call_short_put', 'price-super'): (0, '8c73dd61f8f16f31154dd84edd99f4a6d8cb9d1ba00dc76fbf2164e45194602c'),
    ('strict_chain_market', 'ftap'): (0, 'bb5e7de10b7a066b38a0ceaba0d176edfc6044febc2f7ea38d3494ff1651b80e'),
    ('strict_chain_market', 'price-sub'): (0, 'ed7e34caa1542a169ef499a9296cb56099228c7ed0948d9a65ed4478a19fb83a'),
    ('strict_chain_market', 'price-super'): (0, '165a390c8d07791a9cfbbbff065ebd34eb65f575cf4704182a116e692abd11e9'),
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
