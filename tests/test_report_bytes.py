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
    ('binomial', 'price-sub'): (0, 'c9f833a176e12e1f51be305c15e4ad2d7d3ab72a16390a7e58b614b77c591c4d'),
    ('binomial', 'price-super'): (0, 'c6865e0c5917528e443d8682633a96b414690e4f049840a319c75457f79cab05'),
    ('binomial_short_put', 'ftap'): (0, '5df1735c70153ed87f78f3fdf84cad369428df4d50d7c565a8f564c56d7c4cbc'),
    ('binomial_short_put', 'price-sub'): (0, '717eada70f331ec5139a2aa7c022b6b50cbd32c38e144cd66f6eb715859ee983'),
    ('binomial_short_put', 'price-super'): (0, '4cf98843410f326214af53a73fa52b56ca892fe1df62c65d617c95621679bc66'),
    ('trinomial', 'ftap'): (0, 'f942531f1231eb3eda66c01cea81c8842046a6d1f4c759e949e2519726405fc8'),
    ('trinomial', 'price-sub'): (0, 'c95fabaa95144a215d3bb191e5d795625e6198ad48176e8b7f891f8c80016e28'),
    ('trinomial', 'price-super'): (0, '7737f7fda2b6489d2d03b8235583b91ab9f49bf1bf1aaaffaad313fb54c359f5'),
    ('two_period', 'ftap'): (0, 'b9ff7da94f5f4c9d0dd383a3aa0c3efa87394f5d8b17df6d93527b8656af169b'),
    ('two_period', 'price-sub'): (0, 'c8a50e23d4b73e5f309e032b5ded5e31ebe21b05eebbf65aac0d7060fbc35ed6'),
    ('two_period', 'price-super'): (0, '5a0a41089f7b8dad3fe8979f538d8273f6ec3734bb4cb19eaf6cd7d9ea2d0dce'),
    ('binomial_call', 'ftap'): (0, '0b31327cbb5992461200ee24b8a928d8586fbd2365a6d01bc6b0583ee3704dc4'),
    ('binomial_call', 'price-sub'): (0, 'c9f833a176e12e1f51be305c15e4ad2d7d3ab72a16390a7e58b614b77c591c4d'),
    ('binomial_call', 'price-super'): (0, 'c6865e0c5917528e443d8682633a96b414690e4f049840a319c75457f79cab05'),
    ('binomial_call_short_put', 'ftap'): (0, '5df1735c70153ed87f78f3fdf84cad369428df4d50d7c565a8f564c56d7c4cbc'),
    ('binomial_call_short_put', 'price-sub'): (0, '717eada70f331ec5139a2aa7c022b6b50cbd32c38e144cd66f6eb715859ee983'),
    ('binomial_call_short_put', 'price-super'): (0, '4cf98843410f326214af53a73fa52b56ca892fe1df62c65d617c95621679bc66'),
    ('strict_chain_market', 'ftap'): (0, 'bb5e7de10b7a066b38a0ceaba0d176edfc6044febc2f7ea38d3494ff1651b80e'),
    ('strict_chain_market', 'price-sub'): (0, '7dc7fe7cb1bdccb2cf0631e2cfdf7a6fc82db57285cf6669157c704ad6fd9b6d'),
    ('strict_chain_market', 'price-super'): (0, '2908c67cc26db7ece03aeea768a8282a88fca21b8dfaffc4485e9cd99cc67a86'),
    ('trinomial_two_kernels', 'ftap'): (0, 'be3216aedfee4c8aae2cdc2d44e1417b522b8d9936492ab99f882b170d679c31'),
    ('trinomial_two_kernels', 'price-sub'): (0, '9c4e3d0181fcafd451cb50b478146b04f5a5df51dd28311fb625abfd66a9e7ed'),
    ('trinomial_two_kernels', 'price-super'): (0, '86cd4187cae9e598c3e4b9c46d656dcb9e7dfee7fd304ea1e2fa4d851d2a3b08'),
    ('binomial_kernel', 'ftap'): (0, '696b4d1590a970db301eb234fe8a05b538c22417cd28e3b0b2755f2fc29ab058'),
    ('binomial_kernel', 'price-sub'): (0, 'e308abdc0bbabf7c29689e43813d590617d44107fb121358402950b01ad385fc'),
    ('binomial_kernel', 'price-super'): (0, '2ed1e6a5b2b3e9093c7f270c5aa155443ac95fc348cee9e32f7d8b43126ee3bf'),
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
