"""Byte-level regression of the CLI reports on the hand-built fixtures.

The exit code plus the sha256 of stdout of each fixture request are
compared with values recorded before the hedging, duality and polytope
code was consolidated.
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
    "price-sub": ["price", "--side", "sub"],
    "price-super": ["price", "--side", "super"],
    "ftap": ["ftap"],
}

# (exit code, sha256 of stdout) per model and command
EXPECTED = {
    ('binomial', 'ftap'): (0, '3aa288cd2f9d7c8fc11ed3325d6881a1636fa0dc5ea4ceb2a63f6ee5f460d97f'),
    ('binomial', 'price-sub'): (0, 'b6a7bebd7b18b5fbb70f467da6d7eaa43d79026c95f552507230d59a0ae2bc04'),
    ('binomial', 'price-super'): (0, '31c64732831f6d93f25c73701fa5c43572fbbfe1eaef331c9109c6bb79dda4b6'),
    ('binomial_short_put', 'ftap'): (0, '119e8ecb3ab4dc81bb937200410f8129e8c16f650f4709a99aad630d6bab1b5c'),
    ('binomial_short_put', 'price-sub'): (0, '988e4bf8c420de6449ce8e908b886ed26ae0784e8f3b33ee127a9f1f69852dd5'),
    ('binomial_short_put', 'price-super'): (0, '17dd9516d7e5b8d4e798e76704ce1963831b3bfa805156651f24535d825c764e'),
    ('trinomial', 'ftap'): (0, '399006346429200c9e47c5e84cb4e5569df52a20cb09659aba949d55f0441c49'),
    ('trinomial', 'price-sub'): (0, 'eec5710f0ab3ee7aa8f1b7c171b25fae2c5079532c8fd18a6327bbbc538abc17'),
    ('trinomial', 'price-super'): (0, 'f877567803b11b610126ef633d8f508cd2391f0e0a5cc76943e53a59ebb91bea'),
    ('two_period', 'ftap'): (0, '5f9778dcb5c6d3aa0a06b649888ed4db5212e807f1a18ab00a2e6ef40805a5c0'),
    ('two_period', 'price-sub'): (0, '7ed6ac7db1fc804a2a97859165ae93bbd20e5046dc1756f9fa62b7e2b29d4762'),
    ('two_period', 'price-super'): (0, '70fbff044fb3a1ea158ec82de245210f2b2d8fafbe4d21f57def0f65e155199b'),
    ('binomial_call', 'ftap'): (0, '3aa288cd2f9d7c8fc11ed3325d6881a1636fa0dc5ea4ceb2a63f6ee5f460d97f'),
    ('binomial_call', 'price-sub'): (0, 'b6a7bebd7b18b5fbb70f467da6d7eaa43d79026c95f552507230d59a0ae2bc04'),
    ('binomial_call', 'price-super'): (0, '31c64732831f6d93f25c73701fa5c43572fbbfe1eaef331c9109c6bb79dda4b6'),
    ('binomial_call_short_put', 'ftap'): (0, '119e8ecb3ab4dc81bb937200410f8129e8c16f650f4709a99aad630d6bab1b5c'),
    ('binomial_call_short_put', 'price-sub'): (0, '988e4bf8c420de6449ce8e908b886ed26ae0784e8f3b33ee127a9f1f69852dd5'),
    ('binomial_call_short_put', 'price-super'): (0, '17dd9516d7e5b8d4e798e76704ce1963831b3bfa805156651f24535d825c764e'),
    ('strict_chain_market', 'ftap'): (0, 'f209e600e60075a1301c861ebcc6475759afb3533f514d5063fc3bfff95b6674'),
    ('strict_chain_market', 'price-sub'): (0, 'e4eccde411f0cbe7663201a74902021f7ddaa06080d9f76912159eb99475714d'),
    ('strict_chain_market', 'price-super'): (0, '207f4a7aa217c0a6bb6a173b39f7c820b06b142fd2a3361d732116557da3ae34'),
    ('trinomial_two_kernels', 'ftap'): (0, 'abfff0d625e31c5de1640c5033948b38a28c3151087ba144d0624fa2b2e801f8'),
    ('trinomial_two_kernels', 'price-sub'): (0, 'be94323bdd7c654685590caf8f2dc5d992d4dc76f7405aad5d91f32ed946ade6'),
    ('trinomial_two_kernels', 'price-super'): (0, 'd66be539475f3ce682e2abbf96ae40f13e579f84eb9f7da9951589f7dfee201a'),
    ('binomial_kernel', 'ftap'): (0, 'dfa72b7432e1eb6e563a59fa4fb2db806fdb681152db060ba58b3ff83b7332f6'),
    ('binomial_kernel', 'price-sub'): (0, '1b812b247978d36f0a7e7fc8b5e757a8c709bc95f13d681f5a30dbb386ee947e'),
    ('binomial_kernel', 'price-super'): (0, 'f408845625445699c4bebe15d4d86d15d792f5717bcbb6c4054b4512c5d50dea'),
    ('trinomial_kernels', 'ftap'): (0, 'b83fefaa16faecc7fdb8ad58f891a85b62ab6e8562448d152f3c5ed737f6d4ae'),
    ('trinomial_kernels', 'price-sub'): (0, '30b62d65ef86af8667a474b3b29fda6fe2ac1b446c49659922573f2dcc3ae72c'),
    ('trinomial_kernels', 'price-super'): (0, 'a27b4d5e08437d37f5851c125ffc97088c3c965cc2dbaaaa11756651460242b6'),
}


def _model(request, name):
    if name in CONFTEST_MODELS:
        return request.getfixturevalue(name)
    return CAMPAIGN_MODELS[name]()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", [*CONFTEST_MODELS, *CAMPAIGN_MODELS])
def test_report_bytes(name, command, request, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(emit_model(_model(request, name))))
    code = main([*COMMANDS[command], "--model", str(path)])
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == EXPECTED[(name, command)]


@pytest.mark.parametrize("argv", [
    *COMMANDS.values(), ["enlarge-dump", "--side", "sub"], ["enlarge-dump", "--side", "super"],
], ids=lambda argv: "-".join(argv[::2]))
def test_report_does_not_depend_on_the_model_path(argv, tmp_path, capsys):
    # a report is a function of the model's bytes, wherever the file lives
    text = json.dumps(trinomial_kernels_dict(2))
    outs = []
    for path in (tmp_path / "model.json", tmp_path / "elsewhere" / "deeper" / "copy.json"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        assert main([*argv, "--model", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
