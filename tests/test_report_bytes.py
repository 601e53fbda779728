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
    ('binomial', 'ftap'): (0, 'feb3e1b0b65222ff87c358928bc142c7727863c42bc64d16e907dafee95a534c'),
    ('binomial', 'price-sub'): (0, '2bf2e563dfb9338c9def6ac8f3919ddc8e0debc0b086d3cd2964be02699f5e36'),
    ('binomial', 'price-super'): (0, '5709706b3fbd941c7ad38e8968056f86314ed42bd2d3bf6bd7005f8396855622'),
    ('binomial_short_put', 'ftap'): (0, 'a2b890050b34617425a4aaa0125b578339a9ab000232e0e2f2625631309a9b5d'),
    ('binomial_short_put', 'price-sub'): (0, 'a0a5a4653d44f5015c78fb9a2d58d6527cfc62e2ba695d5913fa1b41ba245d72'),
    ('binomial_short_put', 'price-super'): (0, 'bae08f442406a37b201678580c58b26a704514878a4c419cbccedd5c6a8d711a'),
    ('trinomial', 'ftap'): (0, '8c8fca44533407ef462833b210e3d75975fafc5ca36acdbc4ce8e3fb6ddbe885'),
    ('trinomial', 'price-sub'): (0, '032e71e49e323a545cf23c2d32624fa97b853994d23518919cb74ecb6fd6674f'),
    ('trinomial', 'price-super'): (0, '7b9e7e90e8743af4251dc69a8ab109620871e02e5e911ef6c16d2ac2c04afeea'),
    ('two_period', 'ftap'): (0, '584602a76fc5db64eed4e94288ec866c329e7d81243a5bd11d09941c4f541a8f'),
    ('two_period', 'price-sub'): (0, '979926eb19518e40d20e0e06869d6130e4a13f5ca28422c71108ba1109173d4c'),
    ('two_period', 'price-super'): (0, '4f2afb1fc42f140b4b86bcde702964d1b6a22f8afd5a7337526ec1b91dafb259'),
    ('binomial_call', 'ftap'): (0, 'feb3e1b0b65222ff87c358928bc142c7727863c42bc64d16e907dafee95a534c'),
    ('binomial_call', 'price-sub'): (0, '2bf2e563dfb9338c9def6ac8f3919ddc8e0debc0b086d3cd2964be02699f5e36'),
    ('binomial_call', 'price-super'): (0, '5709706b3fbd941c7ad38e8968056f86314ed42bd2d3bf6bd7005f8396855622'),
    ('binomial_call_short_put', 'ftap'): (0, 'a2b890050b34617425a4aaa0125b578339a9ab000232e0e2f2625631309a9b5d'),
    ('binomial_call_short_put', 'price-sub'): (0, 'a0a5a4653d44f5015c78fb9a2d58d6527cfc62e2ba695d5913fa1b41ba245d72'),
    ('binomial_call_short_put', 'price-super'): (0, 'bae08f442406a37b201678580c58b26a704514878a4c419cbccedd5c6a8d711a'),
    ('strict_chain_market', 'ftap'): (0, 'a63e7703a5a9f3f5d1280c902be1571806af19c5074ec578b00f48f6dae5cabd'),
    ('strict_chain_market', 'price-sub'): (0, 'e20d0f030434182e1c28707b717b20dd9c3830ca27fb93faa2d1aa28e3f555ec'),
    ('strict_chain_market', 'price-super'): (0, '796e899b5e24bbac68da4f8d7412dfcf0b45a5b697ba8d823c84cccbd9766fd0'),
    ('trinomial_two_kernels', 'ftap'): (0, '1c5ed8717fbfb50c8fd94af6f102cd44b46883cb042f1e204b5e27983b3de7d3'),
    ('trinomial_two_kernels', 'price-sub'): (0, '3f73fcf5b0b93c8e64d9754429c798ad3806c36819a6f52429b154f576b83c56'),
    ('trinomial_two_kernels', 'price-super'): (0, 'ac1c1e7c41b2e8d298b8c0c13465d6900db8345471b5a05896fef2cf3b9fa19d'),
    ('binomial_kernel', 'ftap'): (0, 'abe8bf55134bab0005e72746e08dbed9ff16e88cde566f698a74d4ad77166fcc'),
    ('binomial_kernel', 'price-sub'): (0, '384f9bc81a3765bd808229326b828c70e167c1e194200249eac0111387f5d153'),
    ('binomial_kernel', 'price-super'): (0, 'cb886141463d2562e670e011b5585a6a4837ba41b01b509902f385731a62a9d0'),
    ('trinomial_kernels', 'ftap'): (0, '8f65abbd01d2af28f17579a362fcb8c4280c72d8fa5b459c312acdc8d4c421bf'),
    ('trinomial_kernels', 'price-sub'): (0, 'e572965a25af14db7c0e9a2205333cc5ae5d4c49db4a578860f622ca3f1f8f63'),
    ('trinomial_kernels', 'price-super'): (0, 'd02a1ace560e672dc977d15956e4081791b41b88ade2358d41e547e153d245c3'),
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
