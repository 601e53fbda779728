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
    ('binomial', 'ftap'): (0, '4133d68f0053fab0175ccc64efb7e67430dd09a69a999583e7bb44275148d9f0'),
    ('binomial', 'price-sub'): (0, 'd49c29cb1e77531b893f0d1af22f3b6ced846ec05674cf7fee83becd4d766008'),
    ('binomial', 'price-super'): (0, '910295e56a54dd6fa0018132584e2cf67d2f244a3b6282ab92ce1aa47a80f29f'),
    ('binomial_short_put', 'ftap'): (0, 'b88c6c95f7482b0ef65f697ae06bcfce10cbdcf6eae69b4b7d2ce92a9ee48fd6'),
    ('binomial_short_put', 'price-sub'): (0, '7a7964a2748e263d59c3d09d5179153a1c759c3f76f7ad6ede44aef3f2d3d55e'),
    ('binomial_short_put', 'price-super'): (0, '91a66d6837a29dfae97e158a6359256f51989e4aee0c850ac3c36edb61ee3022'),
    ('trinomial', 'ftap'): (0, '6a01a4b26b7cf093b99c2ddb4b356243ca69fe9969c03c6c611bd7b07ffa1a31'),
    ('trinomial', 'price-sub'): (0, '7cbce1805d8acb3049f9e17e6b4e89836de542bce4f4e92e93cda0063c66332f'),
    ('trinomial', 'price-super'): (0, '0cb5259f28d51287d41af9dfb168ffaf87af1f252dee13a1c82d6ab7b62ae631'),
    ('two_period', 'ftap'): (0, '8df202a35b029cf58cc028e17a369a315d83ce49864c7af5f935c8d256a92185'),
    ('two_period', 'price-sub'): (0, '2b95e54e079968b91fa7036e65228a3a8ac8a32999849ec13ee234ca22f31715'),
    ('two_period', 'price-super'): (0, '6c6aff97b228a2013240a013709b78f2ef722e8c1c38b5241bf193ad93407eca'),
    ('binomial_call', 'ftap'): (0, '4133d68f0053fab0175ccc64efb7e67430dd09a69a999583e7bb44275148d9f0'),
    ('binomial_call', 'price-sub'): (0, 'd49c29cb1e77531b893f0d1af22f3b6ced846ec05674cf7fee83becd4d766008'),
    ('binomial_call', 'price-super'): (0, '910295e56a54dd6fa0018132584e2cf67d2f244a3b6282ab92ce1aa47a80f29f'),
    ('binomial_call_short_put', 'ftap'): (0, 'b88c6c95f7482b0ef65f697ae06bcfce10cbdcf6eae69b4b7d2ce92a9ee48fd6'),
    ('binomial_call_short_put', 'price-sub'): (0, '7a7964a2748e263d59c3d09d5179153a1c759c3f76f7ad6ede44aef3f2d3d55e'),
    ('binomial_call_short_put', 'price-super'): (0, '91a66d6837a29dfae97e158a6359256f51989e4aee0c850ac3c36edb61ee3022'),
    ('strict_chain_market', 'ftap'): (0, '28fae3187c411f52e0cdf6ed2e96d44c17953082aaeb717f5922572543493d2e'),
    ('strict_chain_market', 'price-sub'): (0, '863526a8ca928111841b9488616fba6508dfd7fc0be4b744fcff0aa8d071a97a'),
    ('strict_chain_market', 'price-super'): (0, 'c143fe5b3b97ecfe33145fde973061d4e543223a8ccdf93073fe96f6b4c6d695'),
    ('trinomial_two_kernels', 'ftap'): (0, '1108a504b39f7cc12003ee445ae1176b05ff769710d591810af0aacd901d8090'),
    ('trinomial_two_kernels', 'price-sub'): (0, '8f3f080466d09e14665952afb4cefffa9a55d522977c8916e3b0daa62ffd97e3'),
    ('trinomial_two_kernels', 'price-super'): (0, '534272efba5fc201d6dbecc226e5294e9f4f30e7dfc7b9be3fcb29775789cf9f'),
    ('binomial_kernel', 'ftap'): (0, '5d440928299758f733767bd17a0f6378a154bd97bb55f3555a7b329556ba9886'),
    ('binomial_kernel', 'price-sub'): (0, 'fad5781d8025a1782e37d97a62942aa1c1441deda2e679b8761e04968b03a939'),
    ('binomial_kernel', 'price-super'): (0, '0beda15fce10e645eaa70531d14c64082f9b1e6314c273a812e9057f2dc3efb2'),
    ('trinomial_kernels', 'ftap'): (0, 'ac66624d5a90cc2f2ccc636016e317f085992e32683a6e5d7ea0982dff8779c8'),
    ('trinomial_kernels', 'price-sub'): (0, '3bae5d1f5df4d26d9c13548b18f97f583924fa9c4ec573e635a5e4988c722d89'),
    ('trinomial_kernels', 'price-super'): (0, 'b51f3aae1aebb34123521e9ba3305ef41138219a7e19a0f0571c84fb7f4345a7'),
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
