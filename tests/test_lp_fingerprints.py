"""Every LP the CLI solves, pinned by content.

Each solve hands the LP it was asked to one ``amhedge.lp._Presolve``, so
a recording subclass put in its place sees every LP as its caller built
it, however the calling module imported ``solve``.  An LP's fingerprint
covers its sense and objective, each row's name, relation, rhs and
sorted coefficients, read back as rationals (``_Row.rational``) so that
how a row is stored moves no digest, and every variable's name and sign
restriction.
The sorted fingerprints of a run are hashed; a refactor that keeps every
LP keeps the count and the digest, while one that adds, drops or
reorders a row changes the digest.  The same fingerprint without row and
variable names counts the LPs that exactly repeat an earlier one.

A recording ``amhedge.lp._Tableau``, which each solve builds once from
the presolved LP, logs the (row, column) pair of every pivot.  Each LP's
fingerprint is paired with its pivot sequence and the sorted
pairs are hashed, so a change to the simplex that moves a single pivot
decision changes that digest even when every LP and optimum stays put.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from amhedge import campaign, lp
from amhedge.cli import main
from amhedge.market import emit_model
from amhedge.rationals import rat_str

from test_report_bytes import CAMPAIGN_MODELS, COMMANDS, CONFTEST_MODELS, _model

# (number of LPs solved, sha256 of their sorted fingerprints)
EXPECTED_CLI = (31, "888ac120ad3b52f3a14b2c36d20baf58b8b116cb40b6a3ba97a477267680dd0a")
EXPECTED_VERIFY = (278, "f0fa69454cc07883a520571fb4af875cbca49617ee6a38f2283c4b6fabd29479")
# (number of pivots, sha256 of the sorted (fingerprint, pivot sequence) pairs)
EXPECTED_CLI_PIVOTS = (143, "c287eb72e91826662fca9e02c5d4836db573bba9a0876ed4f71d9915b16c495a")
EXPECTED_VERIFY_PIVOTS = (1619, "ce3db1ce7fa379395af2af4c994ca1a1121c16f9fbeda4844b35718ba6682211")
# LPs of the verify run that repeat an earlier one of it once names are ignored
EXPECTED_VERIFY_REPEATS = 46


def fingerprint(prog: lp.LinearProgram, named: bool = True) -> str:
    def terms(coeffs):
        return " ".join(f"{j}:{rat_str(v)}" for j, v in sorted(coeffs.items()))

    lines = [f"{prog.sense} {terms(prog.objective.rational()[0])}"]
    for r in prog.rows:
        coeffs, rhs = r.rational()
        lines.append(f"{r.name if named else ''} {r.rel} {rat_str(rhs)} | {terms(coeffs)}")
    lines += [f"{name if named else ''} {'+' if pos else 'free'}"
              for name, pos in zip(prog.var_names, prog.nonneg)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class Seen(list):
    """Fingerprints of the recorded LPs, in solve order, with their pivots and
    their fingerprints without names."""

    def __init__(self):
        super().__init__()
        self.pivots: list[list[tuple[int, int]]] = []
        self.unnamed: list[str] = []


@pytest.fixture()
def recorded(monkeypatch):
    seen = Seen()

    class Asked(lp._Presolve):
        def __init__(self, prog, *args):
            seen.append(fingerprint(prog))
            seen.unnamed.append(fingerprint(prog, named=False))
            super().__init__(prog, *args)

    class Recording(lp._Tableau):
        def __init__(self, *args):
            self.pivot_log: list[tuple[int, int]] = []
            seen.pivots.append(self.pivot_log)
            super().__init__(*args)

        def pivot(self, r, c):
            self.pivot_log.append((r, c))
            super().pivot(r, c)

    monkeypatch.setattr(lp, "_Presolve", Asked)
    monkeypatch.setattr(lp, "_Tableau", Recording)
    return seen


def _digest(seen: list[str]) -> tuple[int, str]:
    return len(seen), hashlib.sha256("\n".join(sorted(seen)).encode()).hexdigest()


def _pivot_digest(seen: Seen) -> tuple[int, str]:
    lines = sorted(f"{fp} {' '.join(f'{r},{c}' for r, c in log)}"
                   for fp, log in zip(seen, seen.pivots))
    return sum(map(len, seen.pivots)), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_cli_lp_fingerprints(recorded, request, tmp_path, capsys):
    path = tmp_path / "model.json"
    for name in [*CONFTEST_MODELS, *CAMPAIGN_MODELS]:
        path.write_text(json.dumps(emit_model(_model(request, name))))
        for command in sorted(COMMANDS):
            assert main([*COMMANDS[command], "--model", str(path)]) == 0, (name, command)
    capsys.readouterr()
    assert _digest(recorded) == EXPECTED_CLI
    assert _pivot_digest(recorded) == EXPECTED_CLI_PIVOTS


def test_verify_lp_fingerprints(recorded, monkeypatch, capsys):
    # the recorder sees only this process: run every campaign unit in it
    monkeypatch.setattr(campaign, "_worker_count", lambda units: 1)
    assert main(["verify", "--models", "1", "--seed", "3"]) == 0
    capsys.readouterr()
    assert _digest(recorded) == EXPECTED_VERIFY
    assert _pivot_digest(recorded) == EXPECTED_VERIFY_PIVOTS
    assert len(recorded.unnamed) - len(set(recorded.unnamed)) == EXPECTED_VERIFY_REPEATS


@pytest.mark.parametrize("side", ["sub", "super"])
@pytest.mark.parametrize("name", [*CONFTEST_MODELS, *CAMPAIGN_MODELS])
def test_price_solves_one_lp(name, side, recorded, request, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(emit_model(_model(request, name))))
    assert main([*COMMANDS[f"price-{side}"], "--model", str(path)]) == 0
    capsys.readouterr()
    assert len(recorded) == 1
