"""Mutated models never end in a traceback.

Hypothesis drops, retypes and replaces fields of the conftest models and
perturbs their numbers and node ids; ``ftap`` and ``price --side sub``
must then exit with one of the documented domain codes: 0 success, 2
no-arbitrage failure, 3 cap exceeded, 4 schema error.  Exit 5 (a failed
internal cross-check) or an exception escaping ``main`` fails the test.
"""
from __future__ import annotations

import copy
import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amhedge.cli import main

from conftest import binomial_dict, binomial_short_put_dict, trinomial_dict, two_period_dict

BASES = (
    binomial_dict(),
    binomial_short_put_dict(),
    trinomial_dict(),
    two_period_dict(),
    binomial_dict(kernels={"r": [["1/2", "1/2"], ["1/3", "2/3"]]}),
)
DOMAIN_EXITS = {0, 2, 3, 4}

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.just(0.5),
    st.sampled_from(["", "x", "0", "1", "-1", "1/2", "-1/2", "1/0", "3/2", "r", "u", "d", "a"]),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["r", "u", "d", "id", "values", "price"]), inner, max_size=3),
    max_leaves=6,
)


def _locations(doc, prefix=()):
    """Every (container path, key) pair below doc, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    out = []
    for key, value in items:
        out.append((prefix, key))
        out += _locations(value, prefix + (key,))
    return out


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _is_number(value) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return True
    try:
        Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        return False
    return True


def _mutate(doc: dict, data) -> None:
    """Apply one drawn mutation to doc in place."""
    locations = _locations(doc)
    kind = data.draw(st.sampled_from(["number", "number", "number", "drop", "retype", "id"]))
    if kind == "number":
        numeric = [(path, key) for path, key in locations if _is_number(_at(doc, path)[key])]
        if numeric:
            path, key = data.draw(st.sampled_from(numeric))
            step = Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 4)))
            _at(doc, path)[key] = str(Fraction(_at(doc, path)[key]) + step)
            return
        kind = "retype"
    if kind == "id":
        ids = sorted({node["id"] for node in doc.get("nodes", []) if isinstance(node, dict)
                      and isinstance(node.get("id"), str)})
        named = [(path, key) for path, key in locations
                 if key in ids or _at(doc, path)[key] in ids]
        if named:
            path, key = data.draw(st.sampled_from(named))
            new_id = data.draw(st.sampled_from(ids + ["zz"]))
            parent = _at(doc, path)
            if isinstance(key, str) and key in ids and isinstance(parent, dict):
                # rename the key, keeping its position
                items = [(new_id if k == key else k, v) for k, v in parent.items()]
                parent.clear()
                parent.update(items)
            else:
                parent[key] = new_id
            return
        kind = "retype"
    path, key = data.draw(st.sampled_from(locations))
    parent = _at(doc, path)
    if kind == "drop":
        del parent[key]
    else:
        parent[key] = data.draw(JSON_VALUES)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_models_exit_with_a_domain_code(tmp_path_factory, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(json.dumps(doc))
    for argv in (["ftap"], ["price", "--side", "sub"]):
        code = main([*argv, "--model", str(path), "--out", str(path.with_suffix(".out"))])
        assert code in DOMAIN_EXITS, (argv, doc)
