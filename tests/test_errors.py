"""Every exception of amhedge.errors crosses a process boundary whole.

verify's forked children send a failed unit's exception back pickled, so each
class must come back with its type, its message and its attributes.
"""
from __future__ import annotations

import pickle

import pytest

from amhedge import errors
from amhedge.errors import CapExceededError, ModelFormatError, PropertyViolation, SnaFailure

EXAMPLES = [
    pytest.param(ModelFormatError("node 'u' has no parent"), {}, id="ModelFormatError"),
    pytest.param(CapExceededError("stopping times", 200, 150),
                 {"what": "stopping times", "count": 200, "cap": 150}, id="CapExceededError"),
    pytest.param(SnaFailure("super hedging price is unbounded: the market admits arbitrage"),
                 {}, id="SnaFailure"),
    pytest.param(PropertyViolation("sub-hedge price exceeds super-hedge price"), {},
                 id="PropertyViolation"),
]


def test_every_class_has_an_example():
    classes = {obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes == {type(param.values[0]) for param in EXAMPLES}


@pytest.mark.parametrize("exc, attrs", EXAMPLES)
def test_exception_round_trips_through_pickle(exc, attrs):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args
    assert {name: getattr(back, name) for name in attrs} == attrs
