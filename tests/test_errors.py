"""Every prodplan error survives pickling, so a process pool can return it."""

from __future__ import annotations

import pickle

import pytest

from prodplan import errors


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _example(cls):
    if issubclass(cls, errors.ValidationError):
        return cls(["missing id", "bad duration"])
    if issubclass(cls, errors.PddlSyntaxError):
        return cls("unbalanced '('", 3, 14)
    if issubclass(cls, errors._StepError):
        return cls(2, "precondition fails")
    return cls("something went wrong")


@pytest.mark.parametrize(
    "cls", [errors.ProdplanError, *_subclasses(errors.ProdplanError)], ids=lambda c: c.__name__
)
def test_error_round_trips_through_pickle(cls):
    error = _example(cls)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert copy.args == error.args
    for attribute in ("line", "column", "diagnostics", "step_index"):
        assert getattr(copy, attribute, None) == getattr(error, attribute, None)


def test_messages_read_as_before():
    assert str(errors.PddlSyntaxError("x", 1, 2)) == "x (line 1, column 2)"
    assert str(errors.ValidationError(["a"])) == "1 validation error(s): a"
    assert str(errors.ValidationError(d for d in "ab")) == "2 validation error(s): a; b"
