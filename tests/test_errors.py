"""Every package error survives pickling, ``copy.copy`` and ``copy.deepcopy``.

An error whose constructor takes more than a message rebuilds itself from
its fields; the default would call it with the message alone.
"""

import copy
import pickle

import pytest

from hdsf import errors
from hdsf.config import Configuration

FAULT = errors.SimulationFault(1.5, "x", float("inf"))
# errors whose constructor takes more than a message
SAMPLES = {
    errors.SimulationFault: FAULT,
    errors.TrialFault: errors.TrialFault(FAULT, Configuration({"x0": 2.0})),
}
ERRORS = sorted((c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, errors.HdsfError)),
                key=lambda c: c.__name__)


def same(a, b) -> bool:
    if isinstance(a, BaseException):
        return (type(a) is type(b) and str(a) == str(b) and a.args == b.args
                and vars(a).keys() == vars(b).keys()
                and all(same(v, vars(b)[k]) for k, v in vars(a).items()))
    return type(a) is type(b) and a == b


def test_every_error_is_listed():
    assert len(ERRORS) == 12
    assert set(SAMPLES) <= set(ERRORS)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_round_trips_through_pickle(cls):
    error = SAMPLES.get(cls) or cls("what went wrong")
    for copy_of in (lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy):
        twin = copy_of(error)
        assert type(twin) is cls
        assert str(twin) == str(error)
        assert same(twin, error)
