"""A Configuration is a read-only dict of finite floats whose lookups run in C."""

import copy
import json
import math
import pickle
import sys

import pytest

from hdsf.config import Configuration
from hdsf.errors import ConfigurationError, HdsfError, MissingParameterError


def sample():
    return Configuration({"b": 2, "a": 0.1})


def set_item(c):
    c["a"] = 1.0


def del_item(c):
    del c["a"]


def or_in_place(c):
    c |= {"a": 1.0}


MUTATORS = {
    "setitem": set_item,
    "delitem": del_item,
    "ior": or_in_place,
    "clear": lambda c: c.clear(),
    "pop": lambda c: c.pop("a"),
    "popitem": lambda c: c.popitem(),
    "setdefault": lambda c: c.setdefault("z", 1.0),
    "update": lambda c: c.update(a=1.0),
}


def test_values_are_floats():
    config = sample()
    assert dict(config) == {"a": 0.1, "b": 2.0}
    assert all(type(v) is float for v in config.values())
    assert Configuration() == {}


@pytest.mark.parametrize("mutate", MUTATORS.values(), ids=MUTATORS.keys())
def test_every_mutator_raises(mutate):
    config = sample()
    with pytest.raises(TypeError, match="read-only"):
        mutate(config)
    assert config == {"a": 0.1, "b": 2.0}


def test_attribute_assignment_raises():
    with pytest.raises(AttributeError):
        sample().extra = 1.0


def test_missing_name():
    config = sample()
    with pytest.raises(MissingParameterError) as info:
        config["z"]
    assert isinstance(info.value, HdsfError) and isinstance(info.value, KeyError)
    assert str(info.value) == "configuration has no parameter 'z'; available: ['a', 'b']"
    assert config.get("z", 7.0) == 7.0
    assert "z" not in config


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "nan"])
def test_non_finite_value_rejected(bad):
    with pytest.raises(ConfigurationError, match="parameter 'x' is not finite"):
        Configuration({"a": 1.0, "x": bad})


def test_overrides_are_merged_and_validated():
    config = sample()
    merged = Configuration(config, a=3, c="4.5")
    assert type(merged) is Configuration
    assert dict(merged) == {"a": 3.0, "b": 2.0, "c": 4.5}
    assert config == {"a": 0.1, "b": 2.0}
    with pytest.raises(ConfigurationError, match="parameter 'a' is not finite"):
        Configuration(config, a=math.inf)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip_stays_read_only(protocol):
    config = sample()
    for copy_of in (lambda c: pickle.loads(pickle.dumps(c, protocol)), copy.copy, copy.deepcopy):
        twin = copy_of(config)
        assert type(twin) is Configuration
        assert twin == config and twin is not config
        with pytest.raises(TypeError):
            set_item(twin)


def test_repr_is_sorted_by_name():
    assert repr(sample()) == "Configuration(a=0.1, b=2.0)"
    assert str(sample()) == repr(sample())


def test_json_text_is_that_of_the_plain_dict():
    config = sample()
    assert json.dumps(config, sort_keys=True) == json.dumps(dict(config), sort_keys=True)


def test_present_lookup_makes_no_python_call():
    config = sample()
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        config["a"]
    finally:
        sys.setprofile(None)
    assert calls == []
