import json
import math

import pytest

from phasecomp import serialize


def test_roundtrips_through_stdlib_json():
    payload = {
        "a": 1,
        "b": [1.5, -2.25, 1e-17],
        "c": {"nested": True, "s": "text", "n": None},
        "d": [],
        "e": {},
    }
    text = serialize.dumps(payload)
    assert json.loads(text) == payload


def test_float_formatting_is_full_precision():
    x = 0.1 + 0.2
    text = serialize.dumps({"x": x})
    assert json.loads(text)["x"] == x


def test_identical_inputs_are_byte_identical():
    payload = {"values": [math.pi, 1 / 3], "seed": 7}
    assert serialize.dumps(payload) == serialize.dumps(payload)


def test_tuples_serialize_as_lists():
    assert json.loads(serialize.dumps((1, 2))) == [1, 2]


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        serialize.dumps({"x": float("nan")})
    with pytest.raises(ValueError):
        serialize.dumps([float("inf")])


def test_rejects_unknown_types():
    with pytest.raises(TypeError):
        serialize.dumps({"x": object()})


def test_insertion_order_preserved():
    text = serialize.dumps({"z": 1, "a": 2})
    assert text.index('"z"') < text.index('"a"')



def test_float_list_fast_path_matches_item_by_item_text(monkeypatch):
    floats = [-0.0, 5e-324, 1e-300, 0.1, 1.0, -2.5e300, 1 / 3]
    payload = {"flat": floats, "rows": [floats, floats[::-1]], "one": [0.1]}
    assert serialize._is_finite_float_list(floats)
    fast = serialize.dumps(payload)
    monkeypatch.setattr(serialize, "_is_finite_float_list", lambda obj: False)
    assert fast == serialize.dumps(payload)


@pytest.mark.parametrize(
    "items", [[1, 2.0], [True, 1.0], [{"a": 1.0}, {"b": 2.0}], [[1.0], [2.0]], [1.0, None]]
)
def test_mixed_lists_take_the_item_by_item_path(items):
    assert not serialize._is_finite_float_list(items)
    assert json.loads(serialize.dumps(items)) == items


def test_non_finite_item_in_float_list_raises():
    for bad in (float("nan"), float("inf"), float("-inf")):
        assert not serialize._is_finite_float_list([0.5, bad])
        with pytest.raises(ValueError, match="non-finite"):
            serialize.dumps({"values": [0.5, 1.5, bad]})
