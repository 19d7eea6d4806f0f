"""The CLI's report writer `cli._json` writes what
`json.dumps(value, sort_keys=True)` writes, for every value a report can
hold, and refuses every other value."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvemoduli import cli

# every control character, DEL, the two characters json escapes by name
# and the ASCII around them, Latin-1, BMP, astral and lone surrogates
SPECIAL = [chr(c) for c in range(0x20)] + ['"', "\\", "\x7f", "/", " ", "~", "\xe9", "€",
                                           "\U0001f600", "\U0010ffff", "\ud800", "\udfff"]
TEXT = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()))
# what a polynomial prints as: strings that take the one-join path
PLAIN = st.text(st.sampled_from("x12^*+- 0/"))
INTS = st.one_of(st.integers(), st.integers(min_value=-10 ** 200, max_value=10 ** 200))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, TEXT, PLAIN)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.lists(PLAIN),
        st.lists(TEXT),
        st.dictionaries(st.one_of(TEXT, PLAIN), inner),
    ),
    max_leaves=30,
)


@given(VALUES)
def test_writes_what_json_writes(value):
    assert cli._json(value) == json.dumps(value, sort_keys=True)


@given(TEXT)
def test_writes_each_string_as_json_does(text):
    assert cli._json(text) == json.dumps(text)
    assert cli._json([text, "x1"]) == json.dumps([text, "x1"])


@pytest.mark.parametrize("value", [
    [], (), {}, [[]], [""], ["", ""], ["x1", "x2^2 + 1"], ["a", 1], [1, "a"], ["a", None],
    ['"', "b"], ['a", "b'], ["a\\", "b"], ["\x7f"], ["\xe9"], [True, False], {"b": 1, "a": [2]},
    {"": {"": []}}, 10 ** 4000, -(10 ** 4000), {"\ud800": "\U0001f600"},
], ids=repr)
def test_edge_cases(value):
    assert cli._json(value) == json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, {1, 2}, {1: "a"}, {"a": {None: 1}}, [b"x"], ["a", 1.0]],
                         ids=["float", "set", "int-key", "none-key", "bytes", "float-in-list"])
def test_other_values_and_keys_are_type_errors(value):
    with pytest.raises(TypeError):
        cli._json(value)


def test_an_int_too_long_to_print_fails_as_in_json():
    value = {"count": 10 ** 4999}
    with pytest.raises(ValueError) as ours:
        cli._json(value)
    with pytest.raises(ValueError) as theirs:
        json.dumps(value, sort_keys=True)
    assert type(ours.value) is type(theirs.value)
    assert str(ours.value) == str(theirs.value)
