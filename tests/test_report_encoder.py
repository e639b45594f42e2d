"""The report encoder, cli._encode_json, against json.dumps.

Every report is written by _encode_json. Its text must equal
json.dumps(doc, indent=2, sort_keys=True) byte for byte; a document with
a nan or an infinity must equal what the CLI wrote before the encoder:
json.dumps after a round trip that turns each non-finite float into null.
"""

import enum
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hpscale.cli import _encode_json


def reference(doc) -> str:
    """json.dumps(indent=2, sort_keys=True), with non-finite floats as null."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        doc = json.loads(json.dumps(doc), parse_constant=lambda _: None)
        return json.dumps(doc, indent=2, sort_keys=True)


_text = st.text(
    # quote, backslash, controls, non-ASCII, an astral character, a lone surrogate
    st.characters() | st.sampled_from('"\\/\x00\x08\x1f\x7f \xe9\U0001f600\ud800'),
    max_size=8,
)
_ints = st.integers() | st.sampled_from([2**63, -(2**63) - 1, 2**64 + 1, -(10**30)])
_floats = (
    st.floats()
    | st.sampled_from([-0.0, 5e-324, 1e16, -1e16, 1.7976931348623157e308, 0.1])
    | st.floats().map(np.float64)
)
_leaves = _text | _ints | _floats | st.booleans() | st.none()
_documents = st.recursive(
    _leaves | st.sampled_from([{}, [], ()]),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_text, inner, max_size=4),
    max_leaves=24,
)


@given(_documents)
def test_encoder_equals_json_dumps(doc):
    assert _encode_json(doc) == reference(doc)


class _Level(enum.IntEnum):
    HIGH = 3


@pytest.mark.parametrize(
    "doc",
    [
        {"int subclass": _Level.HIGH, "bool": True},
        {"nested": {"x": [1.5, {"y": ()}], "": None}, "b": [True, False, [[]]]},
        [np.float64(2.0**-9), np.float64("nan"), -0.0, 5e-324, 1e16, 2**70],
        {"é\"\\\n": "\x00\U0001f600", "a": float("-inf")},
    ],
)
def test_encoder_examples(doc):
    assert _encode_json(doc) == reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {1: "int key"},
        {"outer": {None: 1}},
        {"a": 1, 2: "mixed keys"},
        {"a": {1, 2}},
        [set()],
        {"a": np.int64(3)},
        {"a": b"bytes"},
    ],
)
def test_non_json_keys_and_values_raise_type_error(doc):
    with pytest.raises(TypeError):
        _encode_json(doc)
