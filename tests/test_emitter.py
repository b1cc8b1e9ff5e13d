"""The one-pass report emitter writes exactly what rounding every float to 12
significant digits and then ``json.dumps(indent=2)`` wrote."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_json as reference
from qwitness.cli import build_config, emit_json, make_parser

CONFIG = build_config(make_parser().parse_args(["analyze", "--range", "2", "9", "--question", "composite"]))

scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
# lists of rows of one width take the emitter's column-wise path
rows = st.integers(min_value=1, max_value=4).flatmap(
    lambda width: st.lists(st.lists(scalars, min_size=width, max_size=width), max_size=6)
)
documents = st.recursive(
    scalars | rows,
    lambda children: st.lists(children, max_size=6) | st.dictionaries(st.text(max_size=8), children, max_size=6),
    max_leaves=25,
)
bodies = st.dictionaries(st.text(max_size=8), documents, max_size=6)


def assert_same_bytes(body):
    assert emit_json("report", body, "analyze", CONFIG) == reference.emit_json(
        "report", body, "analyze", CONFIG
    )


@given(bodies)
@settings(max_examples=200, deadline=None)
@example({"zeros": [0.0, -0.0], "columns": [[1, -0.0], [2, 0.0]], "first": [-0.0, 0.0]})
@example({"special": [math.nan, math.inf, -math.inf], "row": [[math.nan, -math.inf]]})
@example({"large": 1e16, "small": 1e-7, "to_integer": [2.9999999999999, 123456789012.7]})
@example({"text": ["quote \" backslash \\ newline \n tab \t nul \x00", "é ∑ 😀", ""]})
@example({"empty": [[], {}, [[]], [{}], {"a": []}], "nested": {}})
@example({"mixed": [[1, 2.5], [3, [4]]], "dict_row": [[1, 2], [3, {"x": 0.1}]]})
@example({"widths": [[1, 2], [3]], "empty_row": [[1], []], "rows": [[0, 0.5, -0.0], [4, 1e-13, 0.0]]})
def test_matches_rounding_then_json_dumps(body):
    assert_same_bytes(body)


def test_a_dict_shared_across_keys_and_levels():
    """One dict object under two keys of one dict and at two deeper levels:
    the text kept for a dict at one level must not be reused at another."""
    shared = {"entropy_bits": 0.123456789012345, "blocks": [[2, [4, 6]], [3, [9]]]}
    body = {"primary": shared, "assigned": shared, "nested": {"again": shared}, "listed": [shared]}
    assert_same_bytes(body)


def test_float_subclass_is_rounded_like_a_float():
    np = pytest.importorskip("numpy")
    assert_same_bytes({"x": np.float64(0.1234567890123456), "xs": [np.float64(-0.0), 1.5]})


def test_non_string_keys_rejected():
    with pytest.raises(TypeError, match="keys must be strings"):
        emit_json("report", {1: 2}, "analyze", CONFIG)


def test_unsupported_values_rejected():
    with pytest.raises(TypeError, match="not JSON serializable"):
        emit_json("report", {"x": {1, 2}}, "analyze", CONFIG)
