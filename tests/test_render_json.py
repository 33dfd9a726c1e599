"""render_json writes every report byte for byte as json.dumps(indent=2)."""

import json
import math
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from chowkit.cli import render_json

GOLDEN = pathlib.Path(__file__).parent / "golden"


def same(obj):
    assert render_json(obj) == json.dumps(obj, indent=2)


HOSTILE = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": ()},
    [[], [[]], [{}], ({},), ((),)],
    ((1, 2), ((3,), ()), (((),),)),
    {"deep": {"deeper": [{"deepest": [(), {}, []]}]}},
    {2: "int", True: "bool", None: "none", 2.5: "float", "s": "str"},
    {False: [], -1: {}, 1: (), 10**30: None},
    [-1, 0, 2**63, -(2**64) - 1, 10**40, True, False, None],
    ["\"quoted\"", "back\\slash", "\x00\x01\x1f\x7f", "tab\tnew\nline\r", "/"],
    ["é", "Ω≈ç√", "日本語", "\U0001f600", "\U0010ffff", "\ud800"],
    [1.5, -0.0, 1e300, float("inf"), float("-inf"), float("nan")],
    {"float": 0.1, "key": {3.25: 1}},
    "a bare string",
    7,
    None,
    True,
    2.0,
]


@pytest.mark.parametrize("obj", HOSTILE, ids=range(len(HOSTILE)))
def test_hostile_values(obj):
    same(obj)


def test_int_and_bool_keys_coerce_as_json_does():
    # 1 == True, so a dict holds at most one of them
    assert render_json({2: 1, True: 2, None: 3}) == '{\n  "2": 1,\n  "true": 2,\n  "null": 3\n}'
    assert render_json({1: 0, "f": {False: 0}}) == '{\n  "1": 0,\n  "f": {\n    "false": 0\n  }\n}'


def test_subclasses_render_as_their_base():
    import enum

    class Flag(enum.IntEnum):
        ON = 1

    class Label(str):
        pass

    same({Flag.ON: [Flag.ON], Label("k"): Label("v\n")})


@pytest.mark.parametrize("bad", [{(1, 2): 0}, {"x": object()}, [{1j: 0}], {1, 2}])
def test_unencodable_values_raise_as_json_does(bad):
    with pytest.raises(TypeError) as want:
        json.dumps(bad, indent=2)
    with pytest.raises(TypeError) as got:
        render_json(bad)
    assert str(got.value) == str(want.value)


GOLDEN_FILES = sorted(GOLDEN.rglob("*.json"))


def test_golden_files_exist():
    assert len(GOLDEN_FILES) >= 20


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: str(p.relative_to(GOLDEN)))
def test_golden_reports_rerender_identically(path):
    same(json.loads(path.read_text()))


leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
keys = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
trees = st.recursive(
    leaves,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(keys, children, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_random_trees(obj):
    same(obj)


def test_nan_keys_and_values_still_match():
    # float keys go through json's float text; nan and infinities are allowed
    nan = float("nan")
    same({nan: nan, math.inf: -math.inf})
