"""render_json writes every report byte for byte as json.dumps(indent=2).

A list of flat int records renders through one row template (cli._records);
every other list takes the general path.
"""

import enum
import io
import json
import math
import pathlib
from collections import OrderedDict
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from chowkit import cli
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


# -- the record template -------------------------------------------------------------


class Small(enum.IntEnum):
    ONE = 1


class Key(str):
    pass


def _rows(*rows):
    return [dict(r) for r in rows]


TEMPLATED = {
    "rank rows": _rows({"degree": 0, "codim": 0, "rank": 1}, {"degree": 1, "codim": 0, "rank": 0}),
    "negative and 300 digits": _rows({"a": -7, "b": 10**300}, {"a": -(10**299), "b": 0}),
    "one row": _rows({"rank": 3}),
    "tuple of rows": tuple(_rows({"x": 1, "y": 2}, {"x": 3, "y": 4})),
    "non-ascii and escaped keys": _rows(
        {"é": 1, "日本": 2, '"q"': 3, "back\\slash": 4, "tab\t\n": 5, "\x00": 6, "\U0001f600": 7},
        {"é": -1, "日本": -2, '"q"': -3, "back\\slash": -4, "tab\t\n": -5, "\x00": -6, "\U0001f600": -7},
    ),
    "percent keys": _rows({"50%": 1, "%d": 2, "%%s": 3, "%(x)s": 4}, {"50%": 5, "%d": 6, "%%s": 7, "%(x)s": 8}),
    "empty key": _rows({"": 1}, {"": 2}),
}


UNTEMPLATED = {
    "empty list": [],
    "empty tuple": (),
    "a True value": _rows({"a": 1, "b": True}, {"a": 2, "b": 3}),
    "a False first value": _rows({"a": False}, {"a": 0}),
    "an IntEnum value": _rows({"a": 1}, {"a": Small.ONE}),
    "another key order": _rows({"a": 1, "b": 2}, {"b": 3, "a": 4}),
    "another key set": _rows({"a": 1, "b": 2}, {"a": 3, "c": 4}),
    "a shorter row": _rows({"a": 1, "b": 2}, {"a": 3}),
    "a longer row": _rows({"a": 1}, {"a": 3, "b": 4}),
    "empty rows": _rows({}, {}),
    "a float value": _rows({"a": 1}, {"a": 1.0}),
    "a None value": _rows({"a": None}, {"a": 1}),
    "a str value": _rows({"a": "1"}, {"a": 1}),
    "a nested list": _rows({"a": [1, 2]}, {"a": [3]}),
    "a nested dict": _rows({"a": {"b": 1}}, {"a": {"b": 2}}),
    "int keys": _rows({1: 2}, {1: 3}),
    "a str subclass key": [{Key("a"): 1}, {Key("a"): 2}],
    "a dict subclass row": [OrderedDict(a=1), OrderedDict(a=2)],
    "a later dict subclass row": [{"a": 1}, OrderedDict(a=2)],
    "a non-dict row": [{"a": 1}, [1]],
    "a None row": [{"a": 1}, None],
    "a bare int list": [1, 2, 3],
}


@pytest.mark.parametrize("rows", TEMPLATED.values(), ids=TEMPLATED.keys())
def test_records_render_through_the_template_as_json_does(rows):
    assert cli._records(rows, "\n  ") is not None
    for obj in (rows, {"table": rows, "violations": []}, [rows, {"inner": [rows]}]):
        assert cli.render_json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("rows", UNTEMPLATED.values(), ids=UNTEMPLATED.keys())
def test_other_lists_take_the_general_path_as_json_does(rows):
    assert cli._records(rows, "\n  ") is None
    for obj in (rows, {"table": rows}, [[rows]]):
        assert cli.render_json(obj) == json.dumps(obj, indent=2)


def test_the_ck_document_renders_as_json_does():
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["ck", "--catalog", "p30", "--format", "json"]) == 0
    doc = json.loads(out.getvalue())
    table = doc["suites"][0]["data"]["action"]["table"]
    # the dense rank table, zeros included: 61 degrees x 31 codims
    assert len(table) == 61 * 31 and cli._records(table, "\n  ") is not None
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n" == cli.render_json(doc) + "\n"
