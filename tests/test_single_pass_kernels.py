"""The single-pass kernels of the cellular verify path against their
references in oracles.py.

- ``_action_map`` writes each (column, row) entry once and sweeps zeros only
  after two terms met in an entry; the reference walks every source cell's
  pair_degree and sweeps every column.
- ``multiplication_correspondence`` (homogeneous case) builds
  u = sum_j e_j x (alpha tau_j) in one dict, and ``correspondence_from_action``
  returns through the same kernel tail; the reference goes through
  ``ring.multiply``, the public ``Cycle`` and the public ``Correspondence``.
- ``render_json`` renders a list of flat int records through one row
  template; the reference is ``json.dumps(obj, indent=2)``.
- A sum or scalar multiple of correspondences keeps their common degree.

Both sides must agree in values, int/Fraction types and key order.
"""

import enum
import io
import json
import random
from collections import OrderedDict
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from chowkit import (
    Correspondence,
    correspondence_from_action,
    diagonal,
    fiber_projectors,
    grassmannian,
    kunneth_product,
    multiplication_correspondence,
    projective_space,
    transpose,
    zero_correspondence,
)
from chowkit import cli
from chowkit.catalog import linear_embedding
from chowkit.correspondences import _action_map, graph_from_morphism
from chowkit.rings import Cycle
from chowkit.sampling import random_cycle

import oracles
from checks import check_multiplication_correspondence, same_action_map, same_correspondence
from corpus import DOUBLED, REBASED, correspondences as _correspondences, standard_rings


# -- _action_map ------------------------------------------------------------------


@pytest.mark.parametrize("ring", standard_rings() + [REBASED, DOUBLED], ids=lambda r: r.name)
def test_action_map_matches_the_two_pass_walk(ring):
    rng = random.Random(f"action map {ring.name}")
    cases = [diagonal(ring), *fiber_projectors(ring)]
    cases += [multiplication_correspondence(ring, ring.basis_cycle(c)) for c in ring.cells]
    cases += _correspondences(rng, ring, ring)
    p1 = projective_space(1)
    cases += _correspondences(rng, ring, p1) + _correspondences(rng, p1, ring)
    for f in cases:
        same_action_map(f)
        same_action_map(transpose(f))


def test_action_map_on_the_rebased_grassmannian_sums_and_cancels():
    """A middle cell of the rebased Gr(2,4) has two partners, so two terms
    meet in one entry, and their sum can cancel."""
    one = (0, 1)
    ring = kunneth_product(REBASED, projective_space(1))
    t21, t22 = (ring._pair_to_key[(a, one)] for a in ((2, 1), (2, 2)))
    # partners of s[2]: s[2] (1), s[2]+s[1,1] (1); of s[2]+s[1,1]: s[2] (1), itself (2)
    f = Correspondence(REBASED, projective_space(1), Cycle(ring, {t21: 1, t22: -1}))
    assert _action_map(f) == oracles.action_map(f) == {(2, 2): {one: -1}}
    g = Correspondence(REBASED, projective_space(1), Cycle(ring, {t21: 2, t22: -1}))
    assert _action_map(g) == oracles.action_map(g) == {(2, 1): {one: 1}}
    rng = random.Random("rebased sums")
    cancelled = 0
    for _ in range(120):
        f = Correspondence(REBASED, projective_space(1), random_cycle(rng, ring, bound=1, codim=rng.choice((2, 3))))
        for g in (f, f * Fraction(1, 3)):
            same_action_map(g)
        cancelled += any(0 in col.values() for col in oracles.action_map(f, zeros=True).values())
    assert cancelled > 15  # sums that cancel are common here, not a corner case


def test_action_map_of_zero_and_cancelling_correspondences():
    for ring in (projective_space(2), REBASED, DOUBLED):
        d = diagonal(ring)
        for f in (d - d, d * 0, d + d * -1, zero_correspondence(ring, ring)):
            assert f.is_zero()
            assert _action_map(f) == oracles.action_map(f) == {}
        same_action_map(d * Fraction(2, 3) - d * Fraction(1, 3))


def test_action_map_on_the_doubled_plane_has_rational_entries():
    d = diagonal(DOUBLED)
    # the middle dual is h/2: the diagonal holds h x h/2
    assert any(type(v) is Fraction for v in d.cycle.coeffs.values())
    same_action_map(d)
    assert _action_map(d) == {(0, 1): {(0, 1): 1}, (1, 1): {(1, 1): 1}, (2, 1): {(2, 1): 1}}


# -- multiplication_correspondence and correspondence_from_action -------------------


MULTIPLICATION_RINGS = standard_rings() + [
    REBASED,
    DOUBLED,
    grassmannian(2, 6),
    kunneth_product(projective_space(1), projective_space(2)),
    # middle duals with two terms each: an image's zero term, skipped, would
    # otherwise place its key early
    kunneth_product(REBASED, projective_space(1)),
]


@pytest.mark.parametrize("ring", MULTIPLICATION_RINGS, ids=lambda r: r.name)
def test_multiplication_correspondence_matches_the_public_route(ring):
    check_multiplication_correspondence(ring, random.Random(f"multiplication {ring.name}"))


def test_multiplication_correspondence_degrees():
    p2 = projective_space(2)
    h = p2.basis_cycle("h")
    assert multiplication_correspondence(p2, p2.zero()).offset == 0
    assert multiplication_correspondence(p2, p2.unit()) == diagonal(p2)
    assert multiplication_correspondence(p2, h).offset == 1
    assert multiplication_correspondence(p2, p2.unit() + h).offset is None
    with pytest.raises(ValueError, match="alpha must live in the ring being acted on"):
        multiplication_correspondence(p2, projective_space(1).unit())


@pytest.mark.parametrize("ring", MULTIPLICATION_RINGS, ids=lambda r: r.name)
def test_correspondence_from_action_matches_the_public_route(ring):
    rng = random.Random(f"from action {ring.name}")
    p1 = projective_space(1)
    cases = [
        (ring, ring, ring.basis_cycle, 0),
        (ring, ring, {}, 0),
        (ring, ring, lambda cell: ring.zero(), 0),
        (ring, ring, {c.key: ring.basis_cycle(c) * Fraction(1, 2) for c in ring.cells if c.codim % 2}, 0),
        (ring, p1, lambda cell: p1.basis_cycle((cell.codim, 1)) if cell.codim <= 1 else p1.zero(), 0),
        (ring, ring, lambda cell: ring.zero(), 5),
    ]
    for offset in range(-ring.dimension, ring.dimension + 1):
        images = {
            c.key: random_cycle(rng, ring, 2, codim=c.codim + offset) * Fraction(1, rng.randint(1, 3))
            for c in ring.cells
            if 0 <= c.codim + offset <= ring.dimension
        }
        cases += [(ring, ring, images, offset), (ring, ring, lambda cell, t=images: t.get(cell.key, ring.zero()), offset)]
    for source, target, action, offset in cases:
        same_correspondence(
            correspondence_from_action(source, target, action, offset),
            oracles.from_action(source, target, action, offset),
        )


def test_correspondence_from_action_on_a_morphism_graph():
    m = linear_embedding(1, 3)
    c, c_t = graph_from_morphism(m)
    pull = oracles.from_action(m.target, m.source, lambda cell: m.pullback(m.target.basis_cycle(cell)), 0)
    same_correspondence(c, pull)


@pytest.mark.parametrize("action, offset, message", [
    (lambda cell: projective_space(1).unit(), 0, "action must produce cycles on the target ring"),
    (lambda cell: projective_space(2).basis_cycle("h"), 0, r"action of 1 has codim \[1\], expected 0"),
    ({"h": projective_space(2).unit()}, 0, r"action of h has codim \[0\], expected 1"),
    (lambda cell: projective_space(2).unit(), 5, r"action of 1 has codim \[0\], expected 5"),
])
def test_correspondence_from_action_refuses_as_before(action, offset, message):
    p2 = projective_space(2)
    with pytest.raises(ValueError, match=message):
        correspondence_from_action(p2, p2, action, offset)


# -- degrees under sums and scalars ---------------------------------------------------


@pytest.mark.parametrize("ring", [projective_space(1), projective_space(2), grassmannian(2, 4), DOUBLED],
                         ids=lambda r: r.name)
def test_a_cancelling_sum_keeps_its_degree(ring):
    d = diagonal(ring)
    zeros = {tuple((0,) * ring.rank(p) for _ in range(ring.rank(p))) for p in range(ring.dimension + 1)}
    for f in (d - d, d + -d, d * 0, 0 * d, d * Fraction(1, 2) - d * Fraction(1, 2)):
        assert f.is_zero() and f.offset == 0
        for p in range(ring.dimension + 1):
            assert f.matrix(p) == zero_correspondence(ring, ring, 0).matrix(p)
            assert f.matrix(p) in zeros
    h = multiplication_correspondence(ring, ring.basis_cycle(ring.cells_of_codim(1)[0]))
    assert (h - h).offset == 1 and (h * 0).offset == 1 and (h * 3).offset == 1


def test_a_sum_of_different_degrees_derives_its_degree():
    p2 = projective_space(2)
    d, h = diagonal(p2), multiplication_correspondence(p2, p2.basis_cycle("h"))
    assert (d + h).offset is None and (d - h).offset is None
    # a mixed sum that cancels back to one degree derives it again
    assert ((d + h) - h).offset == 0
    assert (d + zero_correspondence(p2, p2)).offset == 0
    assert (zero_correspondence(p2, p2) + zero_correspondence(p2, p2)).offset is None
    with pytest.raises(ValueError, match="action_matrix needs a homogeneous correspondence"):
        (d + h).matrix(1)


# -- render_json's record template ----------------------------------------------------


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
