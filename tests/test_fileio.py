"""JSON documents for rings and fibration models, with located shape errors."""

import json

import pytest

from chowkit import (
    FibrationModel,
    FileFormatError,
    dump_fibration,
    dump_ring,
    grassmannian,
    hirzebruch,
    kunneth_product,
    load_fibration,
    load_ring,
    parse_fibration,
    parse_ring,
    projective_space,
    save_fibration,
    save_ring,
    trivial_fibration,
)

from corpus import ENTRIES, standard_rings


def p2_doc():
    return {
        "name": "plane",
        "dimension": 2,
        "cells": [
            {"codim": 0, "index": 1, "label": "1"},
            {"codim": 1, "index": 1, "label": "h"},
            {"codim": 2, "index": 1, "label": "h^2"},
        ],
        "products": [
            {"left_label": "h", "right_label": "h", "result": [{"label": "h^2", "coeff": 1}]},
        ],
    }


def test_parse_ring_minimal():
    ring = parse_ring(p2_doc())
    assert ring.name == "plane"
    assert ring.ranks == (1, 1, 1)
    assert ring.multiply(ring.basis_cycle("h"), ring.basis_cycle("h")) == ring.basis_cycle("h^2")


def test_ring_roundtrip_semantic():
    for ring in (projective_space(3), grassmannian(2, 4)):
        doc = dump_ring(ring)
        back = parse_ring(json.loads(json.dumps(doc)))
        assert back.ranks == ring.ranks
        for a in ring.cells:
            for b in ring.cells:
                got = back.multiply(back.basis_cycle(a.label), back.basis_cycle(b.label))
                want = ring.multiply(ring.basis_cycle(a), ring.basis_cycle(b))
                assert got.coeffs == want.coeffs


@pytest.mark.parametrize(
    "make",
    [lambda ring=ring: ring for ring in standard_rings()]
    + [
        lambda: projective_space(30),
        lambda: kunneth_product(projective_space(1), grassmannian(2, 4)),
        lambda: kunneth_product(grassmannian(2, 4), projective_space(3)),
    ],
    ids=lambda make: make().name,
)
def test_ring_document_roundtrip_is_exact(make):
    # parse_ring validates, so each document also passes the associativity certificate
    doc = dump_ring(make())
    assert dump_ring(parse_ring(json.loads(json.dumps(doc)))) == doc


def test_dump_ring_omits_unit_and_zero_products():
    doc = dump_ring(projective_space(2))
    pairs = {(e["left_label"], e["right_label"]) for e in doc["products"]}
    assert pairs == {("h", "h")}


def test_parse_ring_shape_errors():
    with pytest.raises(FileFormatError, match="ring document must be an object"):
        parse_ring([1, 2])
    doc = p2_doc()
    del doc["dimension"]
    with pytest.raises(FileFormatError, match="missing field 'dimension'"):
        parse_ring(doc)
    doc = p2_doc()
    doc["cells"][1]["label"] = "1"
    with pytest.raises(FileFormatError, match=r"cells\[1\]: duplicate label '1'"):
        parse_ring(doc)
    doc = p2_doc()
    doc["products"][0]["right_label"] = "nope"
    with pytest.raises(FileFormatError, match=r"products\[0\].right_label: unknown cell 'nope'"):
        parse_ring(doc)
    doc = p2_doc()
    doc["products"][0]["result"][0]["coeff"] = True
    with pytest.raises(FileFormatError, match="coefficient must be an integer, got True"):
        parse_ring(doc)
    doc = p2_doc()
    doc["products"][0]["result"][0]["coeff"] = 1.5
    with pytest.raises(FileFormatError, match="coefficient must be an integer"):
        parse_ring(doc)


def test_parse_ring_checks_optional_fields_when_present():
    doc = p2_doc()
    doc["products"] = 5
    with pytest.raises(FileFormatError, match=r"^ring\.products: expected <class 'list'>, got int$"):
        parse_ring(doc)
    doc = p2_doc()
    doc["name"] = ["x"]
    with pytest.raises(FileFormatError, match=r"^ring\.name: expected <class 'str'>, got list$"):
        parse_ring(doc)
    # an explicit name does not excuse a malformed one in the document
    with pytest.raises(FileFormatError, match=r"^ring\.name: "):
        parse_ring(doc, name="plane")
    doc = p2_doc()
    del doc["products"], doc["name"]  # both may be left out
    assert parse_ring(doc).ranks == (1, 1, 1)


def test_parse_fibration_checks_its_name():
    doc = dump_fibration(hirzebruch(1), base_ref="p1", fiber_ref="p1")
    doc["name"] = ["x"]
    with pytest.raises(FileFormatError, match=r"^fibration\.name: expected <class 'str'>, got list$"):
        parse_fibration(doc)
    with pytest.raises(FileFormatError, match=r"^fibration\.name: "):
        parse_fibration({"base": "p1", "fiber": "p1", "kind": "trivial", "name": 7})
    # an inline ring's name is checked as that ring's, located on its side
    inline = {"base": "p1", "fiber": dict(p2_doc(), name=3), "kind": "trivial"}
    with pytest.raises(
        FileFormatError, match=r"^fibration\.fiber\.ring\.name: expected <class 'str'>, got int$"
    ):
        parse_fibration(inline)
    doc["name"] = "twisted plane"
    assert parse_fibration(doc).name == "twisted plane"


def test_parse_ring_conflicting_duplicates():
    doc = p2_doc()
    doc["products"].append(
        {"left_label": "h", "right_label": "h", "result": [{"label": "h^2", "coeff": 3}]}
    )
    with pytest.raises(FileFormatError, match="conflicting duplicate"):
        parse_ring(doc)
    # an exact repeat is tolerated
    doc["products"][1]["result"][0]["coeff"] = 1
    assert parse_ring(doc).ranks == (1, 1, 1)


def test_parse_ring_leaves_math_to_the_constructor():
    doc = p2_doc()
    doc["products"][0]["result"] = [{"label": "h", "coeff": 1}]  # h*h = h: bad grading
    with pytest.raises(ValueError, match="grading"):
        parse_ring(doc)


def test_fibration_roundtrip_twisted():
    m = hirzebruch(2)
    doc = dump_fibration(m)
    back = parse_fibration(json.loads(json.dumps(doc)))
    assert [back.rank(p) for p in range(3)] == [m.rank(p) for p in range(3)]
    assert not back.is_trivial
    # the twist survives: T[h^0-ish generators] multiply identically
    for g1 in m.generators:
        for g2 in m.generators:
            want = m.multiply(m.generator(g1), m.generator(g2))
            got = back.multiply(back.generator(g1), back.generator(g2))
            assert got.vector() == want.vector()


def products(model):
    """A model's table as plain data: {(g1, g2): {g: base coefficients}}."""
    return {(g1, g2): {g: c.coeffs for g, c in model.t_entry(g1, g2).items()}
            for g1 in model.generators for g2 in model.generators}


CORPUS_MODELS = [m for kind in ("model", "extended model", "broken model") for m in ENTRIES[kind].values()]


@pytest.mark.parametrize("model", CORPUS_MODELS, ids=lambda m: m.name)
def test_is_trivial_is_read_off_the_table(model):
    # the same table through the public constructor, and the product table
    rebuilt = FibrationModel(model.base, model.fiber, {pair: model.t_entry(*pair) for pair in products(model)})
    product = products(trivial_fibration(model.base, model.fiber))
    assert model.is_trivial == rebuilt.is_trivial == (products(model) == product)


def test_the_corpus_holds_trivial_and_twisted_models():
    assert {m.is_trivial for m in CORPUS_MODELS} == {True, False}


@pytest.mark.parametrize("a", [0, 1, 2])
def test_a_table_from_the_public_constructor_survives_a_round_trip(a):
    h = hirzebruch(a)
    model = FibrationModel(h.base, h.fiber, {pair: h.t_entry(*pair) for pair in products(h)})
    doc = dump_fibration(model)
    # only the untwisted surface P^1 x P^1 is written as the trivial kind
    assert doc.get("kind") == ("trivial" if a == 0 else None)
    assert ("t_products" in doc) == (a != 0)
    assert products(parse_fibration(json.loads(json.dumps(doc)))) == products(h)


def test_fibration_roundtrip_with_catalog_refs():
    m = hirzebruch(1)
    doc = dump_fibration(m, base_ref="p1", fiber_ref="p1")
    assert doc["base"] == "p1" and doc["fiber"] == "p1"
    back = parse_fibration(doc, name="again")
    assert back.name == "again"
    assert back.base is m.base  # catalog rings are shared


def test_trivial_fibration_document():
    m = trivial_fibration(projective_space(1), projective_space(2))
    doc = dump_fibration(m)
    assert doc["kind"] == "trivial"
    assert "t_products" not in doc
    back = parse_fibration(doc)
    assert back.is_trivial
    doc["t_products"] = []
    with pytest.raises(FileFormatError, match="must not carry t_products"):
        parse_fibration(doc)


def test_parse_fibration_shape_errors():
    with pytest.raises(FileFormatError, match="fibration.base: unknown catalog name"):
        parse_fibration({"base": "p1x", "fiber": "p1", "kind": "trivial"})
    with pytest.raises(FileFormatError, match="names a model, not a ring"):
        parse_fibration({"base": "hirzebruch:1", "fiber": "p1", "kind": "trivial"})
    with pytest.raises(FileFormatError, match="unknown kind 'twisted'"):
        parse_fibration({"base": "p1", "fiber": "p1", "kind": "twisted"})
    doc = dump_fibration(hirzebruch(1), base_ref="p1", fiber_ref="p1")
    doc["t_products"][0]["left"] = "zzz"
    with pytest.raises(FileFormatError, match=r"t_products\[0\].left: unknown fiber cell 'zzz'"):
        parse_fibration(doc)
    doc = dump_fibration(hirzebruch(1), base_ref="p1", fiber_ref="p1")
    doc["t_products"][0]["components"][0]["base_cycle"] = {"nope": 1}
    with pytest.raises(FileFormatError, match="unknown base cell 'nope'"):
        parse_fibration(doc)


def test_file_roundtrip(tmp_path):
    rp = tmp_path / "ring.json"
    save_ring(grassmannian(2, 4), rp)
    ring = load_ring(rp)
    assert ring.ranks == (1, 1, 2, 1, 1)

    fp = tmp_path / "model.json"
    save_fibration(hirzebruch(1), fp, base_ref="p1", fiber_ref="p1")
    model = load_fibration(fp)
    assert [model.rank(p) for p in range(3)] == [1, 2, 1]

    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 1,\n  "cells": oops}')
    with pytest.raises(FileFormatError, match="invalid JSON at line 2"):
        load_ring(bad)
    with pytest.raises(FileFormatError, match="cannot read"):
        load_ring(tmp_path / "absent.json")
