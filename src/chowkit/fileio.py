"""Rings and fibration models as JSON documents.

Ring documents carry `dimension`, `cells` (codim, index, label) and
`products` (left_label, right_label, result as label/coeff pairs); omitted
products are zero and products with the unit may be left out.  Fibration
documents name their `base` and `fiber`, each a catalog name or an inline
ring document, plus a `t_products` section; `kind: trivial` omits the
table.  Structural problems raise FileFormatError with the offending path;
mathematical validation is left to the ring and model constructors.
"""

from __future__ import annotations

import json

from .fibrations import FibrationModel, trivial_fibration
from .rings import BasisCell, ChowRing


class FileFormatError(Exception):
    """A document does not have the expected shape."""


def _expect(doc, key, types, where):
    if key not in doc:
        raise FileFormatError(f"{where}: missing field {key!r}")
    value = doc[key]
    # bools are ints in Python; an int field refuses them
    if not isinstance(value, types) or (types is int and isinstance(value, bool)):
        raise FileFormatError(f"{where}.{key}: expected {types}, got {type(value).__name__}")
    return value


def _optional(doc, key, types, where, default):
    """A field that may be left out, type-checked when present."""
    return _expect(doc, key, types, where) if key in doc else default


def _coeff(value, where):
    # bools are ints in Python; reject them explicitly
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"{where}: coefficient must be an integer, got {value!r}")
    return value


def parse_ring(doc, name=None):
    """Build a ChowRing from a parsed document.  Shape errors raise
    FileFormatError; the constructor's own validation still applies."""
    if not isinstance(doc, dict):
        raise FileFormatError("ring document must be an object")
    dimension = _expect(doc, "dimension", int, "ring")
    raw_cells = _expect(doc, "cells", list, "ring")
    if dimension >= len(raw_cells):
        # a cell in each codim 0..dimension: bounds the per-codim work by the document's size
        raise FileFormatError(
            f"ring.dimension: {dimension} needs a cell in each codim 0..{dimension}, "
            f"got {len(raw_cells)} cell(s)"
        )
    cells = []
    labels = {}
    for i, entry in enumerate(raw_cells):
        where = f"cells[{i}]"
        if not isinstance(entry, dict):
            raise FileFormatError(f"{where}: expected an object")
        codim = _expect(entry, "codim", int, where)
        index = _expect(entry, "index", int, where)
        label = _expect(entry, "label", str, where)
        cell = BasisCell(codim, index, label)
        if label in labels:
            raise FileFormatError(f"{where}: duplicate label {label!r}")
        labels[label] = cell
        cells.append(cell)

    products = {}
    for i, entry in enumerate(_optional(doc, "products", list, "ring", ())):
        where = f"products[{i}]"
        if not isinstance(entry, dict):
            raise FileFormatError(f"{where}: expected an object")
        left = _expect(entry, "left_label", str, where)
        right = _expect(entry, "right_label", str, where)
        for side, label in (("left_label", left), ("right_label", right)):
            if label not in labels:
                raise FileFormatError(f"{where}.{side}: unknown cell {label!r}")
        result = {}
        for j, term in enumerate(_expect(entry, "result", list, where)):
            tw = f"{where}.result[{j}]"
            if not isinstance(term, dict):
                raise FileFormatError(f"{tw}: expected an object")
            label = _expect(term, "label", str, tw)
            if label not in labels:
                raise FileFormatError(f"{tw}.label: unknown cell {label!r}")
            result[labels[label].key] = _coeff(_expect(term, "coeff", object, tw), tw)
        pair = (labels[left].key, labels[right].key)
        if pair in products and products[pair] != result:
            raise FileFormatError(f"{where}: conflicting duplicate for {left!r} * {right!r}")
        products[pair] = result

    doc_name = _optional(doc, "name", str, "ring", None)
    return ChowRing(dimension, cells, products, name=name or doc_name)


def dump_ring(ring):
    """The document for a ring; total products listed once per unordered
    pair, unit products omitted."""
    cells = [
        {"codim": c.codim, "index": c.index, "label": c.label} for c in ring.cells
    ]
    products = []
    for a in ring.cells:
        for b in ring.cells:
            if b.key < a.key or a.codim == 0 or b.codim == 0:
                continue
            entry = ring._table[a.key].get(b.key, {})
            if not entry:
                continue
            products.append(
                {
                    "left_label": a.label,
                    "right_label": b.label,
                    "result": [
                        {"label": ring.cell(key).label, "coeff": coeff}
                        for key, coeff in sorted(entry.items())
                    ],
                }
            )
    doc = {"dimension": ring.dimension, "cells": cells, "products": products}
    if ring.name:
        doc["name"] = ring.name
    return doc


def _resolve_ring(value, where):
    if isinstance(value, str):
        from .catalog import resolve

        try:
            thing = resolve(value)
        except ValueError as e:
            raise FileFormatError(f"{where}: {e}") from e
        if not isinstance(thing, ChowRing):
            raise FileFormatError(f"{where}: {value!r} names a model, not a ring")
        return thing
    if isinstance(value, dict):
        try:
            return parse_ring(value, name=value.get("name", where))
        except FileFormatError as e:
            raise FileFormatError(f"{where}.{e}") from e
    raise FileFormatError(f"{where}: expected a catalog name or an inline ring")


def parse_fibration(doc, name=None):
    """Build a FibrationModel from a parsed document.

    The base and fiber may be catalog names or inline ring documents.  The
    generator products are listed by fiber cell label; the trivial kind
    needs no table.
    """
    if not isinstance(doc, dict):
        raise FileFormatError("fibration document must be an object")
    base = _resolve_ring(_expect(doc, "base", (str, dict), "fibration"), "fibration.base")
    fiber = _resolve_ring(_expect(doc, "fiber", (str, dict), "fibration"), "fibration.fiber")
    kind = doc.get("kind", "fibration")
    doc_name = _optional(doc, "name", str, "fibration", None)
    name = name or doc_name
    if kind == "trivial":
        if "t_products" in doc:
            raise FileFormatError("fibration: trivial kind must not carry t_products")
        return trivial_fibration(base, fiber, name=name)
    if kind != "fibration":
        raise FileFormatError(f"fibration.kind: unknown kind {kind!r}")

    def fiber_key(label, where):
        try:
            return fiber.cell(label).key
        except (KeyError, ValueError) as e:
            raise FileFormatError(f"{where}: unknown fiber cell {label!r}") from e

    t_table = {}
    for i, entry in enumerate(_expect(doc, "t_products", list, "fibration")):
        where = f"t_products[{i}]"
        if not isinstance(entry, dict):
            raise FileFormatError(f"{where}: expected an object")
        left = fiber_key(_expect(entry, "left", str, where), f"{where}.left")
        right = fiber_key(_expect(entry, "right", str, where), f"{where}.right")
        value = {}
        for j, term in enumerate(_expect(entry, "components", list, where)):
            tw = f"{where}.components[{j}]"
            if not isinstance(term, dict):
                raise FileFormatError(f"{tw}: expected an object")
            gen = fiber_key(_expect(term, "generator", str, tw), f"{tw}.generator")
            raw = _expect(term, "base_cycle", dict, tw)
            coeffs = {}
            for label, coeff in raw.items():
                try:
                    cell = base.cell(label)
                except (KeyError, ValueError) as e:
                    raise FileFormatError(
                        f"{tw}.base_cycle: unknown base cell {label!r}"
                    ) from e
                coeffs[cell.key] = _coeff(coeff, f"{tw}.base_cycle[{label!r}]")
            if gen in value:
                raise FileFormatError(f"{tw}: duplicate generator for this product")
            value[gen] = base.cycle(coeffs)
        pair = (left, right)
        if pair in t_table:
            raise FileFormatError(f"{where}: duplicate product pair")
        t_table[pair] = value
    return FibrationModel(base, fiber, t_table, name=name)


def dump_fibration(model, base_ref=None, fiber_ref=None):
    """The document for a model; pass catalog names to reference the rings
    instead of inlining them."""
    doc = {
        "base": base_ref if base_ref is not None else dump_ring(model.base),
        "fiber": fiber_ref if fiber_ref is not None else dump_ring(model.fiber),
    }
    if model.name:
        doc["name"] = model.name
    if model.is_trivial:
        doc["kind"] = "trivial"
        return doc
    fiber_label = {g: model.fiber.cell(g).label for g in model.generators}
    entries = []
    for g1 in model.generators:
        for g2 in model.generators:
            if g2 < g1 or g1[0] == 0 or g2[0] == 0:
                continue
            value = model.t_entry(g1, g2)
            components = [
                {
                    "generator": fiber_label[g],
                    "base_cycle": {
                        model.base.cell(key).label: coeff
                        for key, coeff in sorted(cyc.coeffs.items())
                    },
                }
                for g, cyc in sorted(value.items())
                if not cyc.is_zero()
            ]
            entries.append(
                {"left": fiber_label[g1], "right": fiber_label[g2], "components": components}
            )
    doc["t_products"] = entries
    return doc


# -- file round trips ----------------------------------------------------------


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise FileFormatError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise FileFormatError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}") from e


def load_ring(path, name=None):
    return parse_ring(_read_json(path), name=name)


def load_fibration(path, name=None):
    return parse_fibration(_read_json(path), name=name)


def save_ring(ring, path):
    with open(path, "w") as fh:
        json.dump(dump_ring(ring), fh, indent=2)
        fh.write("\n")


def save_fibration(model, path, base_ref=None, fiber_ref=None):
    with open(path, "w") as fh:
        json.dump(dump_fibration(model, base_ref, fiber_ref), fh, indent=2)
        fh.write("\n")
