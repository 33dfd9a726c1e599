"""Morphism tables as linalg sparse matrices.

``projection_morphism`` writes its tables from keys, where its reference
in oracles.py builds them from basis cycles of paired cells and the degree
of the dropped factor; the two must agree entry by entry, in order,
coefficient types included.  (``product_morphism``, the Kronecker product
of its factors' tables, meets its reference in test_differential.py.)
Tables hold no empty column, the public constructor always validates, and
a graph acts as its tables.
"""

import pytest

from chowkit import (
    MorphismData,
    act,
    grassmannian,
    kunneth_product,
    point,
    product_morphism,
    projection_morphism,
    projective_space,
)
from chowkit.catalog import linear_embedding
from chowkit.correspondences import graph_from_morphism, identity_morphism
from chowkit.identities import collapse_morphism, standard_morphisms

import oracles
from checks import same_tables
from corpus import DOUBLED, morphisms as _morphisms


@pytest.mark.parametrize(
    "pair",
    [
        lambda: (projective_space(1), projective_space(2)),
        lambda: (grassmannian(2, 4), projective_space(1)),
        lambda: (point(), projective_space(2)),
        lambda: (DOUBLED, projective_space(1)),
    ],
    ids=["p1xp2", "gr24xp1", "pointxp2", "doubledxp1"],
)
@pytest.mark.parametrize("factor", ["left", "right"])
def test_projection_tables_match_the_per_cell_route(pair, factor):
    product = kunneth_product(*pair())
    pr = projection_morphism(product, factor)
    pull, push = oracles.projection_tables(product, factor)
    same_tables(pr, pull, push)
    # the tables pass the ring axioms the public constructor validates
    MorphismData(product, pr.target, pull, push, name=pr.name)


def test_no_table_holds_an_empty_column():
    p1 = projective_space(1)
    ms = _morphisms() + [
        product_morphism(m1, m2)
        for m1 in standard_morphisms()
        for m2 in (identity_morphism(p1), collapse_morphism())
    ]
    for m in ms:
        for table in (m._pull, m._push):
            assert all(table.values()), m.name
            assert all(all(col.values()) for col in table.values()), m.name
    # the collapse kills h: a zero pullback is a missing column
    collapse = collapse_morphism()
    assert (1, 1) not in collapse._pull and collapse.pullback(p1.basis_cycle("h")).is_zero()
    # the line misses the point class of the plane
    assert (2, 1) not in linear_embedding(1, 2)._pull


def test_the_public_constructor_always_validates():
    p1, p2 = projective_space(1), projective_space(2)
    emb = linear_embedding(1, 2)
    pull = {c.key: emb.pullback(p2.basis_cycle(c)) for c in p2.cells}
    push = {c.key: emb.pushforward(p1.basis_cycle(c)) for c in p1.cells}
    with pytest.raises(TypeError):
        MorphismData(p1, p2, pull, push, validate=False)
    with pytest.raises(ValueError, match="pullback of h must live on P\\^1"):
        MorphismData(p1, p2, {**pull, (1, 1): p2.basis_cycle("h")}, push)
    with pytest.raises(ValueError, match="pushforward of h must live on P\\^2"):
        MorphismData(p1, p2, pull, {**push, (1, 1): p1.basis_cycle("h")})
    with pytest.raises(ValueError, match="pullback of h must preserve codim 1"):
        MorphismData(p1, p2, {**pull, (1, 1): p1.unit()}, push)
    with pytest.raises(ValueError, match="pushforward of 1 must have codim 1"):
        MorphismData(p1, p2, pull, {**push, (0, 1): p2.unit()})
    # the same tables, right: the matrices hold the cycles' coefficients
    m = MorphismData(p1, p2, pull, push, name="line")
    assert m._pull == emb._pull and m._push == emb._push


def test_a_graph_acts_as_its_tables():
    # act walks the cycle, independently of the action map that
    # graph_from_morphism checks the tables against
    # the thirds table breaks adjointness, so it has no graph
    for m in [m for m in _morphisms() if m.name != "thirds"]:
        c, c_t = graph_from_morphism(m)
        for table, f, ring in ((m._pull, c, m.target), (m._push, c_t, m.source)):
            for cell in ring.cells:
                got = act(f, ring.basis_cycle(cell))
                assert got.coeffs == table.get(cell.key, {}), (m.name, cell.label)
