"""Morphism tables as linalg sparse matrices, against the per-cell routes
they replaced, kept here as references.

``product_morphism`` is the Kronecker product of its factors' tables, where
it was built cell by cell as f^*(a) x g^*(b) through ``external_product``;
``projection_morphism`` writes its tables from keys, where it was built from
basis cycles of paired cells and the degree of the dropped factor.  Results
must agree with the old routes entry by entry, in order, coefficient types
included.
"""

from fractions import Fraction

import pytest

from chowkit import (
    MorphismData,
    act,
    external_product,
    grassmannian,
    kunneth_product,
    point,
    product_morphism,
    projection_morphism,
    projective_space,
)
from chowkit.catalog import linear_embedding
from chowkit.correspondences import _morphism, graph_from_morphism, identity_morphism
from chowkit.identities import collapse_morphism, standard_morphisms
from test_one_dict_sums import doubled_plane


def _entries(cycle):
    return [(k, v, type(v)) for k, v in cycle.coeffs.items()]


def _scaled_identity(ring, s):
    table = {k: {k: s} for k in ring.basis_keys()}
    return _morphism(ring, ring, table, table, f"{s} id_{ring.name}")


def _morphisms():
    """Validated morphisms, and rational tables (validation would refuse
    them) whose products meet integral Fractions such as 2/3 * 3/2."""
    p1, p2 = projective_space(1), projective_space(2)
    return [
        *standard_morphisms(),
        linear_embedding(1, 3),
        _scaled_identity(p1, Fraction(2, 3)),
        _scaled_identity(p2, Fraction(3, 2)),
    ]


def test_product_morphism_is_the_kronecker_product_of_the_tables():
    ms = _morphisms()
    pairs = 0
    for m1 in ms:
        for m2 in ms:
            pm = product_morphism(m1, m2)
            src, tgt = pm.source, pm.target
            assert (src, tgt) == (
                kunneth_product(m1.source, m2.source), kunneth_product(m1.target, m2.target)
            )
            for cell in tgt.cells:
                a, b = tgt.split_cell(cell)
                want = external_product(
                    m1.pullback(m1.target.basis_cycle(a)), m2.pullback(m2.target.basis_cycle(b))
                )
                got = pm.pullback(tgt.basis_cycle(cell))
                assert _entries(got) == _entries(want), (pm.name, "pullback", cell.label)
            for cell in src.cells:
                a, b = src.split_cell(cell)
                want = external_product(
                    m1.pushforward(m1.source.basis_cycle(a)), m2.pushforward(m2.source.basis_cycle(b))
                )
                got = pm.pushforward(src.basis_cycle(cell))
                assert _entries(got) == _entries(want), (pm.name, "pushforward", cell.label)
            pairs += 1
    assert pairs == len(ms) ** 2


def old_projection_tables(product, factor):
    """projection_morphism's tables as they were: pull c is the basis cycle
    of c paired with the dropped factor's unit, push (a, b) is the kept
    cell's basis cycle times the degree of the dropped one."""
    keep = product.left if factor == "left" else product.right
    drop = product.right if factor == "left" else product.left
    pull = {}
    for c in keep.cells:
        pair = (c, drop.unit_cell) if factor == "left" else (drop.unit_cell, c)
        pull[c.key] = product.basis_cycle(product.pair_cell(*pair))
    push = {}
    for cell in product.cells:
        a, b = product.split_cell(cell)
        kept, dropped = (a, b) if factor == "left" else (b, a)
        d = drop.degree(drop.basis_cycle(dropped))
        if d:
            push[cell.key] = keep.basis_cycle(kept) * d
    return pull, push


@pytest.mark.parametrize(
    "pair",
    [
        lambda: (projective_space(1), projective_space(2)),
        lambda: (grassmannian(2, 4), projective_space(1)),
        lambda: (point(), projective_space(2)),
        lambda: (doubled_plane(), projective_space(1)),
    ],
    ids=["p1xp2", "gr24xp1", "pointxp2", "doubledxp1"],
)
@pytest.mark.parametrize("factor", ["left", "right"])
def test_projection_tables_match_the_per_cell_route(pair, factor):
    product = kunneth_product(*pair())
    pr = projection_morphism(product, factor)
    pull, push = old_projection_tables(product, factor)
    for y in pr.target.cells:
        want = pull.get(y.key, product.zero())
        assert _entries(pr.pullback(pr.target.basis_cycle(y))) == _entries(want), y.label
    for x in product.cells:
        want = push.get(x.key, pr.target.zero())
        assert _entries(pr.pushforward(product.basis_cycle(x))) == _entries(want), x.label
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
    for m in _morphisms():
        c, c_t = graph_from_morphism(m)
        for table, f, ring in ((m._pull, c, m.target), (m._push, c_t, m.source)):
            for cell in ring.cells:
                got = act(f, ring.basis_cycle(cell))
                assert got.coeffs == table.get(cell.key, {}), (m.name, cell.label)
