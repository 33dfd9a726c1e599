"""Correspondence algebra: act, compose, transpose, tensor, morphism data."""

from fractions import Fraction

import pytest

from chowkit import (
    Correspondence,
    MorphismData,
    act,
    action_matrix,
    compose,
    constant_morphism,
    correspondence_from_action,
    diagonal,
    dual_basis_cycles,
    external_product,
    graph_from_morphism,
    identity_morphism,
    kunneth_product,
    multiplication_correspondence,
    product_morphism,
    projection_morphism,
    tensor,
    transpose,
    zero_correspondence,
)
from chowkit.catalog import grassmannian, linear_embedding, point, projective_space
from chowkit.identities import collapse_morphism
from chowkit.rings import BasisCell, ChowRing


def test_dual_basis_cycles_delta_ring():
    g = grassmannian(2, 4)
    for p in range(5):
        duals = dual_basis_cycles(g, p)
        cells = g.cells_of_codim(p)
        for j, e in enumerate(duals):
            for k, cell in enumerate(cells):
                d = g.degree(g.multiply(e, g.basis_cycle(cell)))
                assert d == (1 if j == k else 0)


def test_dual_basis_cycles_rescaled_ring():
    cells = [BasisCell(0, 1, "1"), BasisCell(1, 1, "h"), BasisCell(2, 1, "pt")]
    r = ChowRing(2, cells, {((1, 1), (1, 1)): {(2, 1): 2}}, name="doubled")
    (e,) = dual_basis_cycles(r, 1)
    assert r.degree(r.multiply(e, r.basis_cycle("h"))) == 1
    assert e.coeffs == {(1, 1): Fraction(1, 2)}


def test_dual_basis_cycles_degenerate_raises():
    cells = [BasisCell(0, 1, "1"), BasisCell(1, 1, "h"), BasisCell(2, 1, "pt")]
    r = ChowRing(2, cells, {}, name="degenerate")
    with pytest.raises(ValueError, match="degenerate"):
        dual_basis_cycles(r, 1)


def test_dual_basis_cycles_cached_per_ring_and_codim():
    from corpus import degenerate_surface_doc

    from chowkit.fileio import parse_ring

    g = grassmannian(2, 4)
    first = {p: dual_basis_cycles(g, p) for p in range(5)}
    for p in range(5):
        assert dual_basis_cycles(g, p) == first[p]
    # a failed inversion is not cached: the same error comes back every call
    degenerate = parse_ring(degenerate_surface_doc(), name="degenerate surface")
    for _ in range(2):
        with pytest.raises(ValueError, match="pairing at codim 1 is degenerate"):
            dual_basis_cycles(degenerate, 1)
    cells = [BasisCell(0, 1, "1"), BasisCell(1, 1, "a"), BasisCell(1, 2, "b"),
             BasisCell(2, 1, "c"), BasisCell(3, 1, "pt")]
    lopsided = ChowRing(3, cells, {}, name="lopsided")
    for _ in range(2):
        with pytest.raises(ValueError, match="different ranks"):
            dual_basis_cycles(lopsided, 1)


def test_diagonal_is_identity_correspondence():
    for ring in (point(), projective_space(1), projective_space(2), grassmannian(2, 4)):
        d = diagonal(ring)
        assert d.offset == 0
        for cell in ring.cells:
            x = ring.basis_cycle(cell)
            assert act(d, x) == x


def test_diagonal_frozen_cycle_p1():
    p1 = projective_space(1)
    d = diagonal(p1)
    ring = d.ring
    assert d.cycle == ring.cycle(
        {ring.cell("(h,1)").key: 1, ring.cell("(1,h)").key: 1}
    )


def test_correspondence_offset_inference():
    p1 = projective_space(1)
    ring = kunneth_product(p1, p1)
    f = Correspondence(p1, p1, ring.basis_cycle("(h,h)"))
    assert f.offset == 1
    mixed = Correspondence(p1, p1, ring.basis_cycle("(h,h)") + ring.unit())
    assert mixed.offset is None
    with pytest.raises(ValueError, match="homogeneous"):
        Correspondence(p1, p1, ring.unit(), offset=1)
    with pytest.raises(ValueError, match="must live on"):
        Correspondence(p1, p1, p1.unit())


def test_declared_offset_refuses_a_cycle_off_its_codim():
    p1, p2 = projective_space(1), projective_space(2)
    ring = kunneth_product(p1, p2)
    codim_1 = ring.cycle({"(h,1)": 2, "(1,h)": -1})
    codim_2 = ring.cycle({"(h,h)": 1})
    stray = codim_1 + ring.cycle({"(1,h^2)": 5})  # one term off codim 1
    for offset, cycle in ((0, codim_1), (1, codim_2)):
        assert Correspondence(p1, p2, cycle, offset=offset).offset == offset
    for offset, cycle in ((0, stray), (0, codim_2), (1, codim_1)):
        with pytest.raises(ValueError, match=rf"^cycle is not homogeneous of codim {1 + offset}$"):
            Correspondence(p1, p2, cycle, offset=offset)
        assert Correspondence(p1, p2, cycle, offset=None).offset is None


def test_multiplication_correspondence_acts_as_multiplication():
    g = grassmannian(2, 4)
    alpha = g.cycle({"s[1]": 2})
    m = multiplication_correspondence(g, alpha)
    assert m.offset == 1
    for cell in g.cells:
        x = g.basis_cycle(cell)
        assert act(m, x) == g.multiply(alpha, x)
    # inhomogeneous multipliers work componentwise
    beta = g.unit() + g.basis_cycle("s[2]")
    mm = multiplication_correspondence(g, beta)
    assert act(mm, g.basis_cycle("s[1]")) == g.multiply(beta, g.basis_cycle("s[1]"))


def test_compose_diagonals_and_offsets():
    p2 = projective_space(2)
    d = diagonal(p2)
    assert compose(d, d) == d
    m = multiplication_correspondence(p2, p2.basis_cycle("h"))
    m2 = compose(m, m)
    assert m2.offset == 2
    assert m2 == multiplication_correspondence(p2, p2.basis_cycle("h^2"))
    with pytest.raises(ValueError, match="compose"):
        compose(multiplication_correspondence(projective_space(1), projective_space(1).unit()), d)


def test_compose_acts_like_composition():
    p1, p2 = projective_space(1), projective_space(2)
    f = correspondence_from_action(p1, p2, lambda c: p2.basis_cycle((c.codim, 1)), 0)
    g = correspondence_from_action(p2, p1, lambda c: p1.zero() if c.codim > 1 else p1.basis_cycle((c.codim, 1)), 0)
    gf = compose(g, f)
    for cell in p1.cells:
        x = p1.basis_cycle(cell)
        assert act(gf, x) == act(g, act(f, x))


def test_transpose_involution_and_degree():
    p1, p2 = projective_space(1), projective_space(2)
    f = correspondence_from_action(p1, p2, lambda c: p2.basis_cycle((c.codim + 1, 1)), 1)
    ft = transpose(f)
    assert ft.source is p2 and ft.target is p1
    assert ft.offset == 1 + 1 - 2
    assert transpose(ft) == f


def test_tensor_acts_componentwise():
    p1, p2 = projective_space(1), projective_space(2)
    f = multiplication_correspondence(p1, p1.basis_cycle("h"))
    g = multiplication_correspondence(p2, p2.basis_cycle("h"))
    fg = tensor(f, g)
    src = fg.source
    x = external_product(p1.unit(), p2.basis_cycle("h"))
    got = act(fg, x)
    want = external_product(p1.basis_cycle("h"), p2.cycle({"h^2": 1}))
    assert got == want


def test_correspondence_from_action_roundtrip():
    g = grassmannian(2, 4)

    def action(cell):
        return g.multiply(g.basis_cycle("s[1]"), g.basis_cycle(cell))

    f = correspondence_from_action(g, g, action, 1)
    for cell in g.cells:
        assert act(f, g.basis_cycle(cell)) == action(cell)
    with pytest.raises(ValueError, match="codim"):
        correspondence_from_action(g, g, action, 2)


def test_action_matrix_frozen():
    p2 = projective_space(2)
    m = multiplication_correspondence(p2, p2.basis_cycle("h"))
    assert action_matrix(m, 0) == ((1,),)
    assert action_matrix(m, 1) == ((1,),)
    assert action_matrix(m, 2) == ()
    g = grassmannian(2, 4)
    s1 = multiplication_correspondence(g, g.basis_cycle("s[1]"))
    assert action_matrix(s1, 1) == ((1,), (1,))
    assert action_matrix(s1, 2) == ((1, 1),)
    with pytest.raises(ValueError):
        action_matrix(zero_correspondence(p2, p2), 0)  # offset None: no grading
    assert zero_correspondence(p2, p2, offset=0).matrix(0) == ((0,),)


def test_zero_correspondence_annihilates():
    p1, p2 = projective_space(1), projective_space(2)
    z = zero_correspondence(p1, p2)
    assert z.is_zero()
    assert act(z, p1.basis_cycle("h")).is_zero()


def test_correspondence_algebra():
    p2 = projective_space(2)
    d = diagonal(p2)
    two = d + d
    assert act(two, p2.basis_cycle("h")) == 2 * p2.basis_cycle("h")
    assert (two - 2 * d).is_zero()
    assert (-d).cycle == -d.cycle
    with pytest.raises(ValueError, match="different ring pairs"):
        d + diagonal(projective_space(1))


def test_ambient_act_extends_identity():
    p1, p2 = projective_space(1), projective_space(2)
    f = multiplication_correspondence(p2, p2.basis_cycle("h"))
    amb = kunneth_product(p1, p2)
    c = external_product(p1.basis_cycle("h"), p2.basis_cycle("h"))
    got = act(tensor(diagonal(p1), f), c)  # id_P^1 x f
    want = external_product(p1.basis_cycle("h"), p2.cycle({"h^2": 1}))
    assert got == want


def test_identity_and_constant_morphisms():
    p2 = projective_space(2)
    idm = identity_morphism(p2)
    assert idm.pullback(p2.basis_cycle("h")) == p2.basis_cycle("h")
    cm = constant_morphism(p2, point())
    assert cm.pullback(point().unit()) == p2.unit()
    assert cm.pushforward(p2.basis_cycle("h^2")) == point().unit()
    assert cm.pushforward(p2.basis_cycle("h")).is_zero()
    with pytest.raises(ValueError):
        constant_morphism(p2, projective_space(1))


def test_projection_morphism_tables():
    p1, p2 = projective_space(1), projective_space(2)
    prod = kunneth_product(p1, p2)
    pr = projection_morphism(prod, "left")
    assert pr.pullback(p1.basis_cycle("h")) == prod.basis_cycle("(h,1)")
    # pushforward integrates the right factor: only its point cell survives
    assert pr.pushforward(prod.basis_cycle("(h,h^2)")) == p1.basis_cycle("h")
    assert pr.pushforward(prod.basis_cycle("(h,h)")).is_zero()


def test_morphism_data_validation_catches_bad_tables():
    p1, p2 = projective_space(1), projective_space(2)
    pull = {"1": p1.unit(), "h": p1.basis_cycle("h"), "h^2": p1.zero()}
    push = {"1": p2.basis_cycle("h"), "h": p2.basis_cycle("h^2")}
    from chowkit import MorphismData

    f = MorphismData(p1, p2, pull, push, name="P1 in P2")
    assert f.shift == 1
    # wrong codim in the pullback is rejected before the law checks
    with pytest.raises(ValueError, match="codim"):
        MorphismData(p1, p2, {"1": p1.unit(), "h": p1.unit()}, push)
    # a pullback with h -> 0 but h^2 -> h^2 breaks multiplicativity at (h, h)
    with pytest.raises(ValueError, match="multiplicative"):
        MorphismData(
            p2,
            p2,
            {"1": p2.unit(), "h": p2.zero(), "h^2": p2.basis_cycle("h^2")},
            {},
        )


def test_graph_from_morphism_acts_as_both_tables():
    emb = linear_embedding(1, 2)
    c, c_t = graph_from_morphism(emb)
    p1, p2 = emb.source, emb.target
    assert act(c, p2.basis_cycle("h")) == p1.basis_cycle("h")
    assert act(c_t, p1.unit()) == p2.basis_cycle("h")
    # f_* f^* = multiplication by the image class
    both = compose(c_t, c)
    assert both == multiplication_correspondence(p2, p2.basis_cycle("h"))


def test_product_morphism_componentwise():
    p1, p2 = projective_space(1), projective_space(2)
    pm = product_morphism(identity_morphism(p1), linear_embedding(1, 2))
    src = pm.source
    x = external_product(p1.basis_cycle("h"), p1.unit())
    assert pm.pushforward(x) == external_product(p1.basis_cycle("h"), p2.basis_cycle("h"))


# -- mutation tests of the morphism laws --------------------------------------


def tables(m):
    """m's pullback and pushforward tables, every cell listed."""
    pull = {c.key: m.pullback(m.target.basis_cycle(c)) for c in m.target.cells}
    push = {c.key: m.pushforward(m.source.basis_cycle(c)) for c in m.source.cells}
    return pull, push


def perturbed_tables(m):
    """m's tables with +1 on one coefficient of one pullback or pushforward
    entry, codim kept: (perturbed cell's ring, its label, pull, push)."""
    src, tgt = m.source, m.target
    pull, push = tables(m)
    for cell in tgt.cells:
        for hit in src.cells_of_codim(cell.codim):
            yield tgt, cell.label, {**pull, cell.key: pull[cell.key] + src.basis_cycle(hit)}, push
    for cell in src.cells:
        for hit in tgt.cells_of_codim(cell.codim + m.shift):
            yield src, cell.label, pull, {**push, cell.key: push[cell.key] + tgt.basis_cycle(hit)}


def named_cells(m, message):
    """The (ring, label) pairs a MorphismData validation error names: the
    pair it fails at, and the cells of the product whose table entry the
    failing identity reads."""
    law = message.split(": ", 1)[1]
    if " at (" in law:
        pair, product = law.split(" at (", 1)[1].rsplit("), ", 1)
        left, right = pair.split(", ")
        terms = product.split(" = ")[-1].removeprefix("product ").split(" ")
        cells = {term.lstrip("-").split("*")[-1] for term in terms if term not in ("+", "-")}
        if law.startswith("pullback not multiplicative"):
            return {(m.target, label) for label in {left, right} | cells}
        return {(m.source, left), (m.target, right)} | {(m.source, label) for label in cells}
    if law.startswith("pushforward changes the degree of "):
        return {(m.source, law.rsplit(" of ", 1)[1])}
    assert law.startswith("pullback of ") and law.endswith(" is not the unit"), message
    return {(m.target, law[len("pullback of "):-len(" is not the unit")])}


def p1xp2_projection(factor):
    prod = kunneth_product(projective_space(1), projective_space(2))
    return projection_morphism(prod, factor)


@pytest.mark.parametrize(
    "make",
    [
        lambda: linear_embedding(1, 2),
        collapse_morphism,
        lambda: p1xp2_projection("left"),
        lambda: p1xp2_projection("right"),
    ],
    ids=["embedding", "collapse", "pr-left", "pr-right"],
)
def test_morphism_data_names_a_perturbed_entry(make):
    m = make()
    # the projections are built unvalidated; their tables pass validation
    MorphismData(m.source, m.target, *tables(m), name=m.name)
    # every perturbation breaks a law: none of these tables has a legal +1
    perturbations = 0
    for ring, label, pull, push in perturbed_tables(m):
        perturbations += 1
        with pytest.raises(ValueError) as failure:
            MorphismData(m.source, m.target, pull, push, name=m.name)
        assert (ring, label) in named_cells(m, str(failure.value)), (label, str(failure.value))
    assert perturbations > 0
