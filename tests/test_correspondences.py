"""Correspondence algebra: act, compose, transpose, tensor, morphism data."""

import random
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
from chowkit.correspondences import _action_map
from chowkit.fileio import dump_ring, parse_ring
from chowkit.identities import collapse_morphism, standard_morphisms
from chowkit.rings import BasisCell, ChowRing, Cycle
from chowkit.sampling import random_cycle

import oracles
from checks import same_action_map, same_correspondence
from corpus import DOUBLED, REBASED, morphisms
from oracles import entries


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
    assert action_matrix(zero_correspondence(p2, p2, offset=0), 0) == ((0,),)


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


# -- kept plans, cancellation, degrees and morphism tables ----------------------------


def test_cancelling_terms_leave_no_zero():
    """Terms that cancel exactly, in compose and act (the rebased Gr(2,4)
    test below cancels whole columns of _action_map)."""
    p1, p2, g24 = projective_space(1), projective_space(2), grassmannian(2, 4)
    s2, s11 = (2, 1), (2, 2)  # self-dual middle cells of Gr(2,4)
    one = (0, 1)
    fr, gr = kunneth_product(p1, g24), kunneth_product(g24, p2)
    # 1 x s2 - 1 x s11 followed by s2 x 1 + s11 x 1: 1 x 1 - 1 x 1
    f = Correspondence(p1, g24, Cycle(fr, {fr._pair_to_key[(one, s2)]: 1, fr._pair_to_key[(one, s11)]: -1}))
    g = Correspondence(g24, p2, Cycle(gr, {gr._pair_to_key[(s2, one)]: 1, gr._pair_to_key[(s11, one)]: 1}))
    assert compose(g, f).cycle.is_zero() and oracles.compose(g, f).cycle.is_zero()
    assert compose(g, f).offset == f.offset + g.offset
    # s2 x 1 - s11 x 1 sends s2 + s11 to 1 - 1
    h = Correspondence(g24, p2, Cycle(gr, {gr._pair_to_key[(s2, one)]: 1, gr._pair_to_key[(s11, one)]: -1}))
    x = g24.cycle({s2: 1, s11: 1})
    assert act(h, x).is_zero() and oracles.act(h, x).is_zero()


def test_homogeneity_is_checked_by_the_codim_of_each_key():
    p1, p2 = projective_space(1), projective_space(2)
    ring = kunneth_product(p1, p2)
    # both cells have index 1, so only their codims tell them apart
    mixed = ring.cycle({(1, 1): 1, (2, 1): 3})
    for offset in (-2, -1, 0, 1, 2, 3):
        with pytest.raises(ValueError, match=f"^cycle is not homogeneous of codim {1 + offset}$"):
            Correspondence(p1, p2, mixed, offset)
    for q in range(ring.dimension + 1):
        x = random_cycle(random.Random(q), ring, codim=q)
        assert Correspondence(p1, p2, x, q - 1).offset == q - 1
        for offset in (-3, -2, -1, 0, 1, 2, 3):
            if offset != q - 1:
                with pytest.raises(ValueError, match=f"^cycle is not homogeneous of codim {1 + offset}$"):
                    Correspondence(p1, p2, x, offset)
    # the zero cycle is homogeneous of every codim, in range or not
    for offset in (-5, 0, 9):
        assert Correspondence(p1, p2, ring.zero(), offset).offset == offset


def test_a_sparse_correspondence_fills_only_the_plan_entries_it_reads():
    p = parse_ring(dump_ring(projective_space(30)))  # private: no row, partner or plan built yet
    ring = kunneth_product(p, p)
    f_pairs = (((10, 1), (20, 1)), ((15, 1), (15, 1)), ((30, 1), (0, 1)))
    g_pairs = (((10, 1), (20, 1)), ((30, 1), (0, 1)), ((3, 1), (27, 1)))
    f_keys = [ring._pair_to_key[pair] for pair in f_pairs]
    g_keys = [ring._pair_to_key[pair] for pair in g_pairs]
    f = Correspondence(p, p, Cycle(ring, dict.fromkeys(f_keys, 2)), 0)
    g = Correspondence(p, p, Cycle(ring, dict.fromkeys(g_keys, -1)), 0)
    assert not p._partners
    x = p.cycle({(20, 1): 1, (0, 1): 5})
    # act and the action map read the partners of each term's left factor
    assert act(f, x) == oracles.act(f, x) == p.cycle({(20, 1): 2, (0, 1): 10})
    assert set(p._partners) == {a for a, _ in f_pairs}
    assert _action_map(g) == oracles.action_map(g)
    assert set(p._partners) == {a for a, _ in f_pairs + g_pairs}
    # compose reads the partners of each f-term's middle factor
    assert compose(g, f) == oracles.compose(g, f)
    assert set(p._partners) == {k for pair in f_pairs for k in pair} | {a for a, _ in g_pairs}
    assert len(ring._table) == 0


def test_action_map_on_the_rebased_grassmannian_sums_and_cancels():
    """A middle cell of the rebased Gr(2,4) has two partners, so two terms
    meet in one entry, and their sum can cancel to a zero entry or an empty
    column, neither of which the map keeps."""
    one = (0, 1)
    ring = kunneth_product(REBASED, projective_space(1))
    t21, t22 = (ring._pair_to_key[(a, one)] for a in ((2, 1), (2, 2)))
    # partners of s[2]: s[2] (1), s[2]+s[1,1] (1); of s[2]+s[1,1]: s[2] (1), itself (2):
    # column (2, 1) cancels to nothing, column (2, 2) keeps -1
    f = Correspondence(REBASED, projective_space(1), Cycle(ring, {t21: 1, t22: -1}))
    assert _action_map(f) == oracles.action_map(f) == {(2, 2): {one: -1}}
    g = Correspondence(REBASED, projective_space(1), Cycle(ring, {t21: 2, t22: -1}))
    assert _action_map(g) == oracles.action_map(g) == {(2, 1): {one: 1}}
    rng = random.Random("rebased sums")
    cancelled = 0
    for _ in range(160):
        cycle = random_cycle(rng, ring, bound=1, codim=rng.choice((2, 3, 4)))
        f = Correspondence(REBASED, projective_space(1), cycle)
        for g in (f, f * Fraction(1, 2), f * Fraction(1, 3)):
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
    assert _action_map(d) == {(0, 1): {(0, 1): 1}, (1, 1): {(1, 1): 1}, (2, 1): {(2, 1): 1}}


def test_multiplication_correspondence_degrees():
    p2 = projective_space(2)
    h = p2.basis_cycle("h")
    assert multiplication_correspondence(p2, p2.zero()).offset == 0
    assert multiplication_correspondence(p2, p2.unit()) == diagonal(p2)
    assert multiplication_correspondence(p2, h).offset == 1
    assert multiplication_correspondence(p2, p2.unit() + h).offset is None
    with pytest.raises(ValueError, match="alpha must live in the ring being acted on"):
        multiplication_correspondence(p2, projective_space(1).unit())


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


@pytest.mark.parametrize("ring", [projective_space(1), projective_space(2), grassmannian(2, 4), DOUBLED],
                         ids=lambda r: r.name)
def test_a_cancelling_sum_keeps_its_degree(ring):
    d = diagonal(ring)
    zeros = {tuple((0,) * ring.rank(p) for _ in range(ring.rank(p))) for p in range(ring.dimension + 1)}
    for f in (d - d, d + -d, d * 0, 0 * d, d * Fraction(1, 2) - d * Fraction(1, 2)):
        assert f.is_zero() and f.offset == 0
        for p in range(ring.dimension + 1):
            assert action_matrix(f, p) == action_matrix(zero_correspondence(ring, ring, 0), p)
            assert action_matrix(f, p) in zeros
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
        action_matrix(d + h, 1)


def test_correspondence_from_action_demotes_a_sum_that_turns_integral():
    doubled = DOUBLED
    # image of h is 4 pt, against the dual h/2: 2 (h x pt), integral again
    action = {(1, 1): doubled.cycle({"pt": 4})}
    got = correspondence_from_action(doubled, doubled, action, offset=1)
    want = oracles.from_action(doubled, doubled, action, 1)
    h_pt = kunneth_product(doubled, doubled)._pair_to_key[((1, 1), (2, 1))]
    assert entries(got.cycle) == entries(want.cycle) == [(h_pt, 2, int)]
    # only zero images: the zero correspondence
    nothing = correspondence_from_action(doubled, doubled, {}, offset=0)
    assert nothing.cycle.is_zero()


def test_no_table_holds_an_empty_column():
    p1 = projective_space(1)
    ms = morphisms() + [
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
    for m in [m for m in morphisms() if m.name != "thirds"]:
        c, c_t = graph_from_morphism(m)
        for table, f, ring in ((m._pull, c, m.target), (m._push, c_t, m.source)):
            for cell in ring.cells:
                got = act(f, ring.basis_cycle(cell))
                assert got.coeffs == table.get(cell.key, {}), (m.name, cell.label)
