"""Catalog constructors: frozen structure, naming grammar, invariants."""

from fractions import Fraction

import pytest

from chowkit import compose, diagonal, validate_fibration, verify_pairing
from chowkit.catalog import (
    catalog_entries,
    grassmannian,
    hirzebruch,
    linear_embedding,
    point,
    product_model,
    projective_bundle_model,
    projective_space,
    resolve,
)

from corpus import standard_models, standard_rings


def test_projective_space_structure():
    p3 = projective_space(3)
    assert p3.ranks == (1, 1, 1, 1)
    h = p3.basis_cycle("h")
    assert h * h == p3.basis_cycle("h^2")
    assert p3.degree(h * h * h) == 1
    assert (h * h * h * h).is_zero()
    assert verify_pairing(p3).passed
    with pytest.raises(ValueError):
        projective_space(-1)


def test_projective_space_memoized():
    assert projective_space(2) is projective_space(2)
    assert point() is projective_space(0)


def test_gr24_frozen_table():
    g = grassmannian(2, 4)
    assert g.ranks == (1, 1, 2, 1, 1)
    s1 = g.basis_cycle("s[1]")
    assert s1 * s1 == g.cycle({"s[2]": 1, "s[1,1]": 1})
    assert g.basis_cycle("s[2]") * g.basis_cycle("s[1,1]") == g.zero()
    assert g.basis_cycle("s[2]") * g.basis_cycle("s[2]") == g.basis_cycle("s[2,2]")
    assert g.degree(s1 * s1 * s1 * s1) == 2
    assert verify_pairing(g).passed


def test_gr25_frozen_degrees():
    g = grassmannian(2, 5)
    assert g.dimension == 6
    assert g.ranks == (1, 1, 2, 2, 2, 1, 1)
    s1 = g.basis_cycle("s[1]")
    x = g.unit()
    for _ in range(6):
        x = x * s1
    assert g.degree(x) == 5
    assert verify_pairing(g).passed


def test_gr13_is_plane_in_schubert_clothes():
    g = grassmannian(1, 3)
    p2 = projective_space(2)
    assert g.ranks == p2.ranks
    # codim-p basis is a single cell each; products must agree index-for-index
    for a in range(3):
        for b in range(3):
            lhs = g.multiply(g.basis_cycle((a, 1)), g.basis_cycle((b, 1)))
            rhs = p2.multiply(p2.basis_cycle((a, 1)), p2.basis_cycle((b, 1)))
            assert {k: v for k, v in lhs.coeffs.items()} == dict(rhs.coeffs)


def test_grassmannian_guard_and_middle_check():
    with pytest.raises(ValueError, match="beyond the guard"):
        grassmannian(3, 7)
    # overriding the guard hits the honest obstruction: the middle codim of
    # Gr(3,7) pairs (3,3) with (4,1,1), so no same-index normal form exists
    with pytest.raises(ValueError, match="middle codim"):
        grassmannian(3, 7, max_dim=12)
    with pytest.raises(ValueError):
        grassmannian(0, 3)


def test_grassmannian_cache_ignores_the_guard():
    # max_dim only admits a build; it must not key a second copy of the ring
    g = grassmannian(2, 4)
    assert g is grassmannian(2, 4, max_dim=9)
    assert g is grassmannian(2, 4, 8)
    d = diagonal(g)
    assert compose(d, diagonal(grassmannian(2, 4, max_dim=9))) == d


def test_resolve_guards_projective_space_dimension():
    with pytest.raises(ValueError, match="P\\^101 has dimension 101, beyond the guard 100"):
        resolve("p101")
    with pytest.raises(ValueError, match="beyond the guard 100"):
        resolve("product:p1,p400")
    assert resolve("p100") is projective_space(100)


def test_hirzebruch_twist_table():
    for a in (0, 1, 2):
        model = hirzebruch(a)
        assert model.base is projective_space(1)
        assert model.fiber is projective_space(1)
        entry = model.t_entry((1, 1), (1, 1))
        if a == 0:
            assert entry == {}
        else:
            assert entry == {(1, 1): model.base.cycle({"h": -a})}
        assert validate_fibration(model).passed


def test_hirzebruch_zero_is_the_trivial_product_table_for_table():
    h0 = hirzebruch(0)
    triv = product_model(projective_space(1), projective_space(1))
    assert h0.is_trivial and triv.is_trivial
    assert h0.generators == triv.generators
    for g1 in h0.generators:
        for g2 in h0.generators:
            assert h0.t_entry(g1, g2) == triv.t_entry(g1, g2)


def test_projective_bundle_rank_inference():
    p2 = projective_space(2)
    model = projective_bundle_model(p2, [p2.cycle({"h": 1})])
    assert model.fiber.dimension == 1  # rank 2 bundle from one Chern class
    assert model.dimension == 3
    full = projective_bundle_model(p2, [p2.cycle({"h": 1}), p2.cycle({"h^2": 3})])
    assert full.fiber.dimension == 2
    with pytest.raises(ValueError, match="codim"):
        projective_bundle_model(p2, [p2.cycle({"h^2": 1})])
    with pytest.raises(ValueError):
        projective_bundle_model(p2, [p2.cycle({"h": 1})] * 3, rank=2)


def test_projective_bundle_refuses_non_integral_chern_classes():
    # a model's table is integral, and dump_fibration writes ints only
    p2 = projective_space(2)
    half = p2.cycle({"h": Fraction(1, 2)})
    for c1 in (half, {"h": Fraction(1, 2)}):
        with pytest.raises(ValueError) as caught:
            projective_bundle_model(p2, [c1])
        assert str(caught.value) == "c_1 must have integer coefficients, got 1/2*h"
    with pytest.raises(ValueError, match="c_2 must have integer coefficients"):
        projective_bundle_model(p2, [p2.cycle({"h": 1}), p2.cycle({"h^2": Fraction(-3, 2)})])
    # an integral Fraction is an int
    got, want = (projective_bundle_model(p2, [p2.cycle({"h": c})]) for c in (Fraction(2, 2), 1))
    assert got.t_entry((1, 1), (1, 1)) == want.t_entry((1, 1), (1, 1))


def test_projective_bundle_relation():
    # xi^2 = -pi^*(c_1) xi for a rank-2 bundle
    p2 = projective_space(2)
    model = projective_bundle_model(p2, [p2.cycle({"h": 1})])
    xi = model.generator((1, 1))
    assert xi * xi == model.multiply(model.pullback(p2.cycle({"h": -1})), xi)


def test_resolve_grammar():
    assert resolve("p3") is projective_space(3)
    assert resolve("POINT") is projective_space(0)
    assert resolve("gr24") is grassmannian(2, 4)
    assert resolve("hirzebruch:2") is hirzebruch(2)
    assert resolve("product:p1,p2") is product_model(projective_space(1), projective_space(2))
    assert resolve("pbundle:p2:h").name == "pbundle(P^2; c1=h)"
    for bad in ("qq", "hirzebruch:x", "product:p1", "product:hirzebruch:1,p1"):
        with pytest.raises(ValueError):
            resolve(bad)


def test_catalog_entries_all_build():
    for entry in catalog_entries():
        thing = entry.build()
        assert thing.name
        assert resolve(entry.name) is thing  # memoized: same object both times


def test_standard_collections():
    rings = standard_rings()
    assert [r.name for r in rings] == ["point", "P^1", "P^2", "P^3", "P^4", "Gr(2,4)", "Gr(2,5)"]
    assert all(verify_pairing(r).passed for r in rings)
    models = standard_models()
    assert len(models) == 13
    for m in models:
        assert validate_fibration(m).passed


def test_linear_embedding_tables():
    f = linear_embedding(1, 3)
    p1, p3 = projective_space(1), projective_space(3)
    assert f.pullback(p3.basis_cycle("h")) == p1.basis_cycle("h")
    assert f.pullback(p3.basis_cycle("h^2")).is_zero()
    assert f.pushforward(p1.unit()) == p3.basis_cycle("h^2")
    assert f.pushforward(p1.basis_cycle("h")) == p3.basis_cycle("h^3")
    with pytest.raises(ValueError):
        linear_embedding(3, 1)
