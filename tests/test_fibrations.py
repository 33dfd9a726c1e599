"""Fibration models: module structure, duality, projector family, batteries."""

import warnings

import pytest

from chowkit import (
    FibrationModel,
    ambient_extend,
    build_projector_family,
    duality_report,
    duality_triple,
    external_product,
    kunneth_product,
    manin_battery,
    trivial_fibration,
    validate_fibration,
    verify_motive_isomorphism,
    verify_projector_family,
)
from chowkit.catalog import (
    grassmannian,
    hirzebruch,
    product_model,
    projective_space,
)
from chowkit.sampling import random_cycle, random_fibered_cycle, seeded_rng

from corpus import module_basis, standard_models


def test_fibered_cycle_basics():
    m = hirzebruch(1)
    p1 = m.base
    y = m.cycle({(0, 1): p1.basis_cycle("h"), (1, 1): p1.unit()})
    assert y.codims() == [1]
    assert y.codim() == 1
    assert y.fiber_component((1, 1)) == p1.unit()
    assert y.fiber_component((0, 1)) == p1.basis_cycle("h")
    z = y - y
    assert z.is_zero()
    assert (2 * y).fiber_component((1, 1)) == 2 * p1.unit()
    with pytest.raises(ValueError, match="unknown generator"):
        m.cycle({(3, 1): p1.unit()})
    with pytest.raises(ValueError, match="must live on"):
        m.cycle({(0, 1): projective_space(2).unit()})


def test_component_splits_total_codim():
    m = hirzebruch(1)
    p1 = m.base
    y = m.cycle({(0, 1): p1.unit() + p1.basis_cycle("h"), (1, 1): p1.unit()})
    assert y.component(1) == m.cycle({(0, 1): p1.basis_cycle("h"), (1, 1): p1.unit()})
    assert y.component(0) == m.unit()


def test_model_multiplication_uses_twist():
    # xi * xi = -a pi^*(h) xi on the twist-a surface
    for a in (0, 1, 2):
        m = hirzebruch(a)
        xi = m.generator((1, 1))
        got = xi * xi
        want = m.cycle({(1, 1): m.base.cycle({"h": -a})}) if a else m.zero()
        assert got == want


def test_pullback_pushforward_adjunction():
    m = hirzebruch(2)
    p1 = m.base
    h = p1.basis_cycle("h")
    assert m.pushforward(m.pullback(h)).is_zero()  # wrong fiber degree
    xi = m.generator((1, 1))
    assert m.pushforward(m.multiply(m.pullback(h), xi)) == h
    assert m.degree(m.multiply(m.pullback(h), xi)) == 1


def test_rank_identity_all_models():
    for m in standard_models():
        for p in range(m.dimension + 1):
            want = sum(m.base.rank(p - g[0]) for g in m.generators)
            assert m.rank(p) == want
            assert len(m.basis_keys(p)) == m.rank(p)
    total = sum(m.rank(p) for p in range(m.dimension + 1))
    assert total == len(m.basis_keys())


def test_basis_keys_are_computed_once_in_module_order():
    for m in standard_models():
        keys = m.basis_keys()
        assert isinstance(keys, tuple) and m.basis_keys() is keys
        assert keys == tuple((g, c.key) for g in m.generators for c in m.base.cells)
        for p in range(-1, m.dimension + 2):
            want = tuple((g, k) for g, k in keys if g[0] + m.base.cell(k).codim == p)
            assert m.basis_keys(p) == want and m.basis_keys(p) is m.basis_keys(p)


def test_coordinates_roundtrip():
    m = hirzebruch(1)
    rng = seeded_rng(5)
    y = random_fibered_cycle(rng, m, codim=2)
    # the coordinates along the module basis are the cycle's sparse vector
    coords = y.component(2).vector()
    rebuilt = m.zero()
    for b, y_b in zip(m.basis_keys(2), module_basis(m, 2)):
        rebuilt = rebuilt + coords.get(b, 0) * y_b
    assert rebuilt == y.component(2)


def test_trivial_fibration_agrees_with_kunneth():
    base, fiber = projective_space(2), projective_space(1)
    m = trivial_fibration(base, fiber)
    ring = kunneth_product(base, fiber)

    def coordinates(y):  # sum of a_g x [g] on the product ring
        return sum(
            (external_product(a, fiber.basis_cycle(g)) for g, a in y.parts.items()), ring.zero()
        )

    # the model's product is the product ring's
    rng = seeded_rng(11)
    for _ in range(10):
        y1 = random_fibered_cycle(rng, m)
        y2 = random_fibered_cycle(rng, m)
        assert coordinates(m.multiply(y1, y2)) == ring.multiply(coordinates(y1), coordinates(y2))


def test_duality_triple_delta_pattern_frozen():
    m = hirzebruch(1)
    p1 = m.base
    alpha = p1.cycle({"1": 3, "h": -2})
    # complementary same-index pair returns alpha
    assert duality_triple(m, alpha, (0, 1), (1, 1)) == alpha
    assert duality_triple(m, alpha, (1, 1), (0, 1)) == alpha
    # short pair returns zero
    assert duality_triple(m, alpha, (0, 1), (0, 1)).is_zero()


def test_duality_triple_warns_beyond_middle():
    m = hirzebruch(2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        duality_triple(m, m.base.unit(), (1, 1), (1, 1))
    assert caught and "only guaranteed" in str(caught[0].message)


def test_duality_report_all_standard_models():
    for m in standard_models():
        rep = duality_report(m, samples=5)
        assert rep.passed, rep.lines()


def generic_duality_triple(model, alpha, left, right):
    """duality_triple through the generic model product, as it was."""
    y = model.multiply(model.pullback(alpha), model.generator(left))
    return model.pushforward(model.multiply(y, model.generator(right)))


def test_duality_triple_reads_the_table_as_the_generic_product_does():
    rng = seeded_rng(11)
    for m in standard_models() + [hirzebruch(-1), hirzebruch(3)]:
        alphas = [m.base.basis_cycle(c) for c in m.base.cells] + [m.base.zero()]
        alphas += [random_cycle(rng, m.base, bound=5) for _ in range(3)]
        for g1 in m.generators:
            for g2 in m.generators:
                for alpha in alphas:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        got = duality_triple(m, alpha, g1, g2)
                    assert got == generic_duality_triple(m, alpha, g1, g2), (m.name, g1, g2)


def test_duality_report_makes_no_model_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("FibrationModel.multiply called")

    monkeypatch.setattr(FibrationModel, "multiply", refuse)
    for m in standard_models():
        assert duality_report(m, samples=3).passed


def test_duality_report_names_a_mutated_top_entry():
    base, fiber = projective_space(1), grassmannian(2, 4)
    model = trivial_fibration(base, fiber)
    table = {(g1, g2): dict(entry) for g1, row in model._table.items() for g2, entry in row.items()}
    # s[2] * s[1,1] has no point-class component; give it one, in both orders
    for pair in (((2, 1), (2, 2)), ((2, 2), (2, 1))):
        table[pair][fiber.point_cell.key] = base.unit()
    mutated = FibrationModel(base, fiber, table, name="mutated")
    assert duality_report(model, samples=2).passed
    rep = duality_report(mutated, samples=2)
    assert not rep.passed
    (check,) = rep.checks
    assert {line.split(" on ")[0] for line in check.details} == {
        "pair (2, 1) * (2, 2)",
        "pair (2, 2) * (2, 1)",
    }


def test_validate_fibration_catches_broken_duality():
    p1 = projective_space(1)
    # xi*xi = pi^*(h) T_1 breaks grading? no: codims 1+1-0=2 > dim P^1, so
    # a unit-coefficient top entry of the wrong index breaks duality instead
    table = {((1, 1), (1, 1)): {(1, 1): p1.cycle({"h": 1})}}
    bad = FibrationModel(p1, p1, table, name="bad twist sign flip")
    rep = validate_fibration(bad)
    assert rep.passed  # this one is a legal twist (it is hirzebruch(-1))

    table2 = {((1, 1), (1, 1)): {(0, 1): p1.cycle({"h": 1})}}
    bad2 = FibrationModel(p1, p1, table2, name="broken grading")
    rep2 = validate_fibration(bad2)
    assert not rep2.passed
    names = [c.label for c in rep2.checks if not c.passed]
    assert "grading" in names


def test_validate_fibration_catches_nonassociative_table():
    p2 = projective_space(2)
    fiber = projective_space(2)
    # u*u = v, u*v = pi^*(h^2) u: then (u*u)*v = 0 but u*(u*v) = pi^*(h^2) v
    table = {
        ((1, 1), (1, 1)): {(2, 1): p2.unit()},
        ((1, 1), (2, 1)): {(1, 1): p2.cycle({"h^2": 1})},
        ((2, 1), (2, 1)): {},
    }
    weird = FibrationModel(p2, fiber, table, name="nonassociative")
    rep = validate_fibration(weird)
    assert not rep.passed
    failed = {c.label for c in rep.checks if not c.passed}
    assert "associativity on generators" in failed


@pytest.mark.parametrize("make, m", [
    (lambda: hirzebruch(1), 2),
    (lambda: product_model(projective_space(2), grassmannian(2, 4)), 6),
], ids=["hirzebruch1", "p2xgr24"])
def test_validate_fibration_multiplies_each_generator_pair_once(make, m, monkeypatch):
    # the m x m table of T_a T_b, then (T_a T_b) T_c and T_a (T_b T_c) per triple
    model = make()
    calls = []
    real = FibrationModel.multiply
    monkeypatch.setattr(FibrationModel, "multiply", lambda *a: calls.append(1) or real(*a))
    assert len(model.generators) == m
    assert validate_fibration(model).passed
    assert len(calls) == m * m + 2 * m ** 3


def test_validate_fibration_catches_broken_fiber_duality():
    p1 = projective_space(1)
    fiber = projective_space(2)
    # u*u = 0 kills the unit top coefficient the complementary pair needs
    table = {((1, 1), (1, 1)): {}}
    flat = FibrationModel(p1, fiber, table, name="flat square")
    rep = validate_fibration(flat)
    assert not rep.passed
    failed = {c.label for c in rep.checks if not c.passed}
    assert "fiberwise duality" in failed


def test_fibration_model_structural_errors():
    p1 = projective_space(1)
    fiber = projective_space(2)
    with pytest.raises(ValueError, match="unknown generator"):
        FibrationModel(p1, p1, {((5, 1), (1, 1)): {}})
    with pytest.raises(ValueError, match="unit generator law"):
        FibrationModel(p1, p1, {((1, 1), (0, 1)): {(1, 1): p1.unit() * 2}})
    with pytest.raises(ValueError, match="conflicting"):
        FibrationModel(
            p1,
            fiber,
            {
                ((1, 1), (2, 1)): {},
                ((2, 1), (1, 1)): {(1, 1): p1.cycle({"h": 1})},
            },
        )


def test_projector_family_order_and_pieces():
    m = hirzebruch(1)
    fam = build_projector_family(m)
    assert fam.order == ((1, 1), (0, 1))  # descending: top generator first
    y = m.cycle({(0, 1): m.base.cycle({"h": 4}), (1, 1): m.base.cycle({"1": 7})})
    coeffs = fam.apply_all_with_coefficients(y)
    assert list(coeffs) == [(1, 1), (0, 1)]  # descending, like the order
    assert m.cycle(coeffs) == y
    assert m.cycle({(1, 1): coeffs[(1, 1)]}) == m.cycle({(1, 1): m.base.cycle({"1": 7})})
    assert m.cycle({(0, 1): coeffs[(0, 1)]}) == m.cycle({(0, 1): m.base.cycle({"h": 4})})
    assert coeffs[(1, 1)] == m.base.cycle({"1": 7})
    # a zero coefficient is a missing key, not a zero entry
    assert fam.apply_all_with_coefficients(m.cycle({(0, 1): m.base.cycle({"h": 4})})) == {
        (0, 1): m.base.cycle({"h": 4})
    }
    assert fam.apply_all_with_coefficients(m.zero()) == {}


def test_projector_family_verifies_on_standard_models():
    for m in standard_models():
        rep = verify_projector_family(build_projector_family(m), samples=10)
        assert rep.passed, rep.lines()


def test_projector_family_with_zero_samples_is_not_passed():
    rep = verify_projector_family(build_projector_family(hirzebruch(1)), samples=0)
    assert not rep.passed
    assert "  coefficient extraction on random cycles: skipped (0 instances)" in rep.lines()
    check = rep.to_dict()["checks"][4]
    assert check == {
        "name": "coefficient extraction on random cycles", "passed": False, "details": [], "count": 0
    }
    # the exhaustive checks still ran and passed
    assert "  idempotence: pass (4 instances)" in rep.lines()


def test_ambient_extend_structure():
    m = hirzebruch(1)
    amb = projective_space(1)
    big = ambient_extend(m, amb)
    assert big.base is kunneth_product(amb, m.base)
    assert big.fiber is m.fiber
    assert big.dimension == m.dimension + 1
    # twist coefficient becomes 1 x (-h)
    entry = big.t_entry((1, 1), (1, 1))
    assert entry[(1, 1)] == big.base.cycle({"(1,h)": -1})


def test_motive_iso_pair_roundtrips():
    # hirzebruch(0) and hirzebruch(2) share base and fiber, so the peeled
    # coefficients of one model are a cycle of the other: transporting a
    # cycle there and back is the identity on every basis element
    h0, h2 = hirzebruch(0), hirzebruch(2)
    for model in (h0, h2):
        rep = verify_motive_isomorphism(model)
        assert rep.passed, rep.lines()
    f0, f2 = build_projector_family(h0), build_projector_family(h2)

    def forward(y):
        return h2.cycle(f0.apply_all_with_coefficients(y))

    def backward(y):
        return h0.cycle(f2.apply_all_with_coefficients(y))

    for y in module_basis(h0):
        assert backward(forward(y)) == y
    for y in module_basis(h2):
        assert forward(backward(y)) == y


def test_manin_battery_default_and_custom():
    rep = manin_battery(hirzebruch(2), samples=5)
    assert rep.passed
    assert [name for name, _ in rep.children] == ["point", "P^1", "P^2"]
    rep2 = manin_battery(hirzebruch(2), battery=[grassmannian(2, 4)], samples=3)
    assert rep2.passed and rep2.children[0][0] == "Gr(2,4)"
