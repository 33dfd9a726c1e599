"""Fibration models: module structure, duality, projector family, batteries.

The peeling sweep ``ProjectorFamily.apply_all_with_coefficients`` meets its
reference, the model-product route, in test_differential.py; here it runs
on named witnesses, must not use the generic model product that
``verify_projector_family`` compares it with, and runs only where the
verifiers sample.  The replay of every piece of every basis element's sweep,
which the verifier once ran (oracles.replay_failures), fails exactly on the
model whose family refuses it, and ``validate_fibration`` names the entry
of a perturbed table.
"""

import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chowkit import (
    FibrationModel,
    ambient_extend,
    build_projector_family,
    decompose_model,
    duality_report,
    duality_triple,
    external_product,
    kunneth_product,
    lift_ck,
    manin_battery,
    projective_bundle_model,
    trivial_fibration,
    validate_fibration,
    verify_ck,
    verify_motive_isomorphism,
    verify_projector_family,
)
from chowkit.catalog import (
    grassmannian,
    hirzebruch,
    product_model,
    projective_space,
)
from chowkit.catalog import resolve
from chowkit.cli import main
from chowkit.fibrations import FiberedCycle, ProjectorFamily
from chowkit.rings import Cycle
from chowkit.sampling import random_cycle, random_fibered_cycle, seeded_rng

import oracles
from checks import same_sweep
from corpus import A, B, ENTRIES, INDEPENDENCE_MODELS, UNIT, bundle_over_gr24, doubled_top, dropped_unit
from corpus import fibered_cycles, flat_square, fresh_hirzebruch, leaked_top, module_basis, nonassociative
from corpus import perturbed_sweep, rho_column_doubled, standard_models, unpeeled

# the models of the corpus that pass every law
MODELS = [*ENTRIES["model"].values(), *ENTRIES["extended model"].values()]


def test_fibered_cycle_basics():
    m = hirzebruch(1)
    p1 = m.base
    y = m.cycle({(0, 1): p1.basis_cycle("h"), (1, 1): p1.unit()})
    assert set(y.vector()) <= set(m.basis_keys(1))  # homogeneous of codim 1
    assert y.parts[(1, 1)] == p1.unit()
    assert y.parts[(0, 1)] == p1.basis_cycle("h")
    z = y - y
    assert z.parts == {}
    assert (2 * y).parts[(1, 1)] == 2 * p1.unit()
    with pytest.raises(ValueError, match="unknown generator"):
        m.cycle({(3, 1): p1.unit()})
    with pytest.raises(ValueError, match="must live on"):
        m.cycle({(0, 1): projective_space(2).unit()})


def test_component_splits_total_codim():
    m = hirzebruch(1)
    p1 = m.base
    y = m.cycle({(0, 1): p1.unit() + p1.basis_cycle("h"), (1, 1): p1.unit()})

    def component(p):  # the entries of y on the codim-p basis keys
        return {b: c for b, c in y.vector().items() if b in m.basis_keys(p)}

    assert component(1) == m.cycle({(0, 1): p1.basis_cycle("h"), (1, 1): p1.unit()}).vector()
    assert component(0) == m.pullback(p1.unit()).vector()


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
    assert p1.degree(m.pushforward(m.multiply(m.pullback(h), xi))) == 1


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
    coords = y.vector()
    assert set(coords) <= set(m.basis_keys(2))
    rebuilt = m.zero()
    for b, y_b in zip(m.basis_keys(2), module_basis(m, 2)):
        rebuilt = rebuilt + coords.get(b, 0) * y_b
    assert rebuilt == y


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


# -- the peeling sweep -------------------------------------------------------------------


def test_sweep_through_unpeeled_generators():
    model = unpeeled()
    one, h, pt = (model.base.basis_cycle(k) for k in ("1", "h", "h^2"))
    same_sweep(model, [
        model.cycle({A: pt * Fraction(1, 2), UNIT: one}),  # the rational term pt/2 * h vanishes
        model.cycle({A: one * Fraction(1, 2), UNIT: -h * Fraction(1, 2)}),  # -h/2 + h/2 cancels
        model.cycle({B: one}),  # T_a is peeled from a residual without T_a
    ])


def test_sweep_refuses_a_cycle_of_another_model():
    model, other = hirzebruch(1), hirzebruch(2)
    for sweep in (ProjectorFamily(model).apply_all_with_coefficients, lambda y: oracles.sweep(model, y)):
        with pytest.raises(ValueError, match=(
            r"^apply_all_with_coefficients: cycle lives in hirzebruch\(2\), not hirzebruch\(1\)$"
        )):
            sweep(other.pullback(other.base.unit()))


def test_sweep_does_not_use_the_model_product(monkeypatch):
    cases = []
    for model in INDEPENDENCE_MODELS:
        family = ProjectorFamily(model)
        cases += [(family, y, oracles.parts(oracles.sweep(model, y))) for y in fibered_cycles(seeded_rng(0), model)]

    def refuse(model, y1, y2):
        raise AssertionError("the sweep formed a model product")

    monkeypatch.setattr(FibrationModel, "multiply", refuse)
    for family, y, want in cases:
        assert oracles.parts(family.apply_all_with_coefficients(y)) == want


@pytest.mark.parametrize("model", INDEPENDENCE_MODELS[:3], ids=lambda m: m.name)
def test_coefficient_extraction_forms_each_term_once(monkeypatch, model):
    # s * m terms of the random cycles, one section-recovery product per base
    # cell, and none in the sweeps
    samples = 3
    calls = []
    multiply = FibrationModel.multiply
    monkeypatch.setattr(
        FibrationModel, "multiply", lambda m, y1, y2: calls.append(1) or multiply(m, y1, y2)
    )
    assert verify_projector_family(ProjectorFamily(model), samples=samples).passed
    assert len(calls) == samples * len(model.generators) + len(model.base.cells)


def test_coefficient_extraction_catches_a_dropped_residual_term(monkeypatch):
    sweep = ProjectorFamily.apply_all_with_coefficients

    def dropping(family, y):
        # the residual the sweep starts from loses its last term
        return sweep(family, FiberedCycle(family.model, dict(list(y.parts.items())[:-1])))

    monkeypatch.setattr(ProjectorFamily, "apply_all_with_coefficients", dropping)
    for model in INDEPENDENCE_MODELS[:3]:
        report = verify_projector_family(ProjectorFamily(model), samples=3)
        failed = {c.label for c in report.checks if not c.passed}
        assert "coefficient extraction on random cycles" in failed, model.name


def test_sweep_of_a_basis_element_is_its_coordinate():
    # the README's coordinate-projection lemma: on a validated model the
    # sweep of pi^*(x) * T_g is {g: x}, with no other key
    for model in MODELS:
        family = ProjectorFamily(model)
        for y in module_basis(model):
            assert oracles.parts(family.apply_all_with_coefficients(y)) == oracles.parts(y.parts), y


@pytest.mark.parametrize("model", INDEPENDENCE_MODELS[:3], ids=lambda m: m.name)
def test_verifier_sweeps_each_basis_element_once(monkeypatch, model):
    # each basis element is one column of one rho_g, placed from its key and
    # never swept; the verifier sweeps only its s samples
    samples = 3
    calls = []
    sweep = ProjectorFamily.apply_all_with_coefficients
    monkeypatch.setattr(
        ProjectorFamily,
        "apply_all_with_coefficients",
        lambda fam, y: calls.append(1) or sweep(fam, y),
    )
    family = ProjectorFamily(model)
    assert verify_projector_family(family, samples=samples).passed
    assert len(calls) == samples
    columns = [b for rho in family.projectors().values() for b in rho]
    assert sorted(columns) == sorted(model.basis_keys())


def test_the_command_line_sweeps_only_the_sampled_cycles(monkeypatch, capsys):
    # s random cycles for the model and for each of its three battery
    # extensions, and no basis element
    samples = 3
    calls = []
    sweep = ProjectorFamily.apply_all_with_coefficients
    monkeypatch.setattr(
        ProjectorFamily,
        "apply_all_with_coefficients",
        lambda fam, y: calls.append(fam.model.name) or sweep(fam, y),
    )
    argv = ["verify", "--catalog", "hirzebruch:1", "--suite", "all", "--samples", str(samples)]
    assert main(argv + ["--format", "json"]) == 0
    capsys.readouterr()
    names = ["hirzebruch(1)"] + [f"{t} x hirzebruch(1)" for t in ("point", "P^1", "P^2")]
    assert sorted(calls) == sorted(names * samples)


def test_sweeping_a_basis_constructs_no_fibered_cycle(monkeypatch):
    model = resolve("product:p4,p4")
    family = ProjectorFamily(model)
    basis = module_basis(model)
    built = []
    init = FiberedCycle.__init__
    monkeypatch.setattr(
        FiberedCycle, "__init__", lambda y, m, parts: built.append(1) or init(y, m, parts)
    )
    sweeps = [family.apply_all_with_coefficients(y) for y in basis]
    assert not built
    assert [len(out) for out in sweeps] == [1] * len(basis) and len(basis) == 25


def test_a_model_keeps_its_family():
    model = fresh_hirzebruch()
    family = build_projector_family(model)
    assert build_projector_family(model) is family
    extended = ambient_extend(model, projective_space(1))
    assert build_projector_family(extended) is not family
    assert build_projector_family(extended).model is extended


# -- the replay route rho_g replaced (oracles.replay_failures) ----------------------


def system_failures(family):
    report = verify_projector_family(family, samples=1)
    return {c.label for c in report.checks if not c.passed} & set(oracles.SYSTEM_LABELS)


def test_rho_system_fails_where_the_replay_fails(monkeypatch):
    # the nonassociative table breaks no projector identity
    for model in MODELS + [nonassociative()]:
        assert oracles.replay_failures(ProjectorFamily(model)) == set(), model.name
        assert system_failures(ProjectorFamily(model)) == set(), model.name
    assert oracles.replay_failures(ProjectorFamily(flat_square())) == {"completeness"}
    # the flat square's family refuses it at the law its sweep breaks
    with pytest.raises(ValueError, match="^projector family on flat square: fiberwise duality fails: "):
        system_failures(ProjectorFamily(flat_square()))
    # the catch table's linear sweep perturbations reach every branch of the replay
    want = {
        doubled_top: {"idempotence", "completeness"},
        leaked_top: {"degree preservation", "pairwise orthogonality", "completeness"},
        dropped_unit: {"completeness"},
    }
    for model in INDEPENDENCE_MODELS[:3]:
        for perturb, labels in want.items():
            with monkeypatch.context() as mp:
                perturbed_sweep(model, perturb)(mp)
                assert oracles.replay_failures(ProjectorFamily(model)) == labels, (model.name, perturb.__name__)


def test_a_doubled_rho_entry_fails_idempotence(monkeypatch):
    report = verify_projector_family(ProjectorFamily(rho_column_doubled(monkeypatch)), samples=2)
    assert {c.label: c.details for c in report.checks if not c.passed} == {
        "idempotence": ["rho (1, 1) is not idempotent on codim 1"],
        "completeness": ["rho sum is not the identity on codim 1"],
    }


# -- random projective bundles ---------------------------------------------------


BUNDLE_BASES = (projective_space(1), projective_space(2), grassmannian(2, 4))


@st.composite
def bundle_models(draw):
    base = draw(st.sampled_from(BUNDLE_BASES))
    rank = draw(st.integers(min_value=2, max_value=3))
    chern = [
        Cycle(base, {c.key: draw(st.integers(min_value=-3, max_value=3))
                     for c in base.cells_of_codim(i)})
        for i in range(1, rank + 1)
    ]
    return projective_bundle_model(base, chern, rank=rank)


@settings(max_examples=8, deadline=None)
@given(bundle_models())
def test_random_bundles_pass_every_model_check(model):
    assert validate_fibration(model).passed
    family = build_projector_family(model)
    assert verify_projector_family(family, samples=3).passed
    assert verify_ck(lift_ck(model)).passed
    assert decompose_model(model).report.passed
    same_sweep(model, module_basis(model))


# -- perturbed fibration tables ---------------------------------------------------


def one_order_table(model):
    return {
        (g1, g2): dict(entry)
        for g1, row in model._table.items()
        for g2, entry in row.items()
        if g1 <= g2
    }


def perturbed_copies(model):
    """(g1, g2, fresh model) for every +1 on one base coefficient of one entry
    T_g1 * T_g2 of non-unit generators (the unit row is fixed by construction)."""
    unit = model.fiber.unit_cell.key
    for (g1, g2), entry in one_order_table(model).items():
        if unit in (g1, g2):
            continue
        for k in model.generators:
            for cell in model.base.cells:
                table = one_order_table(model)
                bumped = dict(entry)
                bumped[k] = entry.get(k, model.base.zero()) + model.base.basis_cycle(cell)
                table[(g1, g2)] = bumped
                yield g1, g2, FibrationModel(model.base, model.fiber, table, name="perturbed")


def names(line, g1, g2):
    # grading and duality lines name the entry T_g1*T_g2, associativity lines
    # a triple through both generators: on a P^2 bundle (T_1*T_1)*T_2 reads
    # the entry T_2*T_2
    return str(g1) in line and str(g2) in line


@pytest.mark.parametrize("model", [hirzebruch(1), bundle_over_gr24()], ids=lambda m: m.name)
def test_validate_fibration_names_a_perturbed_entry(model):
    legal = 0
    for g1, g2, bad in perturbed_copies(model):
        report = validate_fibration(bad)
        if report.passed:
            # moving the twist of hirzebruch(1) by one gives hirzebruch(0)
            assert bad._table == hirzebruch(0)._table
            legal += 1
            continue
        for check in report.checks:
            if not check.passed:
                assert any(names(d, g1, g2) for d in check.details), (g1, g2, check)
    assert legal == (model is hirzebruch(1))
