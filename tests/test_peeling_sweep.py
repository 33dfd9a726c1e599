"""The peeling sweep against the model-product route it replaced.

``ProjectorFamily.apply_all_with_coefficients`` reads each pushforward
pi_*(T_dual * residual) off the top-generator components of the model table
and returns the nonzero coefficients {g: alpha}, each piece being the cycle
{g: alpha}.  The route kept here as the reference forms the two full model
products T_dual * residual and T_g * pi^*(alpha) per generator instead.  The
two must agree exactly, down to each coefficient's type and each cycle's
key order, on every model and on models with broken tables.
``verify_projector_family`` compares the sweep with the generic model
product, so the sweep must not use it; and ``validate_fibration`` must name
the entry of a perturbed table.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chowkit import (
    FibrationModel,
    ambient_extend,
    build_projector_family,
    decompose_model,
    grassmannian,
    hirzebruch,
    lift_ck,
    projective_bundle_model,
    projective_space,
    validate_fibration,
    verify_ck,
    verify_projector_family,
)
from chowkit.catalog import resolve, standard_models
from chowkit.fibrations import FiberedCycle, ProjectorFamily
from chowkit.rings import Cycle
from chowkit.sampling import random_cycle, random_fibered_cycle, seeded_rng

from test_failure_rendering import flat_square, nonassociative

UNIT, A, B, C = (0, 1), (1, 1), (2, 1), (3, 1)  # generators of a P^3 fiber


def reference_sweep(family, y):
    """The sweep through two full model products per generator, returning
    the nonzero coefficients; each product piece must be the cycle {g: alpha}."""
    model = family.model
    if y.model is not model:
        raise ValueError(
            f"apply_all_with_coefficients: cycle lives in {y.model.name}, not {model.name}"
        )
    residual = y
    out = {}
    for g in family.order:
        dual = model.fiber.dual_cell(g).key
        alpha = model.pushforward(model.multiply(model.generator(dual), residual))
        piece = model.multiply(model.generator(g), model.pullback(alpha))
        assert exact_parts(piece) == exact_parts(model.cycle({g: alpha})), g
        if not alpha.is_zero():
            out[g] = alpha
        residual = residual - piece
    return out


def exact(cycle):
    """A base cycle down to its key order and coefficient types."""
    return [(k, type(c), c) for k, c in cycle.coeffs.items()]


def exact_parts(y):
    return [(g, exact(c)) for g, c in y.parts.items()]


def exact_sweep(out):
    return [(g, exact(alpha)) for g, alpha in out.items()]


def bundle_over_gr24():
    gr = grassmannian(2, 4)
    chern = [gr.cycle({"s[1]": 2}), gr.cycle({"s[2]": -1, "s[1,1]": 1}), gr.cycle({"s[2,1]": 1})]
    return projective_bundle_model(gr, chern, rank=3, name="rank-3 bundle over Gr(2,4)")


def unpeeled():
    """T_a T_b = 0 leaves T_a and T_b unpeeled, and T_b T_b = pi^*(h) T_c and
    T_a T_c = pi^*(h) T_c carry them into later pushforwards, where a term can
    vanish, cancel another, or land on a generator the residual lacks."""
    p2 = projective_space(2)
    h = p2.cycle({"h": 1})
    table = {(A, B): {}, (B, B): {C: h}, (A, C): {C: h}}
    return FibrationModel(p2, projective_space(3), table, name="unpeeled")


STANDARD = standard_models()
SWEEP_MODELS = (
    STANDARD
    + [ambient_extend(m, projective_space(n)) for m in STANDARD for n in (0, 1, 2)]
    + [bundle_over_gr24(), flat_square(), nonassociative(), unpeeled()]
)


def sweep_inputs(model):
    """Every module basis element, then seeded integer, rational and mixed cycles."""
    rng = seeded_rng(0)
    base = model.base
    ys = model.module_basis()
    ys += [random_fibered_cycle(rng, model, bound=5) for _ in range(2)]
    ys.append(random_fibered_cycle(rng, model, bound=5, codim=model.dimension // 2))
    for _ in range(2):
        ys.append(model.cycle({
            g: random_cycle(rng, base, 5) * Fraction(1, rng.randint(1, 6))
            for g in model.generators
        }))
    ys.append(model.cycle({
        g: random_cycle(rng, base, 5) * (Fraction(1, 2), 1)[n % 2]
        for n, g in enumerate(model.generators)
    }))
    return ys


@pytest.mark.parametrize("model", SWEEP_MODELS, ids=lambda m: m.name)
def test_sweep_matches_the_model_product_route(model):
    family = ProjectorFamily(model)
    for n, y in enumerate(sweep_inputs(model)):
        got = exact_sweep(family.apply_all_with_coefficients(y))
        assert got == exact_sweep(reference_sweep(family, y)), f"input {n} of {model.name}"


def test_sweep_through_unpeeled_generators():
    model = unpeeled()
    one, h, pt = (model.base.basis_cycle(k) for k in ("1", "h", "h^2"))
    family = ProjectorFamily(model)
    for y in (
        model.cycle({A: pt * Fraction(1, 2), UNIT: one}),  # the rational term pt/2 * h vanishes
        model.cycle({A: one * Fraction(1, 2), UNIT: -h * Fraction(1, 2)}),  # -h/2 + h/2 cancels
        model.cycle({B: one}),  # T_a is peeled from a residual without T_a
    ):
        got = exact_sweep(family.apply_all_with_coefficients(y))
        assert got == exact_sweep(reference_sweep(family, y))


def test_sweep_refuses_a_cycle_of_another_model():
    family = ProjectorFamily(hirzebruch(1))
    for sweep in (ProjectorFamily.apply_all_with_coefficients, reference_sweep):
        with pytest.raises(ValueError, match=(
            r"^apply_all_with_coefficients: cycle lives in hirzebruch\(2\), not hirzebruch\(1\)$"
        )):
            sweep(family, hirzebruch(2).unit())


INDEPENDENCE_MODELS = [
    hirzebruch(1),
    ambient_extend(hirzebruch(2), projective_space(1)),
    bundle_over_gr24(),
    flat_square(),
    nonassociative(),
    unpeeled(),
]


def test_sweep_does_not_use_the_model_product(monkeypatch):
    cases = []
    for model in INDEPENDENCE_MODELS:
        family = ProjectorFamily(model)
        cases += [(family, y, exact_sweep(reference_sweep(family, y))) for y in sweep_inputs(model)]

    def refuse(model, y1, y2):
        raise AssertionError("the sweep formed a model product")

    monkeypatch.setattr(FibrationModel, "multiply", refuse)
    for family, y, want in cases:
        assert exact_sweep(family.apply_all_with_coefficients(y)) == want


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


# -- the sweep returns only its nonzero coefficients -------------------------------


@pytest.mark.parametrize(
    "model",
    STANDARD + [ambient_extend(m, projective_space(1)) for m in STANDARD],
    ids=lambda m: m.name,
)
def test_sweep_of_a_basis_element_is_its_coordinate(model):
    # the README's coordinate-projection lemma: on a validated model the
    # sweep of pi^*(x) * T_g is {g: x}, with no other key
    family = ProjectorFamily(model)
    for y in model.module_basis():
        assert exact_sweep(family.apply_all_with_coefficients(y)) == exact_parts(y), y


@pytest.mark.parametrize("model", INDEPENDENCE_MODELS[:3], ids=lambda m: m.name)
def test_verifier_replays_each_nonzero_piece_once(monkeypatch, model):
    # N basis sweeps, one replay of the one nonzero piece of each, s samples
    samples = 3
    calls = []
    sweep = ProjectorFamily.apply_all_with_coefficients
    monkeypatch.setattr(
        ProjectorFamily,
        "apply_all_with_coefficients",
        lambda fam, y: calls.append(1) or sweep(fam, y),
    )
    assert verify_projector_family(ProjectorFamily(model), samples=samples).passed
    assert len(calls) == 2 * len(model.module_basis()) + samples


def test_sweeping_a_basis_constructs_no_fibered_cycle(monkeypatch):
    model = resolve("product:p4,p4")
    family = ProjectorFamily(model)
    basis = model.module_basis()
    built = []
    init = FiberedCycle.__init__
    monkeypatch.setattr(
        FiberedCycle, "__init__", lambda y, m, parts: built.append(1) or init(y, m, parts)
    )
    sweeps = [family.apply_all_with_coefficients(y) for y in basis]
    assert not built
    assert [len(out) for out in sweeps] == [1] * len(basis) and len(basis) == 25


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
    for y in model.module_basis():
        assert exact_sweep(family.apply_all_with_coefficients(y)) == exact_sweep(
            reference_sweep(family, y)
        )


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
