"""The peeling sweep against its reference, the model-product route.

``ProjectorFamily.apply_all_with_coefficients`` reads each pushforward
pi_*(T_dual * residual) off the top-generator components of the model table
and returns the nonzero coefficients {g: alpha}, each piece being the cycle
{g: alpha}.  Its reference in oracles.py forms the two full model products
T_dual * residual and T_g * pi^*(alpha) per generator instead.  The two
must agree exactly, down to each coefficient's type and each cycle's
key order, on every model and on models with broken tables.
``verify_projector_family`` compares the sweep with the generic model
product, so the sweep must not use it; and ``validate_fibration`` must name
the entry of a perturbed table.  On a model that passes the family's laws
the sweep of a basis element is its coordinate, so the projectors rho_g are
written from keys and the command line sweeps only the sampled cycles; the
replay of every piece of every basis element's sweep, which the verifier
once ran, is kept here as the reference, and fails exactly on the model
whose family refuses it.
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
    trivial_fibration,
    validate_fibration,
    verify_ck,
    verify_projector_family,
)
from chowkit.catalog import resolve
from chowkit.cli import main
from chowkit.fibrations import FiberedCycle, ProjectorFamily
from chowkit.rings import Cycle
from chowkit.sampling import seeded_rng

import oracles
from checks import same_sweep
from corpus import A, B, INDEPENDENCE_MODELS, UNIT, bundle_over_gr24, fibered_cycles, flat_square
from corpus import module_basis, nonassociative, standard_models, unpeeled


STANDARD = standard_models()
SWEEP_MODELS = (
    STANDARD
    + [ambient_extend(m, projective_space(n)) for m in STANDARD for n in (0, 1, 2)]
    + [bundle_over_gr24(), flat_square(), nonassociative(), unpeeled()]
)


def sweep_inputs(model):
    return fibered_cycles(seeded_rng(0), model)


@pytest.mark.parametrize("model", SWEEP_MODELS, ids=lambda m: m.name)
def test_sweep_matches_the_model_product_route(model):
    same_sweep(model, sweep_inputs(model))


def test_sweep_through_unpeeled_generators():
    model = unpeeled()
    one, h, pt = (model.base.basis_cycle(k) for k in ("1", "h", "h^2"))
    same_sweep(model, [
        model.cycle({A: pt * Fraction(1, 2), UNIT: one}),  # the rational term pt/2 * h vanishes
        model.cycle({A: one * Fraction(1, 2), UNIT: -h * Fraction(1, 2)}),  # -h/2 + h/2 cancels
        model.cycle({B: one}),  # T_a is peeled from a residual without T_a
    ])


def test_sweep_refuses_a_cycle_of_another_model():
    model = hirzebruch(1)
    for sweep in (ProjectorFamily(model).apply_all_with_coefficients, lambda y: oracles.sweep(model, y)):
        with pytest.raises(ValueError, match=(
            r"^apply_all_with_coefficients: cycle lives in hirzebruch\(2\), not hirzebruch\(1\)$"
        )):
            sweep(hirzebruch(2).unit())


def test_sweep_does_not_use_the_model_product(monkeypatch):
    cases = []
    for model in INDEPENDENCE_MODELS:
        family = ProjectorFamily(model)
        cases += [(family, y, oracles.parts(oracles.sweep(model, y))) for y in sweep_inputs(model)]

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


# -- the replay route rho_g replaced -----------------------------------------------

SYSTEM_LABELS = ("degree preservation", "idempotence", "pairwise orthogonality", "completeness")


def replay_failures(family):
    """The failing system labels by the route verify_projector_family took
    before it checked rho_g as sparse matrices: every nonzero piece {g: alpha}
    of a basis element's sweep is swept once more and must come back as
    itself alone, and the pieces must sum to the basis element."""
    model = family.model
    degree_fail, idem_fail, orth_fail, complete_fail = [], [], [], []
    for y in module_basis(model):
        p = y.codim()
        coeffs = family.apply_all_with_coefficients(y)
        for g, alpha in coeffs.items():
            piece = model.cycle({g: alpha})
            if piece.codims() != [p]:
                degree_fail.append(f"rho{g} moved a codim-{p} cycle to {piece.codims()}")
            replay = family.apply_all_with_coefficients(piece)
            for h in family.order:
                if h == g and replay.get(h) != alpha:
                    idem_fail.append(f"rho{g} o rho{g} != rho{g} on {y!r}")
                elif h != g and h in replay:
                    orth_fail.append(f"rho{h} o rho{g} != 0 on {y!r}")
        if model.cycle(coeffs) != y:
            complete_fail.append(f"sum of projections differs from input on {y!r}")
    fails = (degree_fail, idem_fail, orth_fail, complete_fail)
    return {label for label, details in zip(SYSTEM_LABELS, fails) if details}


def system_failures(family):
    report = verify_projector_family(family, samples=1)
    return {c.label for c in report.checks if not c.passed} & set(SYSTEM_LABELS)


REPLAY_MODELS = (
    STANDARD
    + [ambient_extend(m, projective_space(1)) for m in STANDARD]
    + [flat_square(), nonassociative()]
)


@pytest.mark.parametrize("model", REPLAY_MODELS, ids=lambda m: m.name)
def test_rho_system_fails_where_the_replay_fails(model):
    want = replay_failures(ProjectorFamily(model))
    # the nonassociative table breaks no projector identity
    assert bool(want) == (model.name == "flat square")
    if not want:
        assert system_failures(ProjectorFamily(model)) == set()
        return
    # the flat square's family refuses it at the law its sweep breaks
    with pytest.raises(ValueError, match="^projector family on flat square: fiberwise duality fails: "):
        system_failures(ProjectorFamily(model))


def test_a_doubled_rho_entry_fails_idempotence(monkeypatch):
    m = trivial_fibration(projective_space(2), projective_space(1))
    b = ((0, 1), (1, 1))  # pi^*(h) * T_1
    projectors = ProjectorFamily.projectors

    def doubled(family):
        rho = projectors(family)
        rho[(0, 1)][b] = {b: 2}
        return rho

    monkeypatch.setattr(ProjectorFamily, "projectors", doubled)
    report = verify_projector_family(ProjectorFamily(m), samples=2)
    assert {c.label: c.details for c in report.checks if not c.passed} == {
        "idempotence": ["rho (0, 1) is not idempotent on codim 1"],
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
