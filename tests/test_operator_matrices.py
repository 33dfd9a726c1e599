"""Fibration operators as exact per-codim matrices.

The matrices are checked against the closure route they replace (sweep the
input, peel, act, reassemble, on every call), and the matrix checkers are
shown to fail on perturbed operators.
"""

import pytest

from chowkit import (
    ambient_extend,
    build_lift_plan,
    build_projector_family,
    decompose_model,
    diagonal,
    hirzebruch,
    identity_operator,
    lift_base_correspondence,
    lift_ck,
    projective_bundle_model,
    projective_space,
    verify_block_diagonality,
    verify_ck,
)
from chowkit.catalog import standard_models
from chowkit.fibrations import ProjectorFamily
from chowkit.correspondences import act
from chowkit.motives import fiber_projectors
from chowkit.murre import LiftPlan
from chowkit.sampling import random_fibered_cycle, seeded_rng

MODELS = standard_models() + [ambient_extend(hirzebruch(1), projective_space(1))]


# -- the closure route, kept here as the reference ------------------------------


def reference_peel(model, family, phis):
    """y -> sum over g of pi^*(phi_g(alpha_g(y))) * T_g, sweeping y on every
    call; phi_g None is the identity."""

    def run(y):
        coeffs = family.apply_all_with_coefficients(y)
        out = model.zero()
        for g, phi in phis.items():
            alpha = coeffs[g][0]
            image = alpha if phi is None else act(phi, alpha)
            out = out + model.multiply(model.generator(g), model.pullback(image))
        return out

    return run


def reference_block(plan, i, j):
    model = plan.model
    phi = plan.base_ck.projectors[i]
    if j % 2 or phi.is_zero():
        return lambda y: model.zero()
    family = build_projector_family(model)
    return reference_peel(model, family, {g: phi for g in model.generators if g[0] == j // 2})


def reference_projector(plan, k):
    blocks = [reference_block(plan, i, j) for i, j in plan.index_set(k)]
    return lambda y: sum((b(y) for b in blocks), plan.model.zero())


def inputs(model):
    rng = seeded_rng(0)
    return model.module_basis() + [random_fibered_cycle(rng, model, bound=5) for _ in range(10)]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_matrices_match_the_closure_route(model):
    plan = build_lift_plan(model)
    ys = inputs(model)
    pairs = []
    for i in range(plan.base_top + 1):
        for j in range(plan.fiber_top + 1):
            pairs.append((f"block ({i}, {j})", plan.block(i, j), reference_block(plan, i, j)))
    for k in range(plan.top + 1):
        pairs.append((f"Pi_{k}", plan.operator(k), reference_projector(plan, k)))
    base_ps = fiber_projectors(model.base)
    dec = decompose_model(model)
    expected = [(g, bp) for g in model.generators for bp in base_ps]
    assert len(dec.pieces) == len(expected)
    for (label, _, op), (g, bp) in zip(dec.pieces, expected):
        family = build_projector_family(model)
        pairs.append((f"piece {label}", op, reference_peel(model, family, {g: bp})))
    for name, op, ref in pairs:
        for n, y in enumerate(ys):
            assert op(y) == ref(y), f"{name} differs on input {n} of {model.name}"


def fresh_model():
    """A model no other test has swept: the catalog's hirzebruch(1) is cached."""
    p1 = projective_space(1)
    return projective_bundle_model(p1, [p1.cycle({"h": 1})], name="fresh hirzebruch(1)")


def count_sweeps(monkeypatch):
    calls = []
    sweep = ProjectorFamily.apply_all_with_coefficients
    monkeypatch.setattr(
        ProjectorFamily,
        "apply_all_with_coefficients",
        lambda fam, y: calls.append(y) or sweep(fam, y),
    )
    return calls


def test_sweeps_run_once_per_basis_element(monkeypatch):
    model = fresh_model()
    plan = build_lift_plan(model)
    calls = count_sweeps(monkeypatch)
    for k in range(plan.top + 1):
        plan.operator(k)
    decompose_model(model)
    assert len(calls) == len(model.module_basis())


def test_one_family_serves_every_operator_of_a_model(monkeypatch):
    model = fresh_model()
    calls = count_sweeps(monkeypatch)
    lift_ck(model)
    assert verify_block_diagonality(model).passed
    decompose_model(model)
    lift_base_correspondence(model, diagonal(model.base), 2)
    assert len(calls) == len(model.module_basis())


def test_a_model_keeps_its_family():
    model = fresh_model()
    family = build_projector_family(model)
    assert build_projector_family(model) is family
    extended = ambient_extend(model, projective_space(1))
    assert build_projector_family(extended) is not family
    assert build_projector_family(extended).model is extended


# -- the matrix checkers can fail -------------------------------------------------


def conditions(report):
    return {c.label: (c.status, c.details) for c in report.checks}


def test_verify_ck_catches_a_perturbed_entry():
    ck = lift_ck(hirzebruch(1), validate=False)
    col = next(col for col in ck.projectors[2].columns[1].values() if col)
    col[next(iter(col))] += 1
    status = conditions(verify_ck(ck))
    assert status["(a) idempotence"] == ("FAIL", ["projector 2 is not idempotent on codim 1"])
    assert status["(a) completeness (sum = identity)"] == (
        "FAIL", ["projector sum is not the identity on codim 1"]
    )
    assert status["grading (projectors preserve codimension)"][0] == "pass"


def test_verify_ck_catches_an_off_codim_image():
    model = hirzebruch(1)
    ck = lift_ck(model, validate=False)
    (b,) = ck.projectors[0].columns[0]
    stray = model.basis_keys(1)[0]
    ck.projectors[0].columns[0][b][stray] = 1
    report = verify_ck(ck)
    assert not report.passed
    assert conditions(report)["grading (projectors preserve codimension)"] == (
        "FAIL", ["projector 0 moves codim 0 into codims [1]"]
    )


def test_block_diagonality_catches_a_perturbed_block(monkeypatch):
    block = LiftPlan.block

    def perturbed(plan, i, j):
        op = block(plan, i, j)
        return op + identity_operator(plan.model) if (i, j) == (0, 0) else op

    monkeypatch.setattr(LiftPlan, "block", perturbed)
    report = verify_block_diagonality(hirzebruch(1), samples=2, seed=3)
    assert not report.passed
    check = report.checks[0]
    label, ok, details = check.label, check.passed, check.details
    assert label == "2 random cycles, 9 blocks" and not ok
    assert "sample 0: block (0, 0) after block (0, 0) is not the block itself" in details
    assert "sample 1: block (0, 2) after block (0, 0) is not zero" in details


def test_decompose_model_catches_a_perturbed_piece(monkeypatch):
    peeled = ProjectorFamily.peeled_operator

    def perturbed(family, phis, name):
        op = peeled(family, phis, name)
        return op + op if name == "(T[h], 1)" else op

    monkeypatch.setattr(ProjectorFamily, "peeled_operator", perturbed)
    with pytest.raises(ValueError) as err:
        decompose_model(hirzebruch(1))
    message = str(err.value)
    assert "piece (T[h], 1) is not idempotent on codim 1" in message
    assert "piece sum differs from the identity on codim 1" in message
