"""Fibration operators as exact sparse matrices.

The matrices are written from keys (ProjectorFamily.placed_operators).  They
are checked against their reference in oracles.py, the closure route (sweep
the input, peel, act, reassemble, on every call), on random inputs and
column by column on the module basis, and the matrix checkers are shown to
fail on perturbed operators.
"""

import pytest

from chowkit import (
    ambient_extend,
    build_projector_family,
    decompose_model,
    diagonal,
    hirzebruch,
    lift_base_correspondence,
    lift_ck,
    lifted_blocks,
    product_model,
    projective_space,
    verify_block_diagonality,
    verify_ck,
    verify_motive_isomorphism,
    verify_projector_family,
)
from chowkit import fibrations, murre
from chowkit.fibrations import ProjectorFamily
from chowkit.linalg import apply, matrix_sum
from chowkit.motives import fiber_projectors
from chowkit.sampling import seeded_rng

import oracles
from checks import check_lift_ck, check_lifted_blocks, check_placed_operators
from corpus import bundle_over_gr24, fibered_cycles, fresh_hirzebruch, identity_added_to_block_00, standard_models

MODELS = standard_models() + [
    ambient_extend(hirzebruch(1), projective_space(1)),
    bundle_over_gr24(),
]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_matrices_match_the_closure_route(model):
    # each operator applied to cycles, against the reference swept on each
    blocks, slots = lifted_blocks(model), oracles.block_slots(model)
    pairs = [(f"block {key}", blocks.get(key, {}), block) for key, block in slots.items()]
    lifted = lift_ck(model)
    pairs += [(f"Pi_{k}", lifted.projectors[k], [s for (i, j), b in slots.items() if i + j == k for s in b])
              for k in range(2 * model.dimension + 1)]
    base_ps = fiber_projectors(model.base)
    dec = decompose_model(model)
    expected = [(g, bp) for g in model.generators for bp in base_ps]
    assert len(dec.pieces) == len(expected)
    pairs += [(f"piece {label}", op, [slot]) for (label, _, op), slot in zip(dec.pieces, expected)]
    for n, y in enumerate(fibered_cycles(seeded_rng(0), model)):
        alphas = oracles.sweep(model, y)
        for name, op, ref in pairs:
            want = oracles.peeled(model, ref, alphas).vector()
            assert apply(op, y.vector()) == want, f"{name} differs on input {n} of {model.name}"


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_one_pass_matches_the_per_operator_walk(model):
    # every operator against the reference's matrix, one basis element per column
    for check in (check_lifted_blocks, check_lift_ck, check_placed_operators):
        check(model, None)
    # the production builder takes sparse matrices; the reference acts by correspondences
    d = diagonal(model.base)
    lifts = {j: [(g, d) for g in model.generators if 2 * g[0] == j] for j in range(2 * model.fiber.dimension + 2)}
    for j, want in oracles.placed(model, lifts).items():  # no slot for odd j
        assert lift_base_correspondence(model, d, j) == want, f"lift_{j}"


def count_sweeps(monkeypatch):
    calls = []
    sweep = ProjectorFamily.apply_all_with_coefficients
    monkeypatch.setattr(
        ProjectorFamily,
        "apply_all_with_coefficients",
        lambda fam, y: calls.append(y) or sweep(fam, y),
    )
    return calls


def count_builds(monkeypatch):
    calls = []
    build = ProjectorFamily.placed_operators
    monkeypatch.setattr(
        ProjectorFamily,
        "placed_operators",
        lambda fam, maps: calls.append(list(maps)) or build(fam, maps),
    )
    return calls


def test_sweeps_run_once_per_basis_element(monkeypatch):
    # at most once, and here never: the lift and the decomposition place
    # every operator from keys
    model = fresh_hirzebruch()
    calls = count_sweeps(monkeypatch)
    assert verify_ck(lift_ck(model)).passed
    assert decompose_model(model).report.passed
    assert calls == []


def test_one_family_serves_every_operator_of_a_model(monkeypatch):
    # the model's laws are checked once, by its one family, for every operator
    model = fresh_hirzebruch()
    checked = []
    laws = fibrations._lemma_laws
    monkeypatch.setattr(fibrations, "_lemma_laws", lambda m: checked.append(m) or laws(m))
    lift_ck(model)
    assert verify_block_diagonality(model).passed
    decompose_model(model)
    lift_base_correspondence(model, diagonal(model.base), 2)
    assert verify_projector_family(build_projector_family(model), samples=3).passed
    assert verify_motive_isomorphism(model).passed
    assert checked == [model]


def test_blocks_are_built_once_per_model(monkeypatch):
    model = fresh_hirzebruch()
    builds = count_builds(monkeypatch)
    base_checks = []
    cellular = murre.cellular_ck
    monkeypatch.setattr(murre, "cellular_ck", lambda ring: base_checks.append(ring) or cellular(ring))
    first = lift_ck(model)
    second = lift_ck(model)
    assert verify_block_diagonality(model).passed
    assert builds == [[(0, 0), (0, 2), (2, 0), (2, 2)]]
    assert base_checks == [model.base]  # the base's cellular CK is built and checked once
    assert build_projector_family(model).blocks is lifted_blocks(model)
    # each lift sums the kept blocks into fresh matrices
    assert first.projectors[2] == second.projectors[2]
    assert first.projectors[2] is not second.projectors[2]
    decompose_model(model)
    assert len(builds) == 2 and len(builds[1]) == len(model.basis_keys())


def count_products(monkeypatch):
    calls = []
    monkeypatch.setattr(murre, "apply", lambda op, vec: calls.append(op) or apply(op, vec))
    return calls


@pytest.mark.parametrize("model", [
    hirzebruch(1),
    bundle_over_gr24(),
    product_model(projective_space(4), projective_space(3)),
], ids=lambda m: m.name)
def test_block_products_stay_within_the_touched_pairs(model, monkeypatch):
    blocks = lifted_blocks(model)
    owners = {}
    for key, m in blocks.items():
        for b in m:
            owners.setdefault(b, set()).add(key)
    # every block a block's image can reach, plus the block itself
    bound = sum(
        len({key}.union(*(owners.get(r, ()) for col in m.values() for r in col)))
        for key, m in blocks.items()
    )
    samples = 3
    calls = count_products(monkeypatch)
    assert verify_block_diagonality(model, samples=samples, seed=1).passed
    assert len(calls) <= samples * bound
    assert samples * len(blocks) <= len(calls)  # the diagonal pairs
    if len(blocks) > 4:
        assert len(calls) < samples * len(blocks) ** 2


def test_a_model_keeps_its_family():
    model = fresh_hirzebruch()
    family = build_projector_family(model)
    assert build_projector_family(model) is family
    extended = ambient_extend(model, projective_space(1))
    assert build_projector_family(extended) is not family
    assert build_projector_family(extended).model is extended


# -- the matrix checkers can fail -------------------------------------------------


def conditions(report):
    return {c.label: (c.status, c.details) for c in report.checks}


def test_verify_ck_catches_a_perturbed_entry():
    model = hirzebruch(1)
    ck = lift_ck(model, validate=False)
    cols = ck.projectors[2]
    col = cols[next(b for b in model.basis_keys(1) if b in cols)]
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
    (b,) = model.basis_keys(0)
    stray = model.basis_keys(1)[0]
    ck.projectors[0][b][stray] = 1
    report = verify_ck(ck)
    assert not report.passed
    assert conditions(report)["grading (projectors preserve codimension)"] == (
        "FAIL", ["projector 0 moves codim 0 into codims [1]"]
    )


def test_block_diagonality_catches_a_perturbed_block(monkeypatch):
    model = hirzebruch(1)
    identity_added_to_block_00(monkeypatch, model)
    report = verify_block_diagonality(model, samples=2, seed=3)
    assert not report.passed
    check = report.checks[0]
    label, ok, details = check.label, check.passed, check.details
    assert label == "2 random cycles, 9 blocks" and not ok
    assert "sample 0: block (0, 0) after block (0, 0) is not the block itself" in details
    assert "sample 1: block (0, 2) after block (0, 0) is not zero" in details


def test_decompose_model_catches_a_perturbed_piece(monkeypatch):
    build = ProjectorFamily.placed_operators

    def perturbed(family, maps):
        ops = build(family, maps)
        if "(T[h], 1)" in ops:
            ops["(T[h], 1)"] = matrix_sum(((2, ops["(T[h], 1)"]),))
        return ops

    monkeypatch.setattr(ProjectorFamily, "placed_operators", perturbed)
    with pytest.raises(ValueError) as err:
        decompose_model(hirzebruch(1))
    message = str(err.value)
    assert "piece (T[h], 1) is not idempotent on codim 1" in message
    assert "piece sum is not the identity on codim 1" in message
