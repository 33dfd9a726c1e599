"""Chow-Kunneth decompositions: cellular construction, the lift, batteries."""

import pytest

from chowkit import (
    CKDecomposition,
    ambient_extend,
    cellular_ck,
    ck_battery,
    correspondence_from_action,
    diagonal,
    grassmannian,
    hirzebruch,
    kunneth_product,
    lift_base_correspondence,
    lift_ck,
    lifted_blocks,
    point,
    product_model,
    projective_bundle_model,
    projective_space,
    trivial_fibration,
    validate_fibration,
    verify_action_window,
    verify_block_diagonality,
    verify_ck,
    verify_motive_isomorphism,
    zero_correspondence,
)
from chowkit import murre
from chowkit.correspondences import act, action_columns
from chowkit.fibrations import ProjectorFamily
from chowkit.linalg import apply, matrix_sum

from corpus import bundle_over_gr24, flat_square, nonassociative, standard_models, standard_rings


def projector_rank(action, k):
    """Total rank of the degree-k projector over all codims of an action window."""
    return sum(r for (k_, _), r in action.table["ranks"].items() if k_ == k)


def test_cellular_ck_point_is_the_diagonal():
    pt = point()
    ck = cellular_ck(pt)
    assert set(ck.projectors) == {0}
    assert ck.projector(0) == diagonal(pt)
    assert ck.report is not None and ck.report.passed


def test_cellular_ck_p2():
    p2 = projective_space(2)
    ck = cellular_ck(p2)
    assert ck.name == "cellular CK of P^2"
    assert set(ck.projectors) == {0, 1, 2, 3, 4}
    for k in (1, 3):
        assert ck.projector(k).is_zero()
    # even projector 2i acts as the identity on codim i and kills the rest
    for i in range(3):
        proj = ck.projector(2 * i)
        for cell in p2.cells:
            want = p2.basis_cycle(cell) if cell.codim == i else p2.zero()
            assert act(proj, p2.basis_cycle(cell)) == want


def test_cellular_ck_sums_to_diagonal():
    g = grassmannian(2, 4)
    ck = cellular_ck(g)
    total = zero_correspondence(g, g, 0)
    for p in ck.projectors.values():
        total = total + p
    assert total == diagonal(g)


BASES = [
    *standard_rings(),
    grassmannian(2, 6),
    kunneth_product(projective_space(1), projective_space(2)),
]


@pytest.mark.parametrize("ring", BASES, ids=[r.name for r in BASES])
def test_cellular_ck_is_the_only_ck_of_a_cellular_ring(ring):
    # a genuine projector of degree 2j acts as the identity on CH^j and as
    # zero elsewhere, and the pairings are perfect, so the action fixes it:
    # the cellular CK is the one CK lift_ck has to lift
    ck = cellular_ck(ring)
    for k, p in ck.projectors.items():
        cells = [c.key for c in ring.cells if 2 * c.codim == k]
        assert action_columns(p) == {c: {c: 1} for c in cells}
    for j in range(ring.dimension + 1):
        onto = {c.key: ring.basis_cycle(c) for c in ring.cells_of_codim(j)}
        assert correspondence_from_action(ring, ring, onto, 0) == ck.projectors[2 * j]


def test_lift_ck_takes_no_base_decomposition():
    model = hirzebruch(1)
    base_ck = cellular_ck(model.base)
    with pytest.raises(TypeError):
        lift_ck(model, base_ck)  # validate is keyword-only
    with pytest.raises(TypeError):
        lift_ck(model, base_ck=base_ck)


def test_decomposition_container_validation():
    p1 = projective_space(1)
    ck = cellular_ck(p1)
    plain = CKDecomposition(p1, ck.projectors)
    assert plain.name == "CK(P^1)" and plain.report is None
    assert CKDecomposition(p1, ck.projectors, name="mine").name == "mine"
    missing = {k: v for k, v in ck.projectors.items() if k != 2}
    with pytest.raises(ValueError, match="every degree"):
        CKDecomposition(p1, missing)
    p2 = projective_space(2)
    alien = dict(ck.projectors)
    alien[0] = diagonal(p2)
    with pytest.raises(ValueError, match="self-correspondence"):
        CKDecomposition(p1, alien)


def test_operator_decomposition_refuses_keys_outside_the_model():
    model = hirzebruch(1)
    projs = lift_ck(model).projectors
    stray = ((0, 1), (5, 1))  # hirzebruch(1) has no base cell of codim 5
    b = model.basis_keys(0)[0]
    # a stray column key, then a stray row key
    for k, bad in [(0, {stray: {b: 1}}), (2, {b: {stray: 1}})]:
        with pytest.raises(ValueError, match=(
            rf"^projector {k} has key \(\(0, 1\), \(5, 1\)\) outside the basis of hirzebruch\(1\)$"
        )):
            CKDecomposition(model, {**projs, k: bad})


def test_decomposition_kind_follows_the_space():
    assert cellular_ck(projective_space(1)).kind == "cycle"
    assert lift_ck(hirzebruch(1)).kind == "operator"


def test_verify_ck_reads_the_columns_once(monkeypatch):
    ck = cellular_ck(projective_space(3), validate=False)
    calls = []
    read = murre.action_columns
    monkeypatch.setattr(murre, "action_columns", lambda f: calls.append(f) or read(f))
    assert verify_ck(ck).passed
    assert len(calls) == len(ck.projectors) == 7


def test_verify_ck_reports_conditions():
    report = verify_ck(cellular_ck(projective_space(2), validate=False))
    assert report.passed
    names = [c.label for c in report.checks]
    assert "(a) idempotence" in names
    assert "(a) orthogonality" in names
    assert "(a) completeness (sum = diagonal)" in names
    assert any(n.startswith("(b) action window") for n in names)
    # condition (c) is declared, never evaluated
    assert ("condition (c)", "not checked - out of scope", []) in [
        (c.label, c.status, c.details) for c in report.checks
    ]
    d = report.to_dict()
    assert d["check"] == "chow-kunneth" and d["passed"]
    assert d["action"]["check"] == "action-window"


def test_verify_ck_catches_a_duplicated_projector():
    p1 = projective_space(1)
    ck = cellular_ck(p1)
    projs = dict(ck.projectors)
    projs[2] = projs[0]  # still idempotent, no longer orthogonal or complete
    broken = CKDecomposition(p1, projs, name="broken")
    report = verify_ck(broken)
    assert not report.passed
    status = {c.label: c.status for c in report.checks}
    assert status["(a) idempotence"] == "pass"
    assert status["(a) orthogonality"] == "FAIL"
    assert status["(a) completeness (sum = diagonal)"] == "FAIL"


def test_action_window_cellular():
    rep = verify_action_window(cellular_ck(projective_space(2)))
    assert rep.passed
    support = sorted((k, j, r) for (k, j), r in rep.table["ranks"].items() if r)
    assert support == [(0, 0, 1), (2, 1, 1), (4, 2, 1)]
    assert projector_rank(rep, 2) == 1 and projector_rank(rep, 3) == 0
    assert rep.lines()[0].startswith("action support of cellular CK of P^2")
    assert rep.lines()[-1] == "  window violations: none"


def test_action_window_flags_out_of_window_rank():
    # swap the P^1 projectors: degree 0 now acts on codim 1 and vice versa,
    # both outside j <= k <= 2j
    p1 = projective_space(1)
    ck = cellular_ck(p1)
    projs = dict(ck.projectors)
    projs[0], projs[2] = projs[2], projs[0]
    swapped = CKDecomposition(p1, projs, name="swapped")
    rep = verify_action_window(swapped)
    assert not rep.passed
    assert (0, 1, 1) in rep.table["violations"] and (2, 0, 1) in rep.table["violations"]
    assert any(line.strip() == "window violations:" for line in rep.lines())
    assert not verify_ck(swapped).passed


@pytest.mark.parametrize(
    "make",
    [
        lambda: cellular_ck(projective_space(6)),
        lambda: cellular_ck(grassmannian(2, 5)),
        lambda: lift_ck(hirzebruch(1)),
        lambda: lift_ck(product_model(projective_space(2), grassmannian(2, 4))),
    ],
    ids=["p6", "gr25", "hirzebruch1", "p2xgr24"],
)
def test_projector_ranks_line_sums_each_degree(make):
    # the line as the per-degree rescan of the whole rank table printed it
    rep = verify_action_window(make())
    degrees = sorted({k for k, _ in rep.table["ranks"]})
    want = "  projector ranks: " + ", ".join(f"deg {k}: {projector_rank(rep, k)}" for k in degrees)
    assert want in rep.lines()


def test_lift_base_correspondence_odd_degree_is_zero():
    m = hirzebruch(1)
    d = diagonal(m.base)
    op = lift_base_correspondence(m, d, 1)
    y = m.cycle({(0, 1): m.base.cycle({"1": 2, "h": 3})})
    assert op == {} and apply(op, y.vector()) == {}
    with pytest.raises(ValueError, match="self-correspondence of the base"):
        lift_base_correspondence(m, diagonal(projective_space(2)), 0)


def test_lift_base_correspondence_even_degree_peels():
    m = hirzebruch(1)
    d = diagonal(m.base)
    y = m.cycle({(0, 1): m.base.cycle({"1": 2, "h": 3}), (1, 1): m.base.cycle({"1": 5})})
    # degree 0 keeps the T[1] slice, degree 2 the T[h] slice
    low = m.cycle({(0, 1): m.base.cycle({"1": 2, "h": 3})})
    assert apply(lift_base_correspondence(m, d, 0), y.vector()) == low.vector()
    high = m.cycle({(1, 1): m.base.cycle({"1": 5})})
    assert apply(lift_base_correspondence(m, d, 2), y.vector()) == high.vector()


def test_lifted_blocks_partition_the_grid():
    model = hirzebruch(1)
    blocks = lifted_blocks(model)
    # the zero blocks (odd base or fiber degree) are never built
    assert list(blocks) == [(0, 0), (0, 2), (2, 0), (2, 2)]
    ck = lift_ck(model)
    assert sorted(ck.projectors) == [0, 1, 2, 3, 4]
    for k, m in ck.projectors.items():
        assert m == matrix_sum((1, blocks[i, j]) for i, j in blocks if i + j == k)
    assert ck.projectors[2] == matrix_sum(((1, blocks[0, 2]), (1, blocks[2, 0])))


def test_lift_ck_hirzebruch():
    ck = lift_ck(hirzebruch(1))
    assert ck.kind == "operator"
    assert ck.name == "lifted CK of hirzebruch(1)"
    assert ck.report.passed
    rep = verify_action_window(ck)
    assert [projector_rank(rep, k) for k in range(5)] == [1, 0, 2, 0, 1]
    assert rep.passed


def test_lift_ck_product_ranks():
    m = product_model(projective_space(2), projective_space(1))
    rep = verify_action_window(lift_ck(m))
    assert [projector_rank(rep, k) for k in range(7)] == [1, 0, 2, 0, 2, 0, 1]


def test_block_diagonality():
    report = verify_block_diagonality(hirzebruch(1), samples=5, seed=3)
    assert report.passed
    assert report.lines()[0] == "projector system on block diagonality on hirzebruch(1): pass"


def test_block_diagonality_with_zero_samples_is_not_passed():
    report = verify_block_diagonality(hirzebruch(1), samples=0)
    assert not report.passed
    assert report.lines() == [
        "projector system on block diagonality on hirzebruch(1): FAIL",
        "  0 random cycles, 9 blocks: skipped (0 instances)",
    ]


def test_ck_battery_reverifies_ambient_extensions():
    report = ck_battery(hirzebruch(1), battery=(point(), projective_space(1)))
    assert report.passed
    names = [name for name, _ in report.children]
    assert names == ["hirzebruch(1)", "point x hirzebruch(1)", "P^1 x hirzebruch(1)"]


def test_lift_matches_cellular_on_trivial_models():
    trivial = [m for m in standard_models() if m.is_trivial]
    assert len(trivial) == 10  # nine products and hirzebruch(0)
    for m in trivial:
        report = verify_motive_isomorphism(m)
        assert report.passed, "\n".join(report.lines())
        (check,) = [c for c in report.checks if c.label.startswith("F Pi_k")]
        assert check.count == 2 * m.dimension + 1


def bundles_over_gr24():
    gr = grassmannian(2, 4)
    return [
        projective_bundle_model(gr, [gr.cycle({"s[1]": 1})], rank=3),
        bundle_over_gr24(),
    ]


def test_motive_isomorphism_on_every_model():
    # every identity on every model, twisted or trivial, and on its extension
    # by P^1; each check counts its instances, so none passes vacuously
    models = standard_models() + [hirzebruch(3), hirzebruch(-1)] + bundles_over_gr24()
    for m in models + [ambient_extend(m, projective_space(1)) for m in models]:
        report = verify_motive_isomorphism(m)
        assert report.passed, "\n".join(report.lines())
        n = len(m.basis_keys())
        assert [c.count for c in report.checks] == [
            n, n, 2 * m.dimension + 1, len(m.generators)
        ], m.name


def test_motive_isomorphism_sweeps_each_basis_element_once(monkeypatch):
    # F and B are checked once on each basis element, and F is the key
    # relabeling, so no basis element is swept, with or without lifted blocks
    sweeps = []
    sweep = ProjectorFamily.apply_all_with_coefficients
    monkeypatch.setattr(
        ProjectorFamily,
        "apply_all_with_coefficients",
        lambda family, y: sweeps.append(1) or sweep(family, y),
    )
    fresh, lifted = bundles_over_gr24()
    report = verify_motive_isomorphism(fresh)
    assert report.passed
    assert [c.count for c in report.checks[:2]] == [len(fresh.basis_keys())] * 2 == [18, 18]
    assert sweeps == []
    lifted_blocks(lifted)
    assert verify_motive_isomorphism(lifted).passed
    assert sweeps == []


def failures(report):
    return {c.label.rsplit(" (", 1)[0]: c.details for c in report.checks if not c.passed}


def test_motive_isomorphism_names_a_doubled_rho_entry(monkeypatch):
    m = trivial_fibration(projective_space(2), projective_space(1))
    b = ((0, 1), (1, 1))  # pi^*(h) * T_1
    projectors = ProjectorFamily.projectors

    def doubled(family):
        rho = projectors(family)
        rho[(0, 1)][b] = {b: 2}
        return rho

    monkeypatch.setattr(ProjectorFamily, "projectors", doubled)
    assert failures(verify_motive_isomorphism(m)) == {
        "F rho_g = (Delta_X x p_g) F": [
            "generator (0, 1): first differs at basis key ((0, 1), (1, 1))"
        ],
    }


def test_motive_isomorphism_names_swapped_lifted_blocks():
    m = trivial_fibration(projective_space(2), projective_space(1))
    blocks = lifted_blocks(m)
    blocks[0, 0], blocks[0, 2] = blocks[0, 2], blocks[0, 0]
    assert failures(verify_motive_isomorphism(m)) == {
        "F Pi_k = pi_k F": [
            "degree 0: first differs at basis key ((0, 1), (0, 1))",
            "degree 2: first differs at basis key ((0, 1), (0, 1))",
        ],
    }


def test_motive_isomorphism_on_the_failing_golden_models():
    # u * u = 0 leaves the flat square's sweep unable to peel: it fails
    # fiberwise duality, so its family writes no F and no projector
    with pytest.raises(ValueError, match=(
        r"^projector family on flat square: fiberwise duality fails: "
        r"top component of T\(1, 1\)\*T\(1, 1\) is 0, expected 1$"
    )):
        verify_motive_isomorphism(flat_square())
    # the nonassociative table breaks only a triple product; its pairwise top
    # components obey the duality pattern, so F is still a module
    # isomorphism compatible with every projector, and only
    # validate_fibration sees the fault
    m = nonassociative()
    assert verify_motive_isomorphism(m).passed
    (check,) = [c for c in validate_fibration(m).checks if not c.passed]
    assert check.label == "associativity on generators"
    assert "associativity fails at generators (1, 1), (1, 1), (2, 1)" in check.details
