"""Chow-Kunneth decompositions: cellular construction, the lift, batteries.

The operators are written from keys (ProjectorFamily.placed_operators) and
meet their reference in test_differential.py; here they also act on random
cycles as the closure route does (sweep, peel, act, reassemble), hold no
empty column, are built once per model, and the matrix checkers fail on
perturbed ones.  Block ranks read only the block's own codim, against the dense
rank the sparse layout replaced.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from chowkit import (
    CKDecomposition,
    KunnethRing,
    ambient_extend,
    build_projector_family,
    cellular_ck,
    ck_battery,
    correspondence_from_action,
    decompose_model,
    diagonal,
    dump_ring,
    grassmannian,
    hirzebruch,
    kunneth_product,
    lift_ck,
    lifted_blocks,
    parse_ring,
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
    verify_projector_family,
    zero_correspondence,
)
from chowkit import fibrations, murre
from chowkit.correspondences import act, action_columns
from chowkit.fibrations import ProjectorFamily
from chowkit.linalg import after, apply, block_rank, codim_blocks, combine, matrix_sum, rank
from chowkit.motives import fiber_projectors
from chowkit.rings import _kept
from chowkit.sampling import seeded_rng

import oracles
from checks import forget, projector_rank, spy
from corpus import ENTRIES, bundle_over_gr24, fibered_cycles, flat_square, fresh_hirzebruch
from corpus import identity_added_to_block_00, nonassociative, off_codim_image, perturbed_pi2
from corpus import standard_models, standard_rings

# the models of the corpus that pass every law
MODELS = [*ENTRIES["model"].values(), *ENTRIES["extended model"].values()]


BASES = [
    *standard_rings(),
    grassmannian(2, 6),
    kunneth_product(projective_space(1), projective_space(2)),
]


def test_cellular_ck_point_is_the_diagonal():
    pt = point()
    ck = cellular_ck(pt)
    assert set(ck.projectors) == {0}
    assert ck.projectors[0] == diagonal(pt)
    assert verify_ck(ck).passed


def test_cellular_ck_p2():
    p2 = projective_space(2)
    ck = cellular_ck(p2)
    assert ck.name == "cellular CK of P^2" and verify_ck(ck).passed
    assert set(ck.projectors) == {0, 1, 2, 3, 4}
    for k in (1, 3):
        assert ck.projectors[k].is_zero()
    # even projector 2i acts as the identity on codim i and kills the rest
    for i in range(3):
        proj = ck.projectors[2 * i]
        for cell in p2.cells:
            want = p2.basis_cycle(cell) if cell.codim == i else p2.zero()
            assert act(proj, p2.basis_cycle(cell)) == want


def test_cellular_ck_sums_to_diagonal():
    g = grassmannian(2, 4)
    ck = cellular_ck(g)
    assert verify_ck(ck).passed
    total = zero_correspondence(g, g, 0)
    for p in ck.projectors.values():
        total = total + p
    assert total == diagonal(g)


@pytest.mark.parametrize("ring", BASES, ids=[r.name for r in BASES])
def test_cellular_ck_is_the_only_ck_of_a_cellular_ring(ring):
    # a genuine projector of degree 2j acts as the identity on CH^j and as
    # zero elsewhere, and the pairings are perfect, so the action fixes it:
    # the cellular CK is the one CK lift_ck has to lift
    ck = cellular_ck(ring)
    assert verify_ck(ck).passed
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
        lift_ck(model, base_ck)  # the model is its one argument
    with pytest.raises(TypeError):
        lift_ck(model, base_ck=base_ck)


def test_decomposition_container_validation():
    p1 = projective_space(1)
    ck = cellular_ck(p1)
    plain = CKDecomposition(p1, ck.projectors)
    # a CK keeps no report: verify_ck returns one
    assert plain.name == "CK(P^1)" and set(vars(plain)) == {"space", "projectors", "name"}
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
    ck = cellular_ck(projective_space(3))
    calls = spy(monkeypatch, murre, "action_columns")
    assert verify_ck(ck).passed
    assert len(calls) == len(ck.projectors) == 7


def test_verify_ck_reports_conditions():
    report = verify_ck(cellular_ck(projective_space(2)))
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
    assert verify_ck(ck).passed
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
    sweeps = spy(monkeypatch, ProjectorFamily, "apply_all_with_coefficients")
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


# -- operators written from keys -------------------------------------------------------


# the closure route sweeps each input through the reference once per
# operator, so it keeps to the standard models and two more
@pytest.mark.parametrize("model", standard_models() + [
    ambient_extend(hirzebruch(1), projective_space(1)),
    bundle_over_gr24(),
], ids=lambda m: m.name)
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


def test_sweeps_run_once_per_basis_element(monkeypatch):
    # at most once, and here never: the lift and the decomposition place
    # every operator from keys
    model = fresh_hirzebruch()
    calls = spy(monkeypatch, ProjectorFamily, "apply_all_with_coefficients")
    assert verify_ck(lift_ck(model)).passed
    assert decompose_model(model).report.passed
    assert calls == []


def test_one_family_serves_every_operator_of_a_model(monkeypatch):
    # the model's laws are computed once and kept on it, for its validation,
    # its one family and every operator
    model = fresh_hirzebruch()
    checked = spy(monkeypatch, fibrations, "_lemma_laws")
    assert validate_fibration(model).passed
    lift_ck(model)
    assert verify_block_diagonality(model).passed
    decompose_model(model)
    assert verify_projector_family(build_projector_family(model), samples=3).passed
    assert verify_motive_isomorphism(model).passed
    assert validate_fibration(model).passed
    assert checked == [(model,)]


def test_blocks_are_built_once_per_model(monkeypatch):
    model = fresh_hirzebruch()
    builds = spy(monkeypatch, ProjectorFamily, "placed_operators")
    base_checks = spy(monkeypatch, murre, "cellular_ck")
    first = lift_ck(model)
    second = lift_ck(model)
    assert verify_block_diagonality(model).passed
    assert [list(maps) for _, maps in builds] == [[(0, 0), (0, 2), (2, 0), (2, 2)]]
    assert base_checks == [(model.base,)]  # the base's cellular CK is built and checked once
    assert _kept(model, murre._blocks) is lifted_blocks(model)  # kept on the model
    # each lift sums the kept blocks into fresh matrices
    assert first.projectors[2] == second.projectors[2]
    assert first.projectors[2] is not second.projectors[2]
    decompose_model(model)
    assert len(builds) == 2 and len(builds[1][1]) == len(model.basis_keys())


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
    calls = spy(monkeypatch, murre, "apply")
    assert verify_block_diagonality(model, samples=samples, seed=1).passed
    assert len(calls) <= samples * bound
    assert samples * len(blocks) <= len(calls)  # the diagonal pairs
    if len(blocks) > 4:
        assert len(calls) < samples * len(blocks) ** 2


# -- sparse operators hold no empty column ---------------------------------------------


def assert_sparse(keys, columns, what):
    """columns maps basis keys to nonempty columns of nonzero coefficients
    on basis keys."""
    for b, col in columns.items():
        assert b in keys, f"{what}: {b!r} is not a basis key"
        assert col, f"{what}: empty column at {b!r}"
        assert all(r in keys and c for r, c in col.items()), f"{what}: column {b!r} is {col!r}"


def test_no_model_operator_holds_an_empty_column():
    for model in MODELS:
        assert_sparse_operators(model)


def assert_sparse_operators(model):
    """The blocks, projectors and pieces of model, and sums and products of
    the projectors, hold no empty column and no zero entry."""
    keys = set(model.basis_keys())
    ops = {f"block {key}": m for key, m in lifted_blocks(model).items()}
    pis = lift_ck(model).projectors
    ops.update((f"Pi_{k}", m) for k, m in pis.items())
    ops.update((f"piece {label}", m) for label, _, m in decompose_model(model).pieces)
    for k in range(len(pis) - 1):
        ops[f"Pi_{k} + Pi_{k + 1}"] = matrix_sum(((1, pis[k]), (1, pis[k + 1])))
        ops[f"Pi_{k} - Pi_{k}"] = matrix_sum(((1, pis[k]), (-1, pis[k])))
        ops[f"Pi_{k} @ Pi_{k}"] = after(pis[k], pis[k])
        ops[f"Pi_{k} @ Pi_{k + 1}"] = after(pis[k], pis[k + 1])
    total = matrix_sum((1, m) for m in pis.values())
    identity = {b: {b: 1} for b in model.basis_keys()}
    ops["sum of Pi_k"] = total
    ops["id - sum of Pi_k"] = matrix_sum(((1, identity), (-1, total)))
    for what, m in ops.items():
        assert_sparse(keys, m, f"{what} on {model.name}")
    # zero results hold no column at all
    assert ops["Pi_0 - Pi_0"] == {} and ops["id - sum of Pi_k"] == {}
    assert total == identity


@pytest.mark.parametrize("ring", standard_rings(), ids=lambda r: r.name)
def test_no_action_holds_an_empty_column(ring):
    keys = {cell.key for cell in ring.cells}
    ps = list(cellular_ck(ring).projectors.values()) + fiber_projectors(ring)
    for n, p in enumerate(ps):
        assert_sparse(keys, action_columns(p), f"projector {n} on {ring.name}")
    if ring.dimension:
        assert action_columns(cellular_ck(ring).projectors[1]) == {}  # odd degree: zero


def test_apply_drops_cancelled_terms():
    f = {"x": {"b": 1}, "y": {"b": 1, "c": 2}, "z": {"b": Fraction(1, 2)}}
    vecs = [{"x": 1, "y": -1}, {"x": 1, "z": -2}, {"x": 2, "y": 1}, {"w": 5}, {}, {"y": Fraction(1, 2)}]
    for vec in vecs:
        got = apply(f, vec)
        assert got == combine((c, f[k]) for k, c in vec.items() if k in f)
        assert all(got.values())
    assert apply(f, {"x": 1, "z": -2}) == {}
    # a column whose image cancels leaves no empty column after composition
    assert after(f, {"p": {"x": 1, "z": -2}, "q": {"y": 1}}) == {"q": {"b": 1, "c": 2}}


# -- block ranks count only the block's own codim ------------------------------------


def dense_rank(space, columns, j):
    """The rank of block (k, j) as the dense layout took it: linalg.rank of
    the column_matrix of every codim-j column, whose rows are the block's
    own codim-j keys."""
    cols = {b: columns.get(b, {}) for b in space.basis_keys(j)}
    return rank(tuple(tuple(col.get(r, 0) for col in cols.values()) for r in cols))


def assert_window_matches(ck):
    ranks = verify_action_window(ck).table["ranks"]
    for k, m in ck.projectors.items():
        for j in range(ck.space.dimension + 1):
            want = dense_rank(ck.space, m, j)
            assert ranks[k, j] == want, f"block ({k}, {j}) of {ck.name}"


def test_lifted_block_ranks_match_the_dense_rank():
    for model in MODELS:
        assert_window_matches(lift_ck(model))


@pytest.mark.parametrize("build", [perturbed_pi2, off_codim_image], ids=lambda f: f.__name__)
def test_ill_graded_block_ranks_match_the_dense_rank(build):
    assert_window_matches(build())


# basis keys by codim of a small space for random blocks
BASIS = {0: [("a", 1), ("a", 2)], 1: [("b", 1), ("b", 2), ("b", 3)], 2: [("c", 1), ("c", 2)]}
SPACE = SimpleNamespace(dimension=2, basis_keys=BASIS.__getitem__)
KEYS = [b for keys in BASIS.values() for b in keys]


# columns of any codim with entries in rows of any codim
sparse_matrices = st.dictionaries(
    st.sampled_from(KEYS),
    st.dictionaries(st.sampled_from(KEYS), st.integers(-2, 2).filter(bool), min_size=1),
    max_size=len(KEYS),
)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices)
# only an off-codim entry: rank 0, not 1
@example({("a", 1): {("b", 1): 1}})
# equal on the codim-1 rows, apart only off codim: rank 1, not 2
@example({("b", 1): {("b", 1): 1, ("a", 1): 1}, ("b", 2): {("b", 1): 1, ("c", 1): 1}})
def test_random_block_ranks_match_the_dense_rank(columns):
    codim_of, blocks = codim_blocks(SPACE, {"m": columns})
    for j in BASIS:
        assert block_rank(codim_of, blocks["m"], j) == dense_rank(SPACE, columns, j)


# -- the matrix checkers can fail -------------------------------------------------


def conditions(report):
    return {c.label: (c.status, c.details) for c in report.checks}


def test_verify_ck_catches_a_perturbed_entry():
    status = conditions(verify_ck(perturbed_pi2()))
    assert status["(a) idempotence"] == ("FAIL", ["projector 2 is not idempotent on codim 1"])
    assert status["(a) completeness (sum = identity)"] == (
        "FAIL", ["projector sum is not the identity on codim 1"]
    )
    assert status["grading (projectors preserve codimension)"][0] == "pass"


def test_verify_ck_catches_an_off_codim_image():
    report = verify_ck(off_codim_image())
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


# -- the motive isomorphism -------------------------------------------------------


def test_isomorphism_builds_no_product_of_x_times_z_with_itself(monkeypatch):
    # private rings, so that no memoized product hides a build
    x, z = (parse_ring(dump_ring(projective_space(4))) for _ in range(2))
    model = product_model(x, z)
    built = spy(monkeypatch, KunnethRing, "__init__")
    assert verify_motive_isomorphism(model).passed
    assert built  # the factors' own squares and X x Z
    assert not any(left is kunneth_product(x, z) for _, left, _ in built)


def test_isomorphism_names_a_doubled_fiber_cell_projector(monkeypatch):
    model = product_model(projective_space(2), grassmannian(2, 4))
    fiber, g = model.fiber, (2, 2)
    real = murre.fiber_projectors

    def doubled(ring):
        ps = real(ring)
        if ring is fiber:
            i = ring.basis_keys().index(g)
            ps[i] = ps[i] * 2
        return ps

    # the blocks are rebuilt under the patch, which leaves the base's CK intact
    forget(monkeypatch, model)
    monkeypatch.setattr(murre, "fiber_projectors", doubled)
    lifted_blocks(model)
    # pi_{4 + 2i} holds p_g crossed with the codim-i cell of P^2
    assert failures(verify_motive_isomorphism(model)) == {
        "F Pi_k = pi_k F": [
            f"degree {4 + 2 * i}: first differs at basis key ({g}, ({i}, 1))" for i in range(3)
        ],
        "F rho_g = (Delta_X x p_g) F": [
            f"generator {g}: first differs at basis key ({g}, (0, 1))"
        ],
    }
