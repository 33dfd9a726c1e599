"""Acceptance battery: every headline guarantee as one exact, timed test.

Each test states its scope and budget inline.  The single xfail records a
requirement that is provably unattainable: the middle-degree pairing matrix
of an even-dimensional product ring is indefinite, so it cannot equal the
identity in any cell order or basis; the companion test proves that
obstruction by exact computation.
"""

import time

import pytest

from chowkit import (
    build_projector_family,
    compose_oracle_battery,
    decompose_motive,
    diagonal,
    duality_report,
    grassmannian,
    graph_from_morphism,
    hirzebruch,
    identity_morphism,
    kunneth_product,
    lift_ck,
    manin_battery,
    point,
    product_model,
    product_morphism,
    projective_space,
    run_identity_battery,
    tensor,
    trivial_fibration,
    verify_action_window,
    verify_motive_isomorphism,
    verify_pairing,
    verify_projector_family,
)
from chowkit.correspondences import act
from chowkit.linalg import after
from chowkit.sampling import random_cycle, seeded_rng
from chowkit.schubert import lr_product, partitions_in_box

from checks import projector_rank
from corpus import module_basis, standard_models, standard_rings
from oracles import pieri_product

PRODUCT_FACTORS = (projective_space(1), projective_space(2), grassmannian(2, 4))


def test_criterion_01_pairing():
    """Exact delta pairing for the singles; for products, exact outside the
    middle degree, which is covered by the xfail/obstruction pair below.
    Budget: 5 s for everything pairing-shaped."""
    started = time.perf_counter()
    for ring in standard_rings():
        report = verify_pairing(ring)
        assert report.passed, "\n".join(report.lines())
    for a in PRODUCT_FACTORS:
        for b in PRODUCT_FACTORS:
            ring = kunneth_product(a, b)
            report = verify_pairing(ring)
            if ring.dimension % 2:
                assert report.passed, "\n".join(report.lines())
            else:
                mid = ring.dimension // 2
                assert {p for p, _, _, _ in report.table["violations"]} <= {mid}
    assert time.perf_counter() - started < 5.0


@pytest.mark.xfail(
    strict=True,
    reason="even-dimensional products pair some middle-degree cells strictly "
    "off the diagonal, so the middle pairing matrix is indefinite and can "
    "never be the identity; proved exactly in the obstruction test",
)
def test_criterion_01_kunneth_products_fully_delta_normalized():
    for a in PRODUCT_FACTORS:
        for b in PRODUCT_FACTORS:
            assert verify_pairing(kunneth_product(a, b)).passed


def test_criterion_01_middle_degree_obstruction():
    """Why the xfail above can never pass: in each even-dimensional product
    the middle pairing matrix M is a symmetric permutation with a zero
    somewhere on the diagonal.  Reordering cells permutes the diagonal, so
    no cell order gives the identity; and (e_c - e_{sigma(c)}) . M .
    (e_c - e_{sigma(c)}) = -2, so M is indefinite and no basis change at
    all gives the positive definite identity form."""
    even_products = [
        (a, b)
        for a in PRODUCT_FACTORS
        for b in PRODUCT_FACTORS
        if (a.dimension + b.dimension) % 2 == 0
    ]
    assert len(even_products) == 5
    for a, b in even_products:
        ring = kunneth_product(a, b)
        mid = ring.dimension // 2
        m = ring.pairing_matrix(mid)
        n = len(m)
        # symmetric permutation matrix
        assert all(sum(row) == 1 for row in m)
        assert all(m[i][j] == m[j][i] for i in range(n) for j in range(n))
        swapped = [i for i in range(n) if m[i][i] == 0]
        assert swapped, f"{ring.name}: middle matrix is already the identity"
        c = swapped[0]
        sigma_c = next(j for j in range(n) if m[c][j] == 1)
        x = [0] * n
        x[c], x[sigma_c] = 1, -1
        value = sum(x[i] * m[i][j] * x[j] for i in range(n) for j in range(n))
        assert value == -2
        report = verify_pairing(ring)
        assert {p for p, _, _, _ in report.table["violations"]} == {mid}


def test_criterion_02_duality_delta_pattern():
    """All 13 catalog models, every admissible generator pair, every base
    basis class plus 20 seeded random coefficients.  Budget: 10 s."""
    started = time.perf_counter()
    models = standard_models()
    assert len(models) == 13
    for model in models:
        report = duality_report(model, samples=20, seed=0)
        assert report.passed, "\n".join(report.lines())
    assert time.perf_counter() - started < 10.0


def test_criterion_03_projector_family_with_ambient_battery():
    """Degree preservation, idempotence, orthogonality, completeness on the
    full module basis of Y, then again over T x Y for T in {point, P^1,
    P^2}.  Budget: 30 s."""
    started = time.perf_counter()
    for model in standard_models():
        family = build_projector_family(model)
        report = verify_projector_family(family, samples=25, seed=0)
        assert report.passed, "\n".join(report.lines())
        names = [c.label for c in report.checks]
        for wanted in ("degree preservation", "idempotence", "pairwise orthogonality",
                       "completeness"):
            assert wanted in names
        battery = manin_battery(model, samples=10, seed=0)
        assert battery.passed, "\n".join(battery.lines())
        assert [n for n, _ in battery.children] == ["point", "P^1", "P^2"]
    assert time.perf_counter() - started < 30.0


def test_criterion_04_action_formula_on_random_cycles():
    """Feeding sum_g T_g * pi^*(alpha_g) back through the family recovers
    every alpha_g exactly, on 100 seeded random cycles per model."""
    for model in standard_models():
        family = build_projector_family(model)
        report = verify_projector_family(family, samples=100, seed=1)
        assert report.passed, "\n".join(report.lines())
        assert {c.label: c.count for c in report.checks}["coefficient extraction on random cycles"] == 100


def test_criterion_05_fiber_projector_systems():
    """Rank-one cell projectors on each fiber ring: idempotent, orthogonal,
    complete, with piece ranks summing to the ring ranks per codim."""
    for ring in (point(), projective_space(1), projective_space(2),
                 projective_space(3), grassmannian(2, 4)):
        dec = decompose_motive(ring)  # raises if any system check fails
        assert len(dec.pieces) == sum(ring.ranks)
        for p in range(ring.dimension + 1):
            assert sum(dec.report.table["rank_table"][p]) == ring.rank(p)


def test_criterion_06_operator_vs_cycle_projectors():
    """Peeling projectors of the trivial fibration act exactly like the
    diagonal-tensor cycles, and the lifted CK like the cellular CK of the
    product ring, through the motive isomorphism F."""
    p1, p2 = projective_space(1), projective_space(2)
    for left, right in ((p1, p1), (p2, p1), (p1, p2)):
        report = verify_motive_isomorphism(trivial_fibration(left, right))
        assert report.passed, "\n".join(report.lines())
        counts = [c.count for c in report.checks]
        assert counts[-1] == len(right.cells) and all(counts)


def test_criterion_07_motive_isomorphism():
    """hirzebruch(0) and hirzebruch(2) are both h(P^1) x h(P^1): each F lands
    in the same product ring, and B_2 F_0 and B_0 F_2, read off the two
    families' sweeps of the module bases, are mutually inverse."""
    h0, h2 = hirzebruch(0), hirzebruch(2)
    ring = kunneth_product(projective_space(1), projective_space(1))
    maps = {}
    for model in (h0, h2):
        report = verify_motive_isomorphism(model)
        assert report.passed, "\n".join(report.lines())
        family = build_projector_family(model)
        maps[model] = {
            b: {ring._pair_to_key[k, g]: c for g, a in coeffs.items() for k, c in a.coeffs.items()}
            for b, y in zip(model.basis_keys(), module_basis(model))
            if (coeffs := family.apply_all_with_coefficients(y))
        }
    back = {ring._pair_to_key[k, g]: (g, k) for g, k in h0.basis_keys()}

    def transport(f):  # B F, B being the relabeling (k, g) -> (g, k) on either model
        return {b: {back[key]: c for key, c in col.items()} for b, col in f.items()}

    forward, backward = transport(maps[h0]), transport(maps[h2])
    ident = {b: {b: 1} for b in h0.basis_keys()}
    assert set(h0.basis_keys()) == set(h2.basis_keys())
    assert after(backward, forward) == ident and after(forward, backward) == ident


def test_criterion_08_composition_identities():
    """The six multiplication/graph composition identities on 100 seeded
    random instances each, plus graph functoriality over an ambient line on
    both the exhaustive cell basis and 100+ random cycles."""
    report = run_identity_battery(samples=100, seed=0)
    assert report.passed, "\n".join(report.lines())
    identity_checks = [c["name"] for c in report.to_dict()["checks"] if "(100 instances)" in c["name"]]
    assert len(identity_checks) == 7  # six identities + associativity

    # functoriality on random cycles as well: the battery's own check is
    # exhaustive over basis cells, which implies these by linearity
    from chowkit import standard_morphisms

    T = projective_space(1)
    d = diagonal(T)
    rng = seeded_rng(0)
    count = 0
    for m in standard_morphisms():
        c, c_t = graph_from_morphism(m)
        pm = product_morphism(identity_morphism(T), m)
        big_target = kunneth_product(T, m.target)
        big_source = kunneth_product(T, m.source)
        for _ in range(7):
            y = random_cycle(rng, big_target, bound=10)
            assert act(tensor(d, c), y) == pm.pullback(y)
            z = random_cycle(rng, big_source, bound=10)
            assert act(tensor(d, c_t), z) == pm.pushforward(z)
            count += 2
    assert count >= 100


def test_criterion_09_ck_lift():
    """Lift the cellular base decomposition over hirzebruch(1) and the
    trivial P^2 x P^1 model; idempotence, orthogonality, completeness and
    the support window all hold exactly.  Budget: 30 s."""
    started = time.perf_counter()
    for model, ranks in (
        (hirzebruch(1), [1, 0, 2, 0, 1]),
        (product_model(projective_space(2), projective_space(1)), [1, 0, 2, 0, 2, 0, 1]),
    ):
        ck = lift_ck(model)
        assert set(ck.projectors) == set(range(2 * model.dimension + 1))
        assert ck.report.passed, "\n".join(ck.report.lines())
        action = verify_action_window(ck)
        assert action.passed
        table = action.table["ranks"]
        assert [projector_rank(action, k) for k in sorted(set(k for k, _ in table))] == ranks
        for (k, j), r in table.items():
            if k < j or k > 2 * j:
                assert r == 0
    assert time.perf_counter() - started < 30.0


def test_criterion_10_composition_oracle():
    """Triple-product composition vs direct contraction vs matrix products,
    100 seeded random pairs for each ordered ring pair."""
    report = compose_oracle_battery(samples=100, seed=0)
    assert report.passed, "\n".join(report.lines())
    assert len(report.checks) == 9
    assert all("(100 instances)" in c["name"] for c in report.to_dict()["checks"])


def test_criterion_11_rank_identity():
    """rank CH^p(Y) = sum_i m_i rank CH^{p-i}(X), every model, every p."""
    for model in standard_models():
        mult = {}
        for g in model.generators:
            mult[g[0]] = mult.get(g[0], 0) + 1
        for p in range(model.dimension + 1):
            formula = sum(m * model.base.rank(p - i) for i, m in mult.items())
            assert model.rank(p) == formula
            assert len(model.basis_keys(p)) == formula


def test_criterion_12_lr_vs_pieri():
    """Littlewood-Richardson products against the Pieri-only straightening
    oracle, every pair of partitions in the Gr(2,4) and Gr(2,5) boxes."""
    for rows, cols in ((2, 2), (2, 3)):
        shapes = partitions_in_box(rows, cols)
        for lam in shapes:
            for mu in shapes:
                assert lr_product(lam, mu, rows, cols) == pieri_product(lam, mu, rows, cols)
