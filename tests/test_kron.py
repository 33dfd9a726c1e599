"""One sparse Kronecker kernel, linalg.kron, behind the Kunneth table rows and
the right-hand sides of the motive isomorphism h(Y) = h(X) (x) h(Z).

Its references are in oracles.py: the Kunneth row read pair by pair off the
factor products, and the action of the product ring's own cellular CK and of
Delta_X (x) p_g on X x Z.
"""

import pytest

from chowkit import (
    KunnethRing,
    build_projector_family,
    cellular_ck,
    dump_ring,
    fiber_projectors,
    grassmannian,
    hirzebruch,
    kunneth_product,
    lifted_blocks,
    parse_ring,
    point,
    product_model,
    projective_space,
    verify_motive_isomorphism,
)
from chowkit import murre
from chowkit.correspondences import action_columns
from chowkit.linalg import kron, matrix_sum

import oracles
from corpus import degenerate_surface, standard_models
from oracles import typed
from test_murre import failures


@pytest.mark.parametrize(
    "pair",
    [
        lambda: (point(), projective_space(3)),
        lambda: (projective_space(2), grassmannian(2, 4)),
        lambda: (kunneth_product(projective_space(1), projective_space(2)), projective_space(1)),
        lambda: (degenerate_surface(), projective_space(1)),
    ],
    ids=["ptxp3", "p2xgr24", "p1xp2-xp1", "degeneratexp1"],
)
def test_kron_rows_match_the_nested_build(pair):
    # Gr(2,4) holds an explicit empty entry, sigma_{1,1} * sigma_2 = 0, which
    # both builds leave out
    left, right = pair()
    ring = KunnethRing(left, right)  # fresh: no row built yet
    for key in ring._by_key:
        got = ring._table[key]
        assert typed(got) == typed(oracles.kunneth_row(ring, key)), ring._by_key[key].label


def kron_sides(model):
    """pi_k and Delta_X (x) p_g as verify_motive_isomorphism builds them:
    Kronecker products of the factors' actions."""
    base, fiber = model.base, model.fiber
    pk = kunneth_product(base, fiber)._pair_to_key
    pi_x, pi_z = (cellular_ck(r, validate=False).columns() for r in (base, fiber))
    pi = {
        k: matrix_sum((1, kron(pi_x[i], pi_z[k - i], pk)) for i in pi_x if k - i in pi_z)
        for k in range(2 * model.dimension + 1)
    }
    ident = {k: {k: 1} for k in base.basis_keys()}
    cells = dict(zip(fiber.basis_keys(), fiber_projectors(fiber)))
    return pi, {g: kron(ident, action_columns(cells[g]), pk) for g in model.generators}


@pytest.mark.parametrize("model", standard_models() + [hirzebruch(3)], ids=lambda m: m.name)
def test_kron_sides_match_the_product_ring_route(model):
    (pi, rho), (want_pi, want_rho) = kron_sides(model), oracles.isomorphism_sides(model)
    assert pi == want_pi
    assert rho == want_rho


def test_isomorphism_builds_no_product_of_x_times_z_with_itself(monkeypatch):
    # private rings, so that no memoized product hides a build
    x, z = (parse_ring(dump_ring(projective_space(4))) for _ in range(2))
    model = product_model(x, z)
    built = []
    init = KunnethRing.__init__

    def spy(ring, left, right):
        built.append(left)
        init(ring, left, right)

    monkeypatch.setattr(KunnethRing, "__init__", spy)
    assert verify_motive_isomorphism(model).passed
    assert built  # the factors' own squares and X x Z
    assert not any(left is kunneth_product(x, z) for left in built)


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
    monkeypatch.setattr(build_projector_family(model), "blocks", None)
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
