"""The flat correspondence kernels against the routes they replaced.

``action_matrix`` reads its matrix straight off the correspondence cycle and
``compose_oracle`` works on cell keys; both are checked here against the
straightforward cycle-by-cycle routes, kept in this file as references.
"""

import random
from fractions import Fraction

import pytest

from chowkit import (
    Correspondence,
    act,
    action_matrix,
    compose,
    compose_oracle,
    grassmannian,
    kunneth_product,
    projective_space,
)
from chowkit.correspondences import _demote, _external_into
from chowkit.sampling import random_correspondence


def _rings():
    p1, p2 = projective_space(1), projective_space(2)
    return {
        "P^1": p1,
        "P^2": p2,
        "Gr(2,4)": grassmannian(2, 4),
        "P^1 x P^1": kunneth_product(p1, p1),
        "P^1 x P^2": kunneth_product(p1, p2),
    }


def _rational(f):
    """f times a non-integral Fraction: a rational-mode correspondence."""
    return Correspondence(f.source, f.target, f.cycle * Fraction(2, 3), f.offset)


def column_route(f, p):
    """action_matrix the long way: act on each basis cell, read each entry."""
    src_cells = f.source.cells_of_codim(p)
    tgt_cells = f.target.cells_of_codim(p + f.offset)
    images = [act(f, f.source.basis_cycle(c)) for c in src_cells]
    return tuple(
        tuple(images[j].coefficient(tgt_cells[i]) for j in range(len(src_cells)))
        for i in range(len(tgt_cells))
    )


def reference_oracle(g, f):
    """The triple-product oracle written with cell objects and cycle sums."""
    A, B, C = f.source, f.target, g.target
    AB = kunneth_product(A, B)
    AC = kunneth_product(A, C)
    triple = kunneth_product(AB, C)

    lift_f = _external_into(triple, f.cycle, C.unit())
    unit_a = A.cells_of_codim(0)[0]
    data = {}
    for key, coeff in g.cycle.coeffs.items():
        b_key, c_key = g.cycle.ring.split_cell(key)
        ab = AB.pair_cell(unit_a, b_key)
        data[triple.pair_cell(ab, c_key).key] = coeff
    lift_g = triple.cycle(data, mode=g.cycle.mode)

    prod = lift_f * lift_g
    out = AC.zero(mode=prod.mode)
    for key, coeff in prod.coeffs.items():
        ab_key, c_key = triple.split_cell(key)
        a_key, b_key = AB.split_cell(ab_key)
        weight = B.degree(B.basis_cycle(b_key, mode=prod.mode))
        if weight:
            out = out + AC.cycle({AC.pair_cell(a_key, c_key).key: coeff * weight}, mode=prod.mode)
    return _demote(out)


def _types(matrix):
    return [type(x) for row in matrix for x in row]


MATRIX_RINGS = ("P^1", "P^2", "Gr(2,4)", "P^1 x P^2")


@pytest.mark.parametrize("source", MATRIX_RINGS)
@pytest.mark.parametrize("target", MATRIX_RINGS)
def test_action_matrix_matches_column_route(source, target):
    rings = _rings()
    A, B = rings[source], rings[target]
    rng = random.Random(f"{source}->{target}")
    for offset in range(-A.dimension, B.dimension + 1):
        for _ in range(3):
            f = random_correspondence(rng, A, B, offset=offset, bound=5)
            for g in (f, _rational(f)):
                for p in range(-1, A.dimension + 2):
                    got, want = action_matrix(g, p), column_route(g, p)
                    assert got == want, (offset, p)
                    # Fraction entries, zeros included, in rational mode
                    assert _types(got) == _types(want), (offset, p)


ORACLE_RINGS = ("P^1", "P^2", "Gr(2,4)", "P^1 x P^1")


@pytest.mark.parametrize("source", ORACLE_RINGS)
@pytest.mark.parametrize("middle", ORACLE_RINGS)
def test_compose_oracle_matches_reference(source, middle):
    rings = _rings()
    A, B = rings[source], rings[middle]
    rng = random.Random(f"{source}=>{middle}")
    for _ in range(4):
        f = random_correspondence(rng, A, B, offset=rng.randint(-A.dimension, B.dimension))
        g = random_correspondence(rng, B, A, offset=rng.randint(-B.dimension, A.dimension))
        for ff, gg in ((f, g), (_rational(f), g), (f, _rational(g))):
            got, want = compose_oracle(gg, ff), reference_oracle(gg, ff)
            assert got == want
            assert got.mode == want.mode
            assert got == compose(gg, ff).cycle


def test_oracle_does_not_use_the_middle_pairing(monkeypatch):
    rings = _rings()
    rng = random.Random(5)
    for A, B, C in (
        (rings["P^1"], rings["Gr(2,4)"], rings["P^2"]),
        (rings["P^2"], rings["P^2"], rings["P^2"]),
    ):
        f = random_correspondence(rng, A, B, offset=0)
        g = random_correspondence(rng, B, C, offset=0)
        before = compose_oracle(g, f)
        assert before == compose(g, f).cycle and not before.is_zero()

        def refuse(*args):
            raise AssertionError("pair_degree called")

        with monkeypatch.context() as m:
            m.setattr(B, "pair_degree", refuse)
            assert compose_oracle(g, f) == before
            with pytest.raises(AssertionError, match="pair_degree called"):
                compose(g, f)
