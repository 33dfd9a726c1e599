"""The contraction plans kept on each Kunneth product, and the kernels that
read them, against their references in oracles.py.

``act`` and ``_action_map`` read the product's left plan; ``compose`` reads
f's right plan, g's key split and the row map of A x C; a correspondence
checks its homogeneity against the ring's kept key set;
``ChowRing.multiply`` hands back the other factor of a unit product without
reading a row.  Results must agree with the references entry by entry, in key order and
coefficient type.
"""

import random
from fractions import Fraction

import pytest

from chowkit import (
    Correspondence,
    act,
    compose,
    dump_ring,
    grassmannian,
    kunneth_product,
    parse_ring,
    projective_space,
)
from chowkit.correspondences import _action_map
from chowkit.rings import Cycle
from chowkit.sampling import random_cycle

import oracles
from checks import same_act, same_compose
from corpus import RINGS, standard_rings
from oracles import entries as _entries


# P^1 x P^1 has a permutation middle pairing, the doubled plane a middle
# pairing of 2, so rational duals
NAMES = ("point", "P^1", "P^2", "Gr(2,4)", "P^1 x P^1", "doubled")


@pytest.mark.parametrize("source", NAMES)
@pytest.mark.parametrize("middle", NAMES)
def test_compose_matches_the_reference_on_every_triple(source, middle):
    rng = random.Random(f"{source} => {middle} plans")
    for target in NAMES:
        for _ in range(2):
            same_compose(RINGS[source], RINGS[middle], RINGS[target], rng)


@pytest.mark.parametrize("source", NAMES)
@pytest.mark.parametrize("target", NAMES)
def test_act_and_action_map_match_the_references(source, target):
    same_act(RINGS[source], RINGS[target], random.Random(f"{source} -> {target} plans"))


def test_cancelling_terms_leave_no_zero():
    """Terms that cancel exactly, in compose and act (test_single_pass_kernels
    cancels whole columns of _action_map on the rebased Gr(2,4))."""
    p1, p2, g24 = projective_space(1), projective_space(2), grassmannian(2, 4)
    s2, s11 = (2, 1), (2, 2)  # self-dual middle cells of Gr(2,4)
    one = (0, 1)
    fr, gr = kunneth_product(p1, g24), kunneth_product(g24, p2)
    # 1 x s2 - 1 x s11 followed by s2 x 1 + s11 x 1: 1 x 1 - 1 x 1
    f = Correspondence(p1, g24, Cycle(fr, {fr._pair_to_key[(one, s2)]: 1, fr._pair_to_key[(one, s11)]: -1}))
    g = Correspondence(g24, p2, Cycle(gr, {gr._pair_to_key[(s2, one)]: 1, gr._pair_to_key[(s11, one)]: 1}))
    assert compose(g, f).cycle.is_zero() and oracles.compose(g, f).cycle.is_zero()
    assert compose(g, f).offset == f.offset + g.offset
    # s2 x 1 - s11 x 1 sends s2 + s11 to 1 - 1
    h = Correspondence(g24, p2, Cycle(gr, {gr._pair_to_key[(s2, one)]: 1, gr._pair_to_key[(s11, one)]: -1}))
    x = g24.cycle({s2: 1, s11: 1})
    assert act(h, x).is_zero() and oracles.act(h, x).is_zero()


def test_homogeneity_is_checked_against_the_kept_key_set():
    p1, p2 = projective_space(1), projective_space(2)
    ring = kunneth_product(p1, p2)
    mixed = ring.cycle({(1, 1): 1, (2, 1): 3})
    for offset in (-2, -1, 0, 1, 2, 3):
        with pytest.raises(ValueError, match=f"^cycle is not homogeneous of codim {1 + offset}$"):
            Correspondence(p1, p2, mixed, offset)
    for q in range(ring.dimension + 1):
        f = Correspondence(p1, p2, random_cycle(random.Random(q), ring, codim=q), q - 1)
        assert f.offset == q - 1
    # the zero cycle is homogeneous of every codim, in range or not
    for offset in (-5, 0, 9):
        assert Correspondence(p1, p2, ring.zero(), offset).offset == offset
    assert ring._key_sets[2] == frozenset(ring.basis_keys(2)) and ring._key_sets[-4] == frozenset()


def _private(ring):
    """A copy of ring with its own Kunneth products, so that no row or plan
    of them is built yet."""
    return parse_ring(dump_ring(ring))


def test_a_unit_factor_reads_no_row():
    """unit * x and x * unit are x, as the table gives, on every standard
    ring and on products, and build no Kunneth row; a multiple of the unit
    still goes through the table."""
    p1, p2, g24 = (_private(r) for r in (projective_space(1), projective_space(2), grassmannian(2, 4)))
    products = [kunneth_product(p1, p1), kunneth_product(p1, p2), kunneth_product(p2, g24)]
    products.append(kunneth_product(products[1], p1))
    rng = random.Random("unit")
    for ring in [_private(r) for r in standard_rings()] + products:
        unit = ring.unit()
        xs = [random_cycle(rng, ring, bound=2), random_cycle(rng, ring, bound=2) * Fraction(2, 3)]
        xs += [ring.zero(), unit, unit * 2, ring.basis_cycle(ring.point_cell)]
        got = [(ring.multiply(unit, x), ring.multiply(x, unit)) for x in xs]
        if ring in products:
            assert len(ring._table) == 0, ring.name
        for x, (left, right) in zip(xs, got):
            want = oracles.multiply(ring, unit, x)
            assert _entries(left) == _entries(right) == _entries(want) == _entries(x)
            assert left.coeffs is not x.coeffs and right.coeffs is not x.coeffs
        for scale in (2, Fraction(1, 2)):
            x = xs[0]
            if ring in products:
                ring._table.clear()
            assert ring.multiply(unit * scale, x) == x * scale == ring.multiply(x, unit * scale)
            if ring in products:
                assert ring.unit_cell.key in ring._table  # read the unit's row


def test_a_sparse_correspondence_fills_only_the_plan_entries_it_reads():
    p = _private(projective_space(30))
    ring = kunneth_product(p, p)
    f_pairs = (((10, 1), (20, 1)), ((15, 1), (15, 1)), ((30, 1), (0, 1)))
    g_pairs = (((10, 1), (20, 1)), ((30, 1), (0, 1)), ((3, 1), (27, 1)))
    f_keys = [ring._pair_to_key[pair] for pair in f_pairs]
    g_keys = [ring._pair_to_key[pair] for pair in g_pairs]
    f = Correspondence(p, p, Cycle(ring, dict.fromkeys(f_keys, 2)), 0)
    g = Correspondence(p, p, Cycle(ring, dict.fromkeys(g_keys, -1)), 0)
    assert set(ring._key_sets) == {30}
    x = p.cycle({(20, 1): 1, (0, 1): 5})
    assert act(f, x) == oracles.act(f, x) == p.cycle({(20, 1): 2, (0, 1): 10})
    assert _action_map(g) == oracles.action_map(g)
    assert set(ring._left_partners) == set(f_keys) | set(g_keys)
    assert compose(g, f) == oracles.compose(g, f)
    assert set(ring._right_partners) == set(f_keys)
    assert set(ring._pair_keys) == set(g_keys)
    assert set(ring._key_rows) == {a for a, _ in f_pairs}
    assert len(ring._table) == 0
