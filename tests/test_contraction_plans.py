"""The contraction plans kept on each Kunneth product, and the kernels that
read them, against the kernels as they were.

``act`` and ``_action_map`` read the product's left plan; ``compose`` reads
f's right plan, g's key split and the row map of A x C; a correspondence
checks its homogeneity against the ring's kept key set;
``ChowRing.multiply`` hands back the other factor of a unit product without
reading a row; ``random_cycle`` draws straight from ``getrandbits``.  The
kernels as they were are kept here as references: results must agree entry
by entry, in key order and coefficient type.
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
    point,
    projective_space,
    zero_correspondence,
)
from chowkit.catalog import standard_rings
from chowkit.correspondences import _action_map
from chowkit.rings import Cycle
from chowkit.sampling import random_correspondence, random_cycle
from test_kernels import REBASED
from test_one_dict_sums import doubled_plane


def reference_compose(g, f):
    """compose as it was: g's terms split by middle codim on every call,
    one pair_degree per pair of terms of complementary middle codim."""
    mid = f.target
    ring = kunneth_product(f.source, g.target)
    gsplit = {}
    for k, c in g.cycle.coeffs.items():
        b2, c2 = g.ring._key_to_pair[k]
        gsplit.setdefault(b2.codim, []).append((b2.key, c2.key, c))
    coeffs = {}
    for kf, cf in f.cycle.coeffs.items():
        a, b = f.ring._key_to_pair[kf]
        for b2, c2, cg in gsplit.get(mid.dimension - b.codim, ()):
            d = mid.pair_degree(b.key, b2)
            if d:
                key = ring._pair_to_key[(a.key, c2)]
                coeffs[key] = coeffs.get(key, 0) + cf * cg * d
    offset = None if f.offset is None or g.offset is None else f.offset + g.offset
    return Correspondence(f.source, g.target, Cycle(ring, coeffs), offset)


def reference_act(f, x):
    """act as it was: each term split into cells, a's partners read from
    the source ring."""
    partners, split, xs = f.source.partners, f.ring._key_to_pair, x.coeffs
    coeffs = {}
    for key, c in f.cycle.coeffs.items():
        a, b = split[key]
        d = sum(xs[k] * e for k, e in partners(a.key) if k in xs)
        if d:
            coeffs[b.key] = coeffs.get(b.key, 0) + c * d
    return Cycle(f.target, coeffs)


def reference_action_map(f):
    """_action_map as it was, reading the source ring's partners."""
    partners, split = f.source.partners, f.ring._key_to_pair
    columns = {}
    for key, c in f.cycle.coeffs.items():
        a, b = split[key]
        b = b.key
        for k, d in partners(a.key):
            col = columns.setdefault(k, {})
            col[b] = col.get(b, 0) + c * d
    for k in [k for k, col in columns.items() if not all(col.values())]:
        if col := {b: v for b, v in columns[k].items() if v}:
            columns[k] = col
        else:
            del columns[k]
    return columns


def reference_random_cycle(rng, ring, bound=10, codim=None):
    """random_cycle as it was, through randrange."""
    draw, top = rng.randrange, bound + 1
    return Cycle(ring, {k: draw(-bound, top) for k in ring.basis_keys(codim)})


def reference_multiply(ring, a, b):
    """ChowRing.multiply as it was: every product read off the table."""
    coeffs = {}
    for k1, c1 in a.coeffs.items():
        row = ring._table[k1]
        for k2, c2 in b.coeffs.items():
            for key, value in row.get(k2, {}).items():
                coeffs[key] = coeffs.get(key, 0) + c1 * c2 * value
    return Cycle(ring, coeffs)


def _entries(cycle):
    return [(k, v, type(v)) for k, v in cycle.coeffs.items()]


def _typed(columns):
    return [(k, [(r, v, type(v)) for r, v in col.items()]) for k, col in columns.items()]


def _rings():
    p1 = projective_space(1)
    return {
        "point": point(),
        "P^1": p1,
        "P^2": projective_space(2),
        "Gr(2,4)": grassmannian(2, 4),
        "P^1 x P^1": kunneth_product(p1, p1),  # a permutation middle pairing
        "doubled": DOUBLED,  # a middle pairing of 2, so rational duals
    }


DOUBLED = doubled_plane()
NAMES = tuple(_rings())


def _variants(rng, source, target, offset):
    """A random correspondence, a sparse one likely to cancel, its rational
    multiple and the zero correspondence, all of one offset."""
    f = random_correspondence(rng, source, target, offset=offset, bound=4)
    sparse = random_correspondence(rng, source, target, offset=offset, bound=1)
    half = Correspondence(source, target, sparse.cycle * Fraction(1, 2), offset)
    return [f, sparse, half, zero_correspondence(source, target, offset)]


@pytest.mark.parametrize("source", NAMES)
@pytest.mark.parametrize("middle", NAMES)
def test_compose_matches_the_reference_on_every_triple(source, middle):
    rings = _rings()
    A, B = rings[source], rings[middle]
    rng = random.Random(f"{source} => {middle} plans")
    for C in rings.values():
        for _ in range(2):
            fs = _variants(rng, A, B, rng.randint(-A.dimension, B.dimension))
            gs = _variants(rng, B, C, rng.randint(-B.dimension, C.dimension))
            for f in fs:
                for g in gs:
                    got, want = compose(g, f), reference_compose(g, f)
                    assert got.offset == want.offset
                    assert _entries(got.cycle) == _entries(want.cycle)


@pytest.mark.parametrize("source", NAMES)
@pytest.mark.parametrize("target", NAMES)
def test_act_and_action_map_match_the_references(source, target):
    rings = _rings()
    A, B = rings[source], rings[target]
    rng = random.Random(f"{source} -> {target} plans")
    xs = [random_cycle(rng, A, bound=3), random_cycle(rng, A, bound=1) * Fraction(1, 3), A.zero()]
    xs += [A.basis_cycle(c) for c in A.cells]
    for offset in range(-A.dimension, B.dimension + 1):
        for f in _variants(rng, A, B, offset):
            assert _typed(_action_map(f)) == _typed(reference_action_map(f))
            for x in xs:
                assert _entries(act(f, x)) == _entries(reference_act(f, x))


def test_cancelling_terms_leave_no_zero():
    """Terms that cancel exactly, in compose, act and _action_map."""
    p1, p2, g24 = projective_space(1), projective_space(2), grassmannian(2, 4)
    s2, s11 = (2, 1), (2, 2)  # self-dual middle cells of Gr(2,4)
    one = (0, 1)
    fr, gr = kunneth_product(p1, g24), kunneth_product(g24, p2)
    # 1 x s2 - 1 x s11 followed by s2 x 1 + s11 x 1: 1 x 1 - 1 x 1
    f = Correspondence(p1, g24, Cycle(fr, {fr._pair_to_key[(one, s2)]: 1, fr._pair_to_key[(one, s11)]: -1}))
    g = Correspondence(g24, p2, Cycle(gr, {gr._pair_to_key[(s2, one)]: 1, gr._pair_to_key[(s11, one)]: 1}))
    assert compose(g, f).cycle.is_zero() and reference_compose(g, f).cycle.is_zero()
    assert compose(g, f).offset == f.offset + g.offset
    # s2 x 1 - s11 x 1 sends s2 + s11 to 1 - 1
    h = Correspondence(g24, p2, Cycle(gr, {gr._pair_to_key[(s2, one)]: 1, gr._pair_to_key[(s11, one)]: -1}))
    x = g24.cycle({s2: 1, s11: 1})
    assert act(h, x).is_zero() and reference_act(h, x).is_zero()
    # on the rebased Gr(2,4) a middle cell has two partners, so a column
    # of the action can cancel to nothing
    ring = kunneth_product(REBASED, p1)
    t21, t22 = (ring._pair_to_key[(a, one)] for a in ((2, 1), (2, 2)))
    f = Correspondence(REBASED, p1, Cycle(ring, {t21: 1, t22: -1}))
    assert _action_map(f) == reference_action_map(f) == {(2, 2): {one: -1}}
    rng = random.Random("cancel plans")
    for _ in range(40):
        f = Correspondence(REBASED, p1, random_cycle(rng, ring, bound=1, codim=4))
        for g in (f, f * Fraction(1, 2)):
            assert _typed(_action_map(g)) == _typed(reference_action_map(g))


def test_random_cycle_matches_the_randrange_reference():
    rings = list(_rings().values()) + [kunneth_product(projective_space(2), DOUBLED)]
    for seed in range(5):
        rng, ref = random.Random(seed), random.Random(seed)
        for ring in rings:
            for codim in (None, *range(ring.dimension + 2)):
                for bound in (0, 1, 3, 10, 31, 32):
                    got = random_cycle(rng, ring, bound, codim)
                    assert _entries(got) == _entries(reference_random_cycle(ref, ring, bound, codim))
                    assert rng.getstate() == ref.getstate()


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
            want = reference_multiply(ring, unit, x)
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
    assert act(f, x) == reference_act(f, x) == p.cycle({(20, 1): 2, (0, 1): 10})
    assert _action_map(g) == reference_action_map(g)
    assert set(ring._left_partners) == set(f_keys) | set(g_keys)
    assert compose(g, f) == reference_compose(g, f)
    assert set(ring._right_partners) == set(f_keys)
    assert set(ring._pair_keys) == set(g_keys)
    assert set(ring._key_rows) == {a for a, _ in f_pairs}
    assert len(ring._table) == 0
