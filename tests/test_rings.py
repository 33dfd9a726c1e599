"""Ring layer: cells, exact cycles, products, pairing, Kunneth."""

import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chowkit import (
    BasisCell,
    ChowRing,
    Cycle,
    KunnethRing,
    act,
    action_matrix,
    cellular_ck,
    compose,
    diagonal,
    dump_ring,
    external_product,
    fiber_projectors,
    kunneth_product,
    parse_ring,
    transpose,
    verify_pairing,
    verify_projector_system,
)
from chowkit.catalog import grassmannian, point, projective_space
from chowkit import rings
from chowkit.linalg import rank as linalg_rank
from chowkit.sampling import random_correspondence, random_cycle

import oracles
from oracles import entries
from checks import spy
from corpus import REBASED, degenerate_surface, standard_rings


def simple_p2():
    cells = [BasisCell(0, 1, "1"), BasisCell(1, 1, "h"), BasisCell(2, 1, "h^2")]
    products = {((1, 1), (1, 1)): {(2, 1): 1}}
    return ChowRing(2, cells, products, name="P2-by-hand")


def test_ring_construction_basics():
    r = simple_p2()
    assert r.dimension == 2
    assert r.ranks == (1, 1, 1)
    assert r.unit_cell.label == "1"
    assert r.point_cell.label == "h^2"
    assert r.cells_of_codim(1)[0].key == (1, 1)


def test_cell_lookup_by_label_key_and_cell():
    r = simple_p2()
    c = r.cell("h")
    assert r.cell((1, 1)) is c
    assert r.cell(c) is c
    with pytest.raises(ValueError):
        r.cell("nope")
    with pytest.raises(ValueError):
        r.cell((3, 1))


def test_cell_refuses_a_foreign_cell_and_accepts_an_equal_copy():
    r = simple_p2()
    with pytest.raises(ValueError, match=(
        r"^cell BasisCell\(codim=1, index=1, label='H'\) does not belong to P2-by-hand$"
    )):
        r.cell(BasisCell(1, 1, "H"))
    with pytest.raises(ValueError, match="does not belong to P2-by-hand"):
        r.cell(BasisCell(3, 1, "h^3"))
    copy = BasisCell(1, 1, "h")
    assert r.cell(copy) is copy


def test_cell_returns_the_rings_own_cell_without_comparing(monkeypatch):
    r = simple_p2()
    compared = spy(monkeypatch, BasisCell, "__eq__")
    for c in r.cells:
        assert r.cell(c) is c
    assert compared == []


def test_unit_products_implied():
    r = simple_p2()
    h = r.basis_cycle("h")
    assert r.multiply(r.unit(), h) == h
    assert r.multiply(h, r.unit()) == h


def test_products_symmetrized_from_one_order():
    r = simple_p2()
    h = r.basis_cycle("h")
    pt = r.basis_cycle("h^2")
    assert h * h == pt
    assert r.degree(h * h) == 1
    assert (h * pt).is_zero()  # codim 3 truncates


def test_construction_rejects_bad_tables():
    cells = [BasisCell(0, 1, "1"), BasisCell(1, 1, "h"), BasisCell(2, 1, "pt")]
    with pytest.raises(ValueError, match="grading violation"):
        ChowRing(2, cells, {((1, 1), (1, 1)): {(1, 1): 1}})
    with pytest.raises(ValueError, match="unknown cell"):
        ChowRing(2, cells, {((1, 1), (9, 9)): {}})
    with pytest.raises(ValueError, match="unit law"):
        ChowRing(2, cells, {((0, 1), (1, 1)): {(1, 1): 2}})


def test_conflicting_symmetrized_orders_rejected():
    cells = [
        BasisCell(0, 1, "1"),
        BasisCell(1, 1, "a"),
        BasisCell(1, 2, "b"),
        BasisCell(2, 1, "pt"),
    ]
    with pytest.raises(ValueError, match="conflicting"):
        ChowRing(
            2,
            cells,
            {
                ((1, 1), (1, 2)): {(2, 1): 1},
                ((1, 2), (1, 1)): {(2, 1): 2},
            },
        )


def test_missing_unit_or_point_cell_rejected():
    with pytest.raises(ValueError, match="codim 0"):
        ChowRing(1, [BasisCell(1, 1, "h")], {})
    with pytest.raises(ValueError, match="contiguous"):
        ChowRing(
            1,
            [BasisCell(0, 1, "1"), BasisCell(1, 2, "h")],
            {},
        )


def test_associativity_validated():
    cells = [
        BasisCell(0, 1, "1"),
        BasisCell(1, 1, "a"),
        BasisCell(1, 2, "b"),
        BasisCell(2, 1, "u"),
        BasisCell(3, 1, "pt"),
    ]
    # (a*a)*b = u*b = pt but a*(a*b) = a*0 = 0
    bad = {
        ((1, 1), (1, 1)): {(2, 1): 1},
        ((1, 1), (1, 2)): {},
        ((1, 2), (1, 2)): {},
        ((1, 1), (2, 1)): {(3, 1): 1},
        ((1, 2), (2, 1)): {(3, 1): 1},
    }
    with pytest.raises(ValueError, match="associativity"):
        ChowRing(3, cells, bad)
    assert ChowRing(3, cells, bad, validate=False).rank(1) == 2


def test_cycle_arithmetic_exact():
    r = simple_p2()
    h = r.basis_cycle("h")
    x = 3 * h - h
    assert x == 2 * h
    assert x.coefficient("h") == 2
    assert (x - x).is_zero()
    assert (-x).coefficient((1, 1)) == -2


def test_cycle_rejects_float_and_bool_coefficients():
    r = simple_p2()
    with pytest.raises(TypeError):
        Cycle(r, {(1, 1): 0.5})
    with pytest.raises(TypeError):
        Cycle(r, {(1, 1): True})


@pytest.mark.parametrize("coeffs, error, message", [
    ({(1, 1): True}, TypeError, "exact integer or Fraction coefficient expected, got True"),
    ({(1, 1): False}, TypeError, "exact integer or Fraction coefficient expected, got False"),
    ({(1, 1): 0.5}, TypeError, "exact integer or Fraction coefficient expected, got 0.5"),
    ({(9, 9): 0.0}, TypeError, "exact integer or Fraction coefficient expected, got 0.0"),
    ({(1, 1): 1, (9, 9): 2}, ValueError, "unknown cell key (9, 9) for P2-by-hand"),
    ({(9, 9): Fraction(2)}, ValueError, "unknown cell key (9, 9) for P2-by-hand"),
])
def test_cycle_constructor_refusals(coeffs, error, message):
    with pytest.raises(error) as caught:
        Cycle(simple_p2(), coeffs)
    assert str(caught.value) == message


def test_cycle_constructor_modes():
    """One exactness rule: an integral value is stored as an int, any other
    as a Fraction, zeros are dropped and the keys keep their order."""
    r = simple_p2()
    assert Cycle(r, {(1, 1): Fraction(1, 3)}).coeffs == {(1, 1): Fraction(1, 3)}
    # a zero at an unknown key is dropped, whatever its exact type
    zeros = {(9, 9): 0, (8, 8): Fraction(0)}
    assert Cycle(r, {**zeros, (1, 1): 2}).coeffs == {(1, 1): 2}
    given = {(2, 1): Fraction(4, 2), (0, 1): 3, (1, 1): 0}
    x = Cycle(r, given)
    assert list(x.coeffs.items()) == [((2, 1), 2), ((0, 1), 3)]
    assert {type(v) for v in x.coeffs.values()} == {int}
    y = Cycle(r, {**given, (1, 1): Fraction(-1, 2)})
    assert list(y.coeffs.items()) == [((2, 1), 2), ((0, 1), 3), ((1, 1), Fraction(-1, 2))]
    assert [type(v) for v in y.coeffs.values()] == [int, int, Fraction]


def test_rational_mode_and_demotion():
    r = simple_p2()
    x = r.basis_cycle("h") * Fraction(1, 2)
    assert x.coefficient("h") == Fraction(1, 2)
    assert type(x.coefficient("h")) is Fraction
    # a sum that turns integral is stored as an int
    y = x + x
    assert y == r.basis_cycle("h")
    assert type(y.coefficient("h")) is int
    assert type((r.basis_cycle("h") * Fraction(4, 2)).coefficient("h")) is int


def test_cross_mode_equality_and_mixing():
    r = simple_p2()
    h = r.basis_cycle("h")
    assert Cycle(r, {(1, 1): Fraction(1)}) == h
    assert hash(Cycle(r, {(1, 1): Fraction(1)})) == hash(h)
    mixed = h * Fraction(1, 2) + h
    assert mixed.coeffs == {(1, 1): Fraction(3, 2)}


def test_homogeneity_helpers():
    r = simple_p2()
    x = r.unit() + r.basis_cycle("h")
    assert x.codims() == [0, 1]
    assert x.component(1) == r.basis_cycle("h")


def test_degree_reads_point_coefficient():
    r = simple_p2()
    assert r.degree(r.basis_cycle("h^2") * 7) == 7
    assert r.degree(r.basis_cycle("h")) == 0


def test_pairing_matrices_and_report():
    r = simple_p2()
    rep = verify_pairing(r)
    assert rep.passed
    assert rep.table["matrices"][1] == ((1,),)
    text = "\n".join(rep.lines())
    assert "pass" in text
    doc = rep.to_dict()
    assert doc["passed"] is True and doc["check"] == "pairing"


def test_pairing_violation_reported_with_location():
    cells = [BasisCell(0, 1, "1"), BasisCell(1, 1, "h"), BasisCell(2, 1, "pt")]
    r = ChowRing(2, cells, {((1, 1), (1, 1)): {(2, 1): 2}}, name="doubled")
    rep = verify_pairing(r)
    assert not rep.passed
    assert (1, 1, 1, 2) in rep.table["violations"]


def test_dual_cell_same_index_convention():
    g = grassmannian(2, 4)
    assert g.dual_cell("s[1]").label == "s[2,1]"
    assert g.dual_cell("s[2]").label == "s[2]"  # middle cells self-dual here
    assert g.dual_cell("s[1,1]").label == "s[1,1]"
    p2 = projective_space(2)
    assert p2.dual_cell("1").label == "h^2"


def test_kunneth_product_structure():
    p1 = projective_space(1)
    ring = kunneth_product(p1, p1)
    assert ring.dimension == 2
    assert ring.ranks == (1, 2, 1)
    hx, hy, pt = (ring.basis_cycle(label) for label in ("(h,1)", "(1,h)", "(h,h)"))
    assert hx * hy == pt
    assert (hx * hx).is_zero()
    assert ring.degree(pt) == 1


def test_kunneth_pairing_delta_except_middle():
    # product bases can be ordered delta-normalized everywhere except the
    # middle degree of an even-dimensional product, where the Gram matrix
    # contains a hyperbolic block no basis change removes; the violations
    # must be confined there and form a symmetric permutation matrix
    p1, p2 = projective_space(1), projective_space(2)
    odd = kunneth_product(p1, p2)
    assert verify_pairing(odd).passed
    even = kunneth_product(p1, p1)
    rep = verify_pairing(even)
    assert not rep.passed
    assert {v[0] for v in rep.table["violations"]} == {1}
    assert rep.table["matrices"][1] == ((0, 1), (1, 0))
    bigger = kunneth_product(p2, grassmannian(2, 4))
    rep = verify_pairing(bigger)
    assert {v[0] for v in rep.table["violations"]} == {3}
    mid = rep.table["matrices"][3]
    n = len(mid)
    assert all(sum(mid[i]) == 1 for i in range(n))
    assert all(mid[i][j] == mid[j][i] for i in range(n) for j in range(n))


def test_kunneth_is_memoized_and_splits():
    p1, p2 = projective_space(1), projective_space(2)
    r1 = kunneth_product(p1, p2)
    assert kunneth_product(p1, p2) is r1
    a, b = r1._key_to_pair[r1.cell("(h,h^2)").key]
    assert a is p1.cell("h") and b is p2.cell("h^2")


def test_external_product_bilinear():
    p1, p2 = projective_space(1), projective_space(2)
    ring = kunneth_product(p1, p2)
    x = 2 * p1.basis_cycle("h")
    y = 3 * p2.basis_cycle("h")
    z = external_product(x, y)
    assert z.ring is ring
    assert z.coefficient("(h,h)") == 6


def test_point_ring_is_degenerate_ring():
    pt = point()
    assert pt.dimension == 0
    assert pt.unit_cell is pt.point_cell
    assert pt.degree(pt.unit()) == 1
    assert verify_pairing(pt).passed


def test_ring_mismatch_raises():
    r1, r2 = projective_space(1), projective_space(2)
    with pytest.raises(ValueError, match="mismatch"):
        r1.basis_cycle("h") + r2.basis_cycle("h")
    with pytest.raises(ValueError):
        r1.multiply(r1.basis_cycle("h"), r2.basis_cycle("h"))


# -- the flat table kernels against the cycle-by-cycle routes they replace ----


def brute_force_failure(ring):
    """Every graded basis triple through Cycles; the first non-associative
    triple, or None."""
    for a in ring.cells:
        xa = ring.basis_cycle(a)
        for b in ring.cells:
            if a.codim + b.codim > ring.dimension:
                continue
            ab = ring.multiply(xa, ring.basis_cycle(b))
            for c in ring.cells:
                if a.codim + b.codim + c.codim > ring.dimension:
                    continue
                xc = ring.basis_cycle(c)
                if ring.multiply(ab, xc) != ring.multiply(xa, ring.multiply(ring.basis_cycle(b), xc)):
                    return a, b, c
    return None


def flat_ring():
    # every positive-codim product is zero, so every cell is a generator
    cells = [BasisCell(0, 1, "1"), BasisCell(1, 1, "a"), BasisCell(1, 2, "b"),
             BasisCell(2, 1, "u"), BasisCell(2, 2, "v"), BasisCell(3, 1, "pt")]
    return ChowRing(3, cells, {}, name="flat")


def off_unit_constants(ring):
    """Every (k1, k2, k) with k1 <= k2 off the unit and k in codim k1 + k2,
    with the constant, zero ones included."""
    unit = ring.unit_cell.key
    keys = [c.key for c in ring.cells if c.key != unit]
    for k1 in keys:
        for k2 in keys:
            if k1 <= k2 and k1[0] + k2[0] <= ring.dimension:
                entry = ring._table[k1].get(k2, {})
                for cell in ring.cells_of_codim(k1[0] + k2[0]):
                    yield k1, k2, cell.key, entry.get(cell.key, 0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: projective_space(4),
        lambda: grassmannian(2, 4),
        lambda: grassmannian(2, 5),
        lambda: parse_ring(dump_ring(kunneth_product(grassmannian(2, 4), projective_space(3)))),
        degenerate_surface,  # e * e = f stays associative
        lambda: projective_space(6),
        lambda: grassmannian(2, 6),
        flat_ring,  # one +1 makes one product nonzero, and a triple needs two
    ],
    ids=["p4", "gr24", "gr25", "gr24xp3-file", "degenerate", "p6", "gr26", "flat"],
)
def test_pruned_associativity_agrees_with_brute_force(make):
    ring = make()
    assert brute_force_failure(ring) is None
    unit = ring.unit_cell.key
    base = {
        (k1, k2): dict(entry)
        for k1, row in ring._table.items()
        for k2, entry in row.items()
        if unit not in (k1, k2) and k1 <= k2
    }
    verdicts = set()
    for k1, k2, key, value in off_unit_constants(ring):
        products = {pair: dict(entry) for pair, entry in base.items()}
        products.setdefault((k1, k2), {})[key] = value + 1
        perturbed = ChowRing(ring.dimension, ring.cells, products, validate=False)
        reference = brute_force_failure(perturbed)
        try:
            ChowRing(ring.dimension, ring.cells, products)
        except ValueError as e:
            verdicts.add("rejected")
            assert reference is not None, (k1, k2, key)
            labels = str(e).split("associativity fails at (")[1][:-1].split(", ")
            x, y, z = (perturbed.basis_cycle(label) for label in labels)
            assert (x * y) * z != x * (y * z)
        else:
            verdicts.add("accepted")
            assert reference is None, (k1, k2, key, reference)
    assert verdicts == ({"accepted"} if ring.name in ("degenerate", "flat") else {"rejected"})


@pytest.mark.parametrize(
    "make, labels",
    [
        (lambda: projective_space(4), ["h"]),
        (lambda: grassmannian(2, 4), ["s[1]", "s[1,1]"]),
        (lambda: grassmannian(2, 6), ["s[1]", "s[1,1]"]),
        (
            lambda: parse_ring(dump_ring(kunneth_product(grassmannian(2, 4), projective_space(3)))),
            ["(1,h)", "(s[1],1)", "(s[1,1],1)"],
        ),
        (flat_ring, ["a", "b", "u", "v", "pt"]),
        (degenerate_surface, ["e", "f"]),
    ],
    ids=["p4", "gr24", "gr26", "gr24xp3-file", "flat", "degenerate"],
)
def test_associativity_generators(make, labels):
    ring = make()
    gens = ring._generators()
    assert [ring._by_key[k].label for k in gens] == labels
    # the products of generators with cells, and the generators, span every CH^p
    for p in range(1, ring.dimension + 1):
        rows = [
            [ring._table[s].get(c.key, {}).get(k.key, 0) for k in ring.cells_of_codim(p)]
            for s in gens
            for c in ring.cells_of_codim(p - s[0])
        ]
        rows += [[int(k.key == s) for k in ring.cells_of_codim(p)] for s in gens if s[0] == p]
        assert linalg_rank(rows) == ring.rank(p)


def test_associativity_of_p80_costs_a_generator_not_every_cell(monkeypatch):
    calls = spy(monkeypatch, rings, "_times")
    ring = projective_space.__wrapped__(80)  # a fresh build, not the cached ring
    assert ring._generators() == [(1, 1)]
    # 3,003 triples (h, h^b, h^c) with 2 <= c and b + c <= 79, two products each;
    # the all-triples check (a < c, pruned by grading) made 80,600
    assert len(calls) <= 6100


def random_graded_ring(draw):
    """A graded, commutative, unital table of dimension <= 4, at most two
    cells per codim in between, constants in [-2, 2]."""
    n = draw(st.integers(1, 4))
    ranks = [1] + [draw(st.integers(1, 2)) for _ in range(1, n)] + [1]
    cells = [BasisCell(p, i, f"c{p}{i}") for p in range(n + 1) for i in range(1, ranks[p] + 1)]
    keys = [c.key for c in cells if c.codim]
    products = {}
    for k1 in keys:
        for k2 in keys:
            if k1 <= k2 and k1[0] + k2[0] <= n:
                products[(k1, k2)] = {
                    (k1[0] + k2[0], i): draw(st.integers(-2, 2))
                    for i in range(1, ranks[k1[0] + k2[0]] + 1)
                }
    return n, cells, products


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_certificate_agrees_with_brute_force_on_random_tables(data):
    n, cells, products = random_graded_ring(data.draw)
    reference = brute_force_failure(ChowRing(n, cells, products, validate=False))
    try:
        ring = ChowRing(n, cells, products)
    except ValueError as e:
        assert reference is not None
        ring = ChowRing(n, cells, products, validate=False)
        labels = str(e).split("associativity fails at (")[1][:-1].split(", ")
        x, y, z = (ring.basis_cycle(label) for label in labels)
        assert (x * y) * z != x * (y * z)
        assert ring.cell(labels[0]).key in ring._generators()
    else:
        assert reference is None, reference


KUNNETH_PAIRS = pytest.mark.parametrize(
    "pair",
    [
        lambda: (grassmannian(2, 4), projective_space(3)),
        lambda: (projective_space(3), grassmannian(2, 4)),
        lambda: (grassmannian(2, 5), projective_space(2)),
        lambda: (projective_space(2), projective_space(2)),
        lambda: (degenerate_surface(), projective_space(1)),
    ],
    ids=["gr24xp3", "p3xgr24", "gr25xp2", "p2xp2", "degeneratexp1"],
)


def full_rows(ring):
    """Every row of a product table, read by key so that unbuilt rows are
    built (iterating ``_table`` sees only the rows built so far)."""
    return {k: ring._table[k] for k in ring._by_key}


@KUNNETH_PAIRS
def test_kunneth_table_matches_per_pair_products(pair):
    left, right = pair()
    # a fresh product with no row built yet: a table reader that used
    # dict.get would dump no products here
    untouched = dump_ring(KunnethRing(left, right))
    ring = kunneth_product(left, right)
    flat = {
        (k1, k2): entry for k1, row in full_rows(ring).items() for k2, entry in row.items() if entry
    }
    reference = {(k1, k2): entry for k1 in ring._by_key for k2, entry in oracles.kunneth_row(ring, k1).items()}
    assert flat == reference
    assert all(v for entry in flat.values() for v in entry.values())
    rebuilt = ChowRing(ring.dimension, ring.cells, reference, name=ring.name)
    assert dump_ring(ring) == dump_ring(rebuilt)
    assert untouched == dump_ring(rebuilt)
    assert verify_pairing(ring).table["matrices"] == verify_pairing(rebuilt).table["matrices"]


@KUNNETH_PAIRS
def test_kunneth_pairing_reads_factor_degrees(pair):
    left, right = pair()
    ring = KunnethRing(left, right)
    matrices = [ring.pairing_matrix(p) for p in range(ring.dimension + 1)]
    degrees = {(k1, k2): ring.pair_degree(k1, k2) for k1 in ring._by_key for k2 in ring._by_key}
    assert not ring._table  # the pairing comes from the factors
    point = ring.point_cell.key
    rows = full_rows(ring)
    for (k1, k2), value in degrees.items():
        assert value == rows[k1].get(k2, {}).get(point, 0), (k1, k2)
    for p, matrix in enumerate(matrices):
        assert matrix == tuple(
            tuple(rows[r.key].get(c.key, {}).get(point, 0)
                  for c in ring.cells_of_codim(ring.dimension - p))
            for r in ring.cells_of_codim(p)
        )


def test_kunneth_rows_stay_unbuilt_where_nothing_multiplies():
    # a private copy of P^12, so no other test can have built a row of its square
    p = parse_ring(dump_ring(projective_space(12)))
    ring = kunneth_product(p, p)
    ck = cellular_ck(p)
    assert verify_projector_system(fiber_projectors(p)).passed
    verify_pairing(ring)
    d = diagonal(p)
    for f in ck.projectors.values():
        assert compose(d, f) == f == compose(f, d)
        assert transpose(transpose(f)) == f
        for q in range(p.dimension + 1):
            x = p.basis_cycle((q, 1))
            [[m]] = action_matrix(f, q)
            assert act(f, x) == m * x
    assert len(ring._table) == 0


def test_pairing_matrix_reads_table_degrees():
    ring = kunneth_product(grassmannian(2, 4), projective_space(2))
    for p in range(ring.dimension + 1):
        want = tuple(
            tuple(ring.degree(ring.basis_cycle(r) * ring.basis_cycle(c))
                  for c in ring.cells_of_codim(ring.dimension - p))
            for r in ring.cells_of_codim(p)
        )
        assert ring.pairing_matrix(p) == want
        assert ring.pairing_matrix(p) is ring.pairing_matrix(p)


def test_kunneth_product_dies_with_its_factors():
    left, right = simple_p2(), simple_p2()
    ring = kunneth_product(left, right)
    assert kunneth_product(left, right) is ring
    # external_product needs no registration step: it lands in the memoized product
    assert external_product(right.unit(), left.unit()).ring is kunneth_product(right, left)
    ref = weakref.ref(ring)
    del left, right, ring
    gc.collect()
    assert ref() is None


def full_scan_cells(left, right):
    """The Kunneth cells as the full factor-pair scan lists them: every
    (a, b) pair is tested once per product codim."""
    dimension = left.dimension + right.dimension
    out = []
    for q in range(dimension + 1):
        pairs = [(a, b) for a in left.cells for b in right.cells if a.codim + b.codim == q]
        reverse = 2 * q > dimension
        pairs.sort(key=lambda ab: (-ab[0].codim if reverse else ab[0].codim,
                                   ab[0].index, ab[1].index))
        out.extend(
            ((q, i), f"({a.label},{b.label})", (a.key, b.key))
            for i, (a, b) in enumerate(pairs, start=1)
        )
    return out


@pytest.mark.parametrize(
    "pair",
    [
        lambda: (point(), point()),
        lambda: (point(), projective_space(3)),
        lambda: (projective_space(3), point()),
        lambda: (grassmannian(2, 6), projective_space(2)),
        lambda: (projective_space(2), grassmannian(2, 6)),
        lambda: (projective_space(5), grassmannian(2, 4)),
        lambda: (degenerate_surface(), projective_space(1)),
    ],
    ids=["ptxpt", "ptxp3", "p3xpt", "gr26xp2", "p2xgr26", "p5xgr24", "degeneratexp1"],
)
def test_kunneth_cells_match_the_full_pair_scan(pair):
    left, right = pair()
    ring = KunnethRing(left, right)
    want = full_scan_cells(left, right)
    assert [(c.key, c.label) for c in ring.cells] == [(key, label) for key, label, _ in want]
    assert all(c.key == (c.codim, c.index) for c in ring.cells)
    assert ring._pair_to_key == {pair_keys: key for key, _, pair_keys in want}
    assert {k: (a.key, b.key) for k, (a, b) in ring._key_to_pair.items()} == {
        key: pair_keys for key, _, pair_keys in want
    }


# -- partners, unit products and random cycles --------------------------------------


def test_partners_are_the_nonzero_pairing_entries():
    p1, p2, g24 = projective_space(1), projective_space(2), grassmannian(2, 4)
    rings = standard_rings() + [
        kunneth_product(p1, p1),
        kunneth_product(p1, p2),
        kunneth_product(g24, p2),
        REBASED,
        kunneth_product(REBASED, p1),
    ]
    for ring in rings:
        n = ring.dimension
        for p in range(n + 1):
            cols = ring.cells_of_codim(n - p)
            for cell, row in zip(ring.cells_of_codim(p), ring.pairing_matrix(p)):
                want = tuple((c.key, d) for c, d in zip(cols, row) if d)
                assert ring.partners(cell.key) == want, (ring.name, cell.label)
    assert REBASED.pairing_matrix(2) == ((1, 1), (1, 2))
    assert REBASED.partners((2, 2)) == (((2, 1), 1), ((2, 2), 2))


def test_kunneth_partners_build_no_row():
    p = parse_ring(dump_ring(projective_space(3)))  # private, so no row is built elsewhere
    ring = kunneth_product(p, p)
    for cell in ring.cells:
        [(key, d)] = ring.partners(cell.key)  # one dual, of the same index off the middle
        assert key[0] == 6 - cell.codim and d == 1
    assert len(ring._table) == 0


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
            assert entries(left) == entries(right) == entries(want) == entries(x)
            assert left.coeffs is not x.coeffs and right.coeffs is not x.coeffs
        for scale in (2, Fraction(1, 2)):
            x = xs[0]
            if ring in products:
                ring._table.clear()
            assert ring.multiply(unit * scale, x) == x * scale == ring.multiply(x, unit * scale)
            if ring in products:
                assert ring.unit_cell.key in ring._table  # read the unit's row


@pytest.mark.parametrize("bound", [-1, -16, 1.0, Fraction(1), True, "3", None])
def test_random_cycle_refuses_a_bad_bound_before_drawing(bound):
    """randint raised on an empty range; a bare redraw loop over a width of
    zero or less would never end.  A bad bound is refused before any draw."""

    class Watched(random.Random):
        def getrandbits(self, k):
            raise AssertionError("drew before refusing the bound")

    error = ValueError if type(bound) is int else TypeError
    for rng in (Watched(3), random.Random(3)):
        state = rng.getstate()
        with pytest.raises(error, match="bound must be"):
            random_cycle(rng, projective_space(2), bound)
        with pytest.raises(error, match="bound must be"):
            random_correspondence(rng, projective_space(1), projective_space(2), 0, bound)
        assert rng.getstate() == state
