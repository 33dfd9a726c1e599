"""The flat correspondence kernels against the routes they replaced.

``act``, ``action_matrix`` and ``action_columns`` read a correspondence's
action in one walk over its terms through the source ring's partner index,
and ``compose_oracle`` works on cell keys; all are checked here against
straightforward routes kept in this file as references: the cycle-by-cycle
routes, and ``act`` and ``action_matrix`` as they were before the partner
index, reading ``pair_degree`` cell by cell.
"""

import random
import re
from fractions import Fraction

import pytest

from chowkit import (
    BasisCell,
    ChowRing,
    Correspondence,
    act,
    action_matrix,
    compose,
    compose_oracle,
    compose_oracle_battery,
    dump_ring,
    external_product,
    fiber_projectors,
    grassmannian,
    kunneth_product,
    parse_ring,
    point,
    projective_space,
    zero_correspondence,
)
from chowkit import identities
from chowkit.catalog import standard_rings
from chowkit.correspondences import action_columns
from chowkit.linalg import mat_mul
from chowkit.rings import Cycle
from chowkit.sampling import random_correspondence, random_cycle


def rebased_gr24():
    """Gr(2,4) in the middle basis s[2], s[2] + s[1,1].  Its middle pairing
    is [[1, 1], [1, 2]], so a middle cell has two partners."""
    g = grassmannian(2, 4)
    middle = {(2, 1): {(2, 1): 1}, (2, 2): {(2, 1): 1, (2, 2): 1}}

    def old(key):
        return g.cycle(middle.get(key, {key: 1}))

    def new(cycle):
        # s[2] = t_1 and s[1,1] = t_2 - t_1
        coeffs = dict(cycle.coeffs)
        s2, s11 = coeffs.pop((2, 1), 0), coeffs.pop((2, 2), 0)
        coeffs.update({(2, 1): s2 - s11, (2, 2): s11})
        return {k: v for k, v in coeffs.items() if v}

    labels = {(2, 2): "s[2]+s[1,1]"}
    cells = [BasisCell(c.codim, c.index, labels.get(c.key, c.label)) for c in g.cells]
    keys = [c.key for c in g.cells]
    products = {(k1, k2): new(g.multiply(old(k1), old(k2))) for k1 in keys for k2 in keys if k1 <= k2}
    return ChowRing(4, cells, products, name="Gr(2,4)'")


REBASED = rebased_gr24()


def _rings():
    p1, p2 = projective_space(1), projective_space(2)
    return {
        "P^1": p1,
        "P^2": p2,
        "Gr(2,4)": grassmannian(2, 4),
        "P^1 x P^1": kunneth_product(p1, p1),
        "P^1 x P^2": kunneth_product(p1, p2),
        "Gr(2,4)'": REBASED,
    }


def _rational(f):
    """f times a non-integral Fraction: a correspondence with Fraction
    coefficients."""
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


def reference_act(f, x):
    """act before the partner index: pair_degree against every term of x."""
    src = f.source
    coeffs = {}
    for key, c in f.cycle.coeffs.items():
        a, b = f.ring._key_to_pair[key]
        d = sum(cx * src.pair_degree(kx, a.key) for kx, cx in x.coeffs.items())
        if d:
            coeffs[b.key] = coeffs.get(b.key, 0) + c * d
    return Cycle(f.target, coeffs)


def reference_action_matrix(f, p):
    """action_matrix before the partner index: one scan of f's terms per
    codim, one pair_degree per source cell."""
    src = f.source
    q = p + f.offset
    src_cells = src.cells_of_codim(p)
    rows = [[0] * len(src_cells) for _ in range(f.target.rank(q))]
    for key, c in f.cycle.coeffs.items():
        a, b = f.ring._key_to_pair[key]
        if b.codim != q:
            continue
        row = rows[b.index - 1]
        for j, cell in enumerate(src_cells):
            d = src.pair_degree(cell.key, a.key)
            if d:
                row[j] += c * d
    return tuple(tuple(row) for row in rows)


def reference_action_columns(f):
    """action_columns read off the dense reference matrices."""
    ring, columns = f.source, {}
    for p in range(ring.dimension + 1):
        cells = ring.cells_of_codim(p)
        matrix = reference_action_matrix(f, p)
        for j, cell in enumerate(cells):
            if col := {row.key: m[j] for row, m in zip(cells, matrix) if m[j]}:
                columns[cell.key] = col
    return columns


def reference_oracle(g, f):
    """The triple-product oracle written with cell objects and cycle sums."""
    A, B, C = f.source, f.target, g.target
    AB = kunneth_product(A, B)
    AC = kunneth_product(A, C)
    triple = kunneth_product(AB, C)

    lift_f = external_product(f.cycle, C.unit())
    unit_a = A.cells_of_codim(0)[0]
    data = {}
    for key, coeff in g.cycle.coeffs.items():
        b_key, c_key = g.cycle.ring.split_cell(key)
        ab = AB.pair_cell(unit_a, b_key)
        data[triple.pair_cell(ab, c_key).key] = coeff
    lift_g = triple.cycle(data)

    prod = lift_f * lift_g
    out = AC.zero()
    for key, coeff in prod.coeffs.items():
        ab_key, c_key = triple.split_cell(key)
        a_key, b_key = AB.split_cell(ab_key)
        weight = B.degree(B.basis_cycle(b_key))
        if weight:
            out = out + AC.cycle({AC.pair_cell(a_key, c_key).key: coeff * weight})
    return out


def nested_oracle(g, f):
    """compose_oracle as it was before its key maps: every term split and
    re-keyed through the nested _key_to_pair and _pair_to_key lookups."""
    A, B, C = f.source, f.target, g.target
    AB = kunneth_product(A, B)
    AC = kunneth_product(A, C)
    triple = kunneth_product(AB, C)

    lift_f = external_product(f.cycle, C.unit())
    unit_a = A.unit_cell.key
    data = {}
    for key, coeff in g.cycle.coeffs.items():
        b, c = g.ring._key_to_pair[key]
        data[triple._pair_to_key[(AB._pair_to_key[(unit_a, b.key)], c.key)]] = coeff
    lift_g = Cycle(triple, data)

    prod = lift_f * lift_g
    point_b = B.point_cell.key
    coeffs = {}
    for key, coeff in prod.coeffs.items():
        ab, c = triple._key_to_pair[key]
        a, b = AB._key_to_pair[ab.key]
        if b.key == point_b:
            ac = AC._pair_to_key[(a.key, c.key)]
            coeffs[ac] = coeffs.get(ac, 0) + coeff
    return Cycle(AC, coeffs)


def _types(matrix):
    return [type(x) for row in matrix for x in row]


def _canonical(values):
    """Every value an int, or a Fraction that is not integral."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1) for v in values)


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
                    # ints where integral, zeros included, as in a cycle
                    assert _types(got) == _types(want), (offset, p)
                    assert _canonical(x for row in got for x in row), (offset, p)


REFERENCE_RINGS = MATRIX_RINGS + ("Gr(2,4)'",)


def _entries(cycle):
    return [(k, v, type(v)) for k, v in cycle.coeffs.items()]


@pytest.mark.parametrize("source", REFERENCE_RINGS)
@pytest.mark.parametrize("target", REFERENCE_RINGS)
def test_act_and_action_matrix_match_the_pair_degree_references(source, target):
    rings = _rings()
    A, B = rings[source], rings[target]
    rng = random.Random(f"{source}=>{target} references")
    xs = [random_cycle(rng, A, bound=3), random_cycle(rng, A, bound=3) * Fraction(1, 2)]
    xs += [A.basis_cycle(c) for c in A.cells]
    for offset in range(-A.dimension, B.dimension + 1):
        for _ in range(2):
            f = random_correspondence(rng, A, B, offset=offset, bound=5)
            for g in (f, _rational(f)):
                for x in xs:
                    got, want = act(g, x), reference_act(g, x)
                    assert _entries(got) == _entries(want), (offset, x)
                    assert _canonical(got.coeffs.values()), (offset, x)
                for p in range(-1, A.dimension + 2):
                    got, want = action_matrix(g, p), reference_action_matrix(g, p)
                    assert got == want, (offset, p)
                    assert _canonical(x for row in got for x in row), (offset, p)


@pytest.mark.parametrize("name", REFERENCE_RINGS)
def test_action_columns_match_the_dense_reference(name):
    ring = _rings()[name]
    rng = random.Random(f"{name} columns")
    fs = [random_correspondence(rng, ring, ring, offset=0, bound=3) for _ in range(4)]
    fs += fiber_projectors(ring) + [zero_correspondence(ring, ring, 0)]
    for f in fs:
        for g in (f, _rational(f)):
            got, want = action_columns(g), reference_action_columns(g)
            assert got == want

            def types(columns):
                return {(k, r): type(v) for k, col in columns.items() for r, v in col.items()}

            assert types(got) == types(want)


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


def dense_battery_failures(rings, samples, seed):
    """{check label: failures} of compose_oracle_battery as it was, with its
    dense per-codim matrix loop, calling compose and compose_oracle through
    the identities module so that a patch there reaches both."""
    out = {}
    for na, A in enumerate(rings):
        for nb, B in enumerate(rings):
            rng = random.Random(seed * 997 + 31 * na + nb)
            fails = []
            for s in range(samples):
                f = random_correspondence(rng, A, B, offset=0)
                g = random_correspondence(rng, B, A, offset=0)
                comp = identities.compose(g, f)
                if comp.cycle != identities.compose_oracle(g, f):
                    fails.append(f"sample {s}: contraction differs from the oracle")
                    continue
                for p in range(A.dimension + 1):
                    direct = reference_action_matrix(comp, p)
                    if B.rank(p):
                        chained = mat_mul(reference_action_matrix(g, p), reference_action_matrix(f, p))
                    else:
                        chained = tuple((0,) * A.rank(p) for _ in range(A.rank(p)))
                    if direct != chained:
                        fails.append(f"sample {s}: matrices differ on codim {p}")
                        break
            out[f"{A.name} => {B.name} => {A.name}"] = fails
    return out


def test_oracle_battery_names_the_lowest_differing_codim(monkeypatch):
    """compose and the oracle agree on a perturbed composition whose action
    differs from g's after f's at two codims, on every other sample."""

    def perturbed(g, f):
        comp = compose(g, f)
        A = comp.source
        if sum(f.cycle.coeffs.values()) % 2:
            return comp
        # plus the rank-one projectors of the first cells of the top two codims
        cell = dict(zip((c.key for c in A.cells), fiber_projectors(A)))
        terms = comp.cycle + cell[(A.dimension, 1)].cycle + cell[(A.dimension - 1, 1)].cycle
        return Correspondence(A, A, terms, 0)

    monkeypatch.setattr(identities, "compose", perturbed)
    monkeypatch.setattr(identities, "compose_oracle", lambda g, f: perturbed(g, f).cycle)
    rings = (projective_space(1), projective_space(2), grassmannian(2, 4))
    report = compose_oracle_battery(rings, samples=6, seed=3)
    got = {check.label: check.details for check in report.checks}
    want = dense_battery_failures(rings, 6, 3)
    assert got == want
    assert all(want.values()) and not all(len(fails) == 6 for fails in want.values())
    assert {line.split(" codim ")[1] for fails in want.values() for line in fails} == {"0", "1", "3"}


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
            assert _entries(got) == _entries(want) and _canonical(got.coeffs.values())
            assert got == compose(gg, ff).cycle


def _refuse(name):
    def refuse(*args):
        raise AssertionError(f"{name} called")

    return refuse


def test_oracle_does_not_use_the_middle_pairing(monkeypatch):
    """The oracle reads neither B's pair_degree nor its partner index;
    compose reads B's pairing, through the partners its kept plans hold."""
    # private rings, so that no plan or partner index is filled yet
    p1, p2, g24 = (parse_ring(dump_ring(r)) for r in (projective_space(1), projective_space(2), grassmannian(2, 4)))
    rng = random.Random(5)
    for A, B, C in ((p1, g24, p2), (p2, p2, p2)):
        f = random_correspondence(rng, A, B, offset=0)
        g = random_correspondence(rng, B, C, offset=0)
        before = compose_oracle(g, f)
        with monkeypatch.context() as m:
            m.setattr(B, "pair_degree", _refuse("pair_degree"))
            m.setattr(B, "partners", _refuse("partners"))
            assert compose_oracle(g, f) == before
            with pytest.raises(AssertionError, match="partners called"):
                compose(g, f)
        assert before == compose(g, f).cycle and not before.is_zero()
        # with the kept plan and partner index cleared, compose reads B's
        # pair_degree again
        f.ring._right_partners.clear()
        B._partners.clear()
        with monkeypatch.context() as m:
            m.setattr(B, "pair_degree", _refuse("pair_degree"))
            assert compose_oracle(g, f) == before
            with pytest.raises(AssertionError, match="pair_degree called"):
                compose(g, f)
        assert compose(g, f).cycle == before


def test_oracle_battery_fails_on_one_corrupted_triple_table_entry():
    """The oracle reads the triple product's table: scaling the B-point
    coefficient of one entry in a built row of (P^1 x P^2) x P^1 fails the
    battery on that ring pair, naming the samples, and on no other."""
    # private rings, so that the corrupted row stays in this test
    p1, p2 = (parse_ring(dump_ring(projective_space(n))) for n in (1, 2))
    rng = random.Random(0)
    compose_oracle(random_correspondence(rng, p2, p1), random_correspondence(rng, p1, p2))
    AB, BC = kunneth_product(p1, p2), kunneth_product(p2, p1)
    triple = kunneth_product(AB, p1)
    up_f, up_g, down, _ = triple._oracle
    h, unit = p2.cell("h").key, p1.unit_cell.key
    # (1 x h) x 1 times (1 x h) x h is (1 x pt) x h: one term, on B's point class
    row = triple._table[up_f[AB._pair_to_key[(unit, h)]]]
    entry = row[up_g[BC._pair_to_key[(h, p1.cell("h").key)]]]
    (point,) = [key for key in entry if key in down]
    entry[point] *= 3
    report = compose_oracle_battery((p1, p2), samples=6, seed=1)
    got = {check.label: check.details for check in report.checks}
    bad = got.pop("P^1 => P^2 => P^1")
    assert bad and all(re.fullmatch(r"sample \d: contraction differs from the oracle", d) for d in bad)
    assert not report.passed and not any(got.values())


TRIPLE_RINGS = ("point", "P^1", "P^2", "Gr(2,4)")


def _triple_rings():
    return {"point": point(), **_rings()}


@pytest.mark.parametrize("source", TRIPLE_RINGS)
@pytest.mark.parametrize("middle", TRIPLE_RINGS)
@pytest.mark.parametrize("target", TRIPLE_RINGS)
def test_compose_oracle_matches_the_nested_route(source, middle, target):
    rings = _triple_rings()
    A, B, C = rings[source], rings[middle], rings[target]
    rng = random.Random(f"{source}=>{middle}=>{target}")
    for _ in range(3):
        f = random_correspondence(rng, A, B, offset=rng.randint(-A.dimension, B.dimension))
        g = random_correspondence(rng, B, C, offset=rng.randint(-B.dimension, C.dimension))
        for ff, gg in ((f, g), (_rational(f), g), (f, _rational(g)), (_rational(f), _rational(g))):
            got, want = compose_oracle(gg, ff), nested_oracle(gg, ff)
            assert _entries(got) == _entries(want) and _canonical(got.coeffs.values())
            assert got == compose(gg, ff).cycle


def test_oracle_maps_are_built_once_per_triple_and_kept_on_it(monkeypatch):
    # private rings, so that no earlier test has built their maps
    p1, p2 = (parse_ring(dump_ring(projective_space(n))) for n in (1, 2))
    built = []
    real = identities._oracle_maps
    monkeypatch.setattr(identities, "_oracle_maps", lambda triple: built.append(triple) or real(triple))
    # the oracle walks the triple product's table rows itself: no ring
    # product and no contraction
    calls = []
    monkeypatch.setattr(ChowRing, "multiply", lambda *args: calls.append("multiply"))
    monkeypatch.setattr(identities, "compose", lambda *args: calls.append("compose"))
    rng = random.Random(7)
    triples = [(p1, p2, p1), (p2, p1, p2), (p1, p2, p2)]
    for _ in range(3):
        for A, B, C in triples:
            f = random_correspondence(rng, A, B, offset=0)
            g = random_correspondence(rng, B, C, offset=0)
            compose_oracle(g, f)
    rings = [kunneth_product(kunneth_product(A, B), C) for A, B, C in triples]
    assert built == rings  # one build per triple, on its first call
    assert calls == []
    for (A, B, C), ring in zip(triples, rings):
        assert ring._oracle is not None and ring._oracle[-1] is kunneth_product(A, C)
        assert kunneth_product(A, B)._oracle is None and kunneth_product(A, C)._oracle is None
