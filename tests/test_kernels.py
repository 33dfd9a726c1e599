"""The flat correspondence kernels against their references in oracles.py.

``action_matrix`` and ``action_columns`` read a correspondence's action in
one walk over its terms through the source ring's partner index, and
``compose_oracle`` works on cell keys; all are checked here against the
references, which read ``pair_degree`` cell by cell and build the triple
product's cycles, and ``compose_oracle`` against ``compose`` too.
"""

import random
import re

import pytest

from chowkit import (
    ChowRing,
    Correspondence,
    action_matrix,
    compose,
    compose_oracle,
    compose_oracle_battery,
    dump_ring,
    fiber_projectors,
    grassmannian,
    kunneth_product,
    parse_ring,
    point,
    projective_space,
)
from chowkit import identities
from chowkit.linalg import mat_mul
from chowkit.sampling import random_correspondence

import oracles
from checks import composable, matrix_entries, same_action_matrix, same_columns, same_compose_oracle
from corpus import REBASED, RINGS, correspondences, standard_rings


MATRIX_RINGS = ("P^1", "P^2", "Gr(2,4)", "P^1 x P^2")


@pytest.mark.parametrize("source", MATRIX_RINGS)
@pytest.mark.parametrize("target", MATRIX_RINGS)
def test_action_matrix_matches_column_route(source, target):
    # column j is the act reference on the j-th cell; ints where integral,
    # zeros included, as in a cycle
    A, B = RINGS[source], RINGS[target]
    rng = random.Random(f"{source}->{target}")
    for f in correspondences(rng, A, B):
        for p in range(-1, A.dimension + 2):
            images = [oracles.act(f, A.basis_cycle(c)) for c in A.cells_of_codim(p)]
            want = tuple(tuple(y.coefficient(c) for y in images) for c in B.cells_of_codim(p + f.offset))
            assert matrix_entries(action_matrix(f, p)) == matrix_entries(want), (f.offset, p)


REFERENCE_RINGS = MATRIX_RINGS + ("Gr(2,4)'",)


@pytest.mark.parametrize("source", REFERENCE_RINGS)
@pytest.mark.parametrize("target", REFERENCE_RINGS)
def test_act_and_action_matrix_match_the_pair_degree_references(source, target):
    # act itself meets its reference in test_contraction_plans
    same_action_matrix(RINGS[source], RINGS[target], random.Random(f"{source}=>{target} references"))


@pytest.mark.parametrize("name", REFERENCE_RINGS)
def test_action_columns_match_the_dense_reference(name):
    same_columns(RINGS[name], random.Random(f"{name} columns"))


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
                    direct = oracles.action_matrix(comp, p)
                    if B.rank(p):
                        chained = mat_mul(oracles.action_matrix(g, p), oracles.action_matrix(f, p))
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
    # the reference the battery holds the oracle to: the contraction compose
    rng = random.Random(f"{source}=>{middle}")
    for f, g in composable(rng, RINGS[source], RINGS[middle], RINGS[source]):
        assert compose_oracle(g, f) == compose(g, f).cycle


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


@pytest.mark.parametrize("source", TRIPLE_RINGS)
@pytest.mark.parametrize("middle", TRIPLE_RINGS)
@pytest.mark.parametrize("target", TRIPLE_RINGS)
def test_compose_oracle_matches_the_nested_route(source, middle, target):
    rng = random.Random(f"{source}=>{middle}=>{target}")
    same_compose_oracle(RINGS[source], RINGS[middle], RINGS[target], rng)


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
