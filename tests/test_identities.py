"""Composition identities and the triple-product composition oracle: its
battery against the dense route it replaced (oracles.dense_battery_failures),
the tables it reads and the maps it keeps."""

import random
import re

import pytest

from chowkit import (
    ChowRing,
    Correspondence,
    compose,
    compose_oracle,
    compose_oracle_battery,
    diagonal,
    dump_ring,
    fiber_projectors,
    graph_from_morphism,
    grassmannian,
    kunneth_product,
    linear_embedding,
    multiplication_correspondence,
    parse_ring,
    point,
    projective_space,
    run_identity_battery,
    standard_morphisms,
)
from chowkit import identities
from chowkit.identities import collapse_morphism
from chowkit.rings import _Kept, _kept
from chowkit.sampling import random_correspondence

import oracles
from checks import spy


def test_standard_morphisms_validate_on_construction():
    ms = standard_morphisms()
    assert len(ms) == 8
    names = [m.name for m in ms]
    assert "id_P^1" in names and "P^2 -> P^1 collapse" in names
    # every entry passed MorphismData's projection-formula check already;
    # spot-check the collapse
    c = collapse_morphism()
    p1, p2 = c.target, c.source
    assert c.pullback(p1.basis_cycle("h")).is_zero()
    assert c.pushforward(p2.basis_cycle("h^2")) == p1.basis_cycle("h")
    assert c.pushforward(p2.unit()).is_zero()


def test_identity_battery_green():
    report = run_identity_battery(samples=25, seed=7)
    assert report.passed, "\n".join(report.lines())
    assert report.subject == "composition identities over (P^1, P^2)"
    labels = [c["name"] for c in report.to_dict()["checks"]]
    assert len(labels) == 8
    assert labels[0].startswith("c_alpha o phi")
    assert labels[-1].startswith("composition is associative")
    # six identity shapes, then functoriality, then associativity
    assert sum("(25 instances)" in l for l in labels) == 7


def test_every_identity_check_can_fail(monkeypatch):
    """compose doubled when its first map starts on P^1 breaks every check
    but functoriality, which a doubled tensor breaks alone."""
    compose, tensor, p1 = identities.compose, identities.tensor, projective_space(1)
    with monkeypatch.context() as m:
        m.setattr(identities, "compose", lambda g, f: compose(g, f) * (2 if f.source is p1 else 1))
        failing = [c.label for c in run_identity_battery(samples=10).checks if not c.passed]
    assert failing == [c.label for c in run_identity_battery(samples=1).checks if "ambient" not in c.label]
    monkeypatch.setattr(identities, "tensor", lambda f, g: tensor(f, g) * 2)
    failing = [c.label for c in run_identity_battery(samples=1).checks if not c.passed]
    assert failing == ["graphs extend over an ambient factor"]


def test_identity_battery_other_pairs():
    report = run_identity_battery(projective_space(2), projective_space(1), samples=10, seed=3)
    assert report.passed
    assert report.subject == "composition identities over (P^2, P^1)"


def test_zero_sample_batteries_are_skipped_not_passed():
    report = run_identity_battery(samples=0)
    assert not report.passed
    assert "  c_alpha o phi = (1 x alpha) . phi: skipped (0 instances)" in report.lines()
    assert report.lines()[0].endswith(": FAIL")
    # the exhaustive functoriality check still runs on every cell
    assert "  graphs extend over an ambient factor (88 instances): pass" in report.lines()
    oracle = compose_oracle_battery((projective_space(1),), samples=0)
    assert not oracle.passed
    assert oracle.to_dict()["checks"] == [
        {"name": "P^1 => P^1 => P^1", "passed": False, "details": []}
    ]


@pytest.mark.parametrize("left, right", [("P^1", "Gr(2,4)"), ("Gr(2,4)", "P^1")])
def test_identities_with_no_standard_morphism_are_skipped(left, right, monkeypatch):
    """The standard morphisms only connect P^1 and P^2: an identity whose
    morphism family is empty draws nothing and is a skipped check."""
    from chowkit import identities

    rings = {"P^1": projective_space(1), "Gr(2,4)": grassmannian(2, 4)}
    drawn = spy(monkeypatch, identities, "random_correspondence")
    report = run_identity_battery(rings[left], rings[right], samples=3, seed=4)
    skipped = [check.label for check in report.checks if check.count == 0]
    if left == "P^1":
        assert skipped == ["c(f) o phi = (id x f)^* phi", "c(g)^t o phi = (id x g)_* phi"]
    else:
        assert skipped == ["tau o c(f) = (f x id)_* tau", "psi o c(f)^t = (f x id)^* psi"]
    assert not report.passed
    assert all(check.passed for check in report.checks if check.count)
    # three draws per sample for associativity, one for each other sampled identity
    assert len(drawn) == 3 * (3 + 4)


def test_identity_battery_deterministic():
    a = run_identity_battery(samples=10, seed=11).to_dict()
    b = run_identity_battery(samples=10, seed=11).to_dict()
    assert a == b


def test_identity_battery_builds_each_graph_once(monkeypatch):
    from chowkit import identities

    calls = spy(monkeypatch, identities, "graph_from_morphism")
    assert run_identity_battery(samples=2, seed=1).passed
    assert len(calls) == len(standard_morphisms())


def test_compose_oracle_matches_contraction():
    p1, p2 = projective_space(1), projective_space(2)
    emb = linear_embedding(1, 2)
    c, c_t = graph_from_morphism(emb)
    # push then pull multiplies by the hyperplane class, on either side
    comp = compose(c_t, c)
    assert comp.cycle == compose_oracle(c_t, c)
    assert comp == multiplication_correspondence(p2, p2.basis_cycle("h"))
    comp2 = compose(c, c_t)
    assert comp2.cycle == compose_oracle(c, c_t)
    assert comp2 == multiplication_correspondence(p1, p1.basis_cycle("h"))
    d1, d2 = diagonal(p1), diagonal(p2)
    assert compose_oracle(d1, c) == c.cycle
    assert compose_oracle(c, d2) == c.cycle


def test_compose_oracle_mismatch():
    p1, p2 = projective_space(1), projective_space(2)
    c, _ = graph_from_morphism(linear_embedding(1, 2))
    with pytest.raises(ValueError, match="must land where"):
        compose_oracle(c, c)
    assert compose_oracle(diagonal(p1), diagonal(p1)) == diagonal(p1).cycle
    assert compose_oracle(diagonal(p2), diagonal(p2)) == diagonal(p2).cycle


def test_compose_oracle_point_factor():
    # factoring through a point truncates: only codim-0 information survives
    pt, p1 = point(), projective_space(1)
    from chowkit import constant_morphism

    c, c_t = graph_from_morphism(constant_morphism(p1, pt))
    comp = compose(c_t, c)
    assert comp.cycle == compose_oracle(c_t, c)


def test_oracle_battery_green():
    report = compose_oracle_battery(samples=10, seed=5)
    assert report.passed, "\n".join(report.lines())
    assert len(report.checks) == 9  # ordered pairs of three rings
    labels = [c["name"] for c in report.to_dict()["checks"]]
    assert labels[0] == "P^1 => P^1 => P^1 (10 instances)"
    assert labels[-1] == "Gr(2,4) => Gr(2,4) => Gr(2,4) (10 instances)"


def test_oracle_battery_custom_rings_and_determinism():
    rings = (projective_space(1), grassmannian(2, 4))
    a = compose_oracle_battery(rings, samples=5, seed=2).to_dict()
    b = compose_oracle_battery(rings, samples=5, seed=2).to_dict()
    assert a == b
    assert len(a["checks"]) == 4


# -- the oracle and its battery ----------------------------------------------------


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
    want = oracles.dense_battery_failures(rings, 6, 3)
    assert got == want
    assert all(want.values()) and not all(len(fails) == 6 for fails in want.values())
    assert {line.split(" codim ")[1] for fails in want.values() for line in fails} == {"0", "1", "3"}


def _refuse(name):
    def refuse(*args):
        raise AssertionError(f"{name} called")

    return refuse


def test_oracle_does_not_use_the_middle_pairing(monkeypatch):
    """The oracle reads neither B's pair_degree nor its partner index;
    compose reads B's pairing, through B's partner index."""
    # private rings, so that no partner index is filled yet
    p1, p2, g24 = (parse_ring(dump_ring(r)) for r in (projective_space(1), projective_space(2), grassmannian(2, 4)))
    rng = random.Random(5)
    for A, B, C in ((p1, g24, p2), (p2, p2, p2)):
        f = random_correspondence(rng, A, B, offset=0)
        g = random_correspondence(rng, B, C, offset=0)
        before = compose_oracle(g, f)
        with monkeypatch.context() as m:
            m.setattr(B, "pair_degree", _refuse("pair_degree"))
            m.setattr(B, "_partners", _Kept(_refuse("partners")))
            assert compose_oracle(g, f) == before
            with pytest.raises(AssertionError, match="partners called"):
                compose(g, f)
        assert before == compose(g, f).cycle and not before.is_zero()
        # with the partner index cleared, compose reads B's pair_degree again
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
    up_f, up_g, down, _ = _kept(triple, identities._oracle_maps)
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


def test_oracle_maps_are_built_once_per_triple_and_kept_on_it(monkeypatch):
    # private rings, so that no earlier test has built their maps
    p1, p2 = (parse_ring(dump_ring(projective_space(n))) for n in (1, 2))
    built = spy(monkeypatch, identities, "_oracle_maps")
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
    assert built == [(ring,) for ring in rings]  # one build per triple, on its first call
    assert calls == []
    key = (identities._oracle_maps,)  # the spy, which built and keys the kept maps
    for (A, B, C), ring in zip(triples, rings):
        assert list(ring._kept) == [key] and ring._kept[key][-1] is kunneth_product(A, C)
        assert kunneth_product(A, B)._kept == {} == kunneth_product(A, C)._kept
