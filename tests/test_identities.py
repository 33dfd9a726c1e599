"""Composition identities and the triple-product composition oracle."""

import pytest

from chowkit import (
    compose,
    compose_oracle,
    compose_oracle_battery,
    diagonal,
    graph_from_morphism,
    grassmannian,
    linear_embedding,
    multiplication_correspondence,
    point,
    projective_space,
    run_identity_battery,
    standard_morphisms,
)
from chowkit.identities import collapse_morphism


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
    drawn = []
    draw = identities.random_correspondence
    monkeypatch.setattr(identities, "random_correspondence", lambda *a, **k: drawn.append(a) or draw(*a, **k))
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

    calls = []
    build = identities.graph_from_morphism
    monkeypatch.setattr(identities, "graph_from_morphism", lambda m: calls.append(m) or build(m))
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
