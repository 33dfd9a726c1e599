"""The one projector-system verifier, against the routes it replaced.

``projector_system_failures`` runs m squarings and one sum, and the m^2
pairwise products only when one of those fails.  These tests check it
against the compose-based cycle checks it replaced, against a dense
pairwise loop on seeded random systems, by counting its products, and on
the inputs it must refuse.
"""

import random
from types import SimpleNamespace

import pytest

from chowkit import (
    CKDecomposition,
    cellular_ck,
    diagonal,
    external_product,
    grassmannian,
    kunneth_product,
    lift_ck,
    hirzebruch,
    multiplication_correspondence,
    projective_space,
    verify_ck,
    verify_projector_system,
    zero_correspondence,
)
from chowkit import linalg
from chowkit.correspondences import Correspondence, action_columns
from chowkit.fileio import dump_ring, parse_ring
from chowkit.linalg import invert, projector_system_failures
from chowkit.motives import fiber_projectors

from checks import spy
from corpus import degenerate_surface_doc, standard_rings
from oracles import compose_failures, mat_mul

RINGS = standard_rings() + [kunneth_product(projective_space(1), grassmannian(2, 4))]


# -- the compose-based cycle checks (oracles.compose_failures) -------------------


def compose_details(ring, projs, labels):
    """The witnesses of compose_failures under the three labels."""
    idem, orth, complete = compose_failures(ring, projs)
    return dict(zip(labels, (
        [f"projector {k} is not idempotent on codim {p}" for k, p in idem],
        [f"projectors {l} and {k} do not compose to zero on codim {p}" for l, k, p in orth],
        [f"projector sum is not the identity on codim {p}" for p in complete],
    )))


def compose_ck_details(ck):
    """The cycle-level (a) checks verify_ck ran before it read actions."""
    return compose_details(ck.space, ck.projectors, (
        "(a) idempotence", "(a) orthogonality", "(a) completeness (sum = diagonal)"
    ))


def compose_system_details(ps):
    """The cycle-level checks verify_projector_system ran before it read actions."""
    return compose_details(ps[0].source, dict(enumerate(ps)), (
        "idempotence", "pairwise orthogonality", "completeness (sum = diagonal)"
    ))


def mutants(ps, extra):
    """The system itself, then duplicated, swapped, doubled and extended."""
    out = {"as built": list(ps)}
    out["duplicated"] = list(ps[:-1]) + [ps[0]]
    swapped = list(ps)
    swapped[0], swapped[-1] = ps[-1], ps[0]
    out["swapped"] = swapped
    out["2P"] = [2 * ps[0]] + list(ps[1:])
    out["extra piece"] = extra(list(ps))
    return out


def top_joins_degree_0(ps):
    # a CK system has one projector per degree, so its extra piece is the
    # top projector added into degree 0
    return [ps[0] + ps[-1]] + ps[1:]


def details(report, labels):
    return {c.label: c.details for c in report.checks if c.label in labels}


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_verify_ck_matches_the_compose_checks(ring):
    ck = cellular_ck(ring)
    degrees = list(ck.projectors)
    for name, ps in mutants(list(ck.projectors.values()), top_joins_degree_0).items():
        mutant = CKDecomposition(ring, dict(zip(degrees, ps)), name=name)
        want = compose_ck_details(mutant)
        assert details(verify_ck(mutant), want) == want, f"{name} on {ring.name}"


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_verify_projector_system_matches_the_compose_checks(ring):
    for name, ps in mutants(fiber_projectors(ring), lambda ps: ps + [ps[0]]).items():
        want = compose_system_details(ps)
        assert details(verify_projector_system(ps), want) == want, f"{name} on {ring.name}"


# -- seeded random systems against a dense pairwise loop -----------------------

# basis keys by codim: the shared basis of every random system
BASIS = {0: [("a", 1), ("a", 2)], 1: [("b", 1), ("b", 2), ("b", 3)], 2: [("c", 1)]}
KEYS = [b for keys in BASIS.values() for b in keys]
AT = {b: i for i, b in enumerate(KEYS)}
SPACE = SimpleNamespace(dimension=2, basis_keys=BASIS.__getitem__)


def random_unimodular(rng, n):
    """S = L U with unit triangular factors, and its inverse; integer
    entries keep the arithmetic fast."""
    def entry(i, j, free):
        return 1 if i == j else rng.randint(-1, 1) if free else 0

    lower = [[entry(i, j, j < i) for j in range(n)] for i in range(n)]
    upper = [[entry(i, j, j > i) for j in range(n)] for i in range(n)]
    s = mat_mul(lower, upper)
    return s, [[int(x) for x in row] for row in invert(s)]


def random_split(rng):
    pieces = rng.randint(1, len(KEYS))
    return [rng.randrange(pieces) for _ in KEYS]


def random_complete_system(rng, labels):
    """P_k = S E_k S^-1 for a random S, E_k the coordinate projection onto
    the basis keys labelled k: a complete system of orthogonal idempotents,
    mixing codims."""
    n = len(KEYS)
    s, s_inv = random_unimodular(rng, n)
    system = []
    for piece in sorted(set(labels)):
        e = [[int(i == j and labels[i] == piece) for j in range(n)] for i in range(n)]
        system.append(mat_mul(mat_mul(s, e), s_inv))
    return system


def mutate(rng, labels, system):
    kinds = ["none", "entry", "shift", "duplicate", "scale", "drop", "merge", "extra", "other"]
    kind = rng.choice(kinds)
    out = [list(map(list, m)) for m in system]
    i, j = rng.randrange(len(out)), rng.randrange(len(out))
    r, c, e = rng.randrange(len(KEYS)), rng.randrange(len(KEYS)), rng.choice([-1, 1])
    if kind == "entry":
        out[i][r][c] += e
    elif kind == "shift" and i != j:
        # moved from one piece to another: the sum stays the identity
        out[i][r][c] += e
        out[j][r][c] -= e
    elif kind == "duplicate":
        out[j] = out[i]
    elif kind == "scale":
        out[i] = [[2 * x for x in row] for row in out[i]]
    elif kind == "drop" and len(out) > 1:
        del out[i]
    elif kind == "merge" and i != j:
        out[i] = [[x + y for x, y in zip(r, s)] for r, s in zip(out[i], out[j])]
    elif kind == "extra":
        out.append(out[i])
    elif kind == "other":
        # the same split under another S: the ranks, so the traces, still
        # add up, but the images overlap
        out[i] = random_complete_system(rng, labels)[i]
    return out


def as_columns(m):
    """The dense matrix m as a sparse one: only its nonzero columns."""
    columns = {c: {r: m[AT[r]][AT[c]] for r in KEYS if m[AT[r]][AT[c]]} for c in KEYS}
    return {c: col for c, col in columns.items() if col}


def dense_pairwise(system):
    """The full check on dense matrices, every pair multiplied."""
    n = len(KEYS)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]

    def bad_codims(m, want):
        return [p for p, keys in BASIS.items() if any(
            m[r][AT[c]] != want[r][AT[c]] for c in keys for r in range(n)
        )]

    zero = [[0] * n for _ in range(n)]
    idem = [(k, p) for k, m in enumerate(system) for p in bad_codims(mat_mul(m, m), m)]
    orth = [
        (l, k, p)
        for k, m in enumerate(system)
        for l, g in enumerate(system)
        if l != k
        for p in bad_codims(mat_mul(g, m), zero)
    ]
    total = [[sum(m[r][c] for m in system) for c in range(n)] for r in range(n)]
    return idem, orth, bad_codims(total, ident)


def test_random_systems_agree_with_the_pairwise_loop():
    rng = random.Random(20121)
    seen = {"certified": 0, "failing": 0}
    for _ in range(150):
        labels = random_split(rng)
        system = mutate(rng, labels, random_complete_system(rng, labels))
        idem, orth, complete = dense_pairwise(system)
        got = projector_system_failures(SPACE, {k: as_columns(m) for k, m in enumerate(system)})
        if not idem and not complete:
            assert orth == []
            seen["certified"] += 1
        else:
            seen["failing"] += 1
        assert got == (idem, orth, complete)
    assert min(seen.values()) >= 20, seen


# -- cost -----------------------------------------------------------------------


def count_products(monkeypatch):
    """The squarings and pairwise products linalg.after makes from here on,
    read when called."""
    calls = spy(monkeypatch, linalg, "after")
    return lambda: {"squarings": sum(f is g for f, g in calls), "pairwise": sum(f is not g for f, g in calls)}


def test_a_passing_system_runs_no_pairwise_product(monkeypatch):
    ck = lift_ck(hirzebruch(1))
    m = len(ck.projectors)
    products = count_products(monkeypatch)
    assert verify_ck(ck).passed
    assert products() == {"squarings": m, "pairwise": 0}

    products = count_products(monkeypatch)
    # a private ring, so that no earlier test has kept its cell projectors
    ps = fiber_projectors(parse_ring(dump_ring(projective_space(3))))
    assert verify_projector_system(ps).passed
    assert products() == {"squarings": len(ps), "pairwise": 0}

    products = count_products(monkeypatch)
    # the repeat is a distinct object: a projector keeps its action columns,
    # so ps[0] itself would share them and count as a squaring
    assert not verify_projector_system(ps + [ps[0] * 1]).passed
    assert products() == {"squarings": len(ps) + 1, "pairwise": (len(ps) + 1) * len(ps)}


# -- refusals -------------------------------------------------------------------


def test_degenerate_pairing_is_refused():
    ring = parse_ring(degenerate_surface_doc(), name="degenerate surface")
    ring2 = kunneth_product(ring, ring)
    # 1 x f + e x e + f x 1 looks like a diagonal, but e*e = 0 leaves the
    # action blind to the middle term
    cyc = ring2.zero()
    for a, b in (("1", "f"), ("e", "e"), ("f", "1")):
        cyc = cyc + external_product(ring.basis_cycle(a), ring.basis_cycle(b))
    p = Correspondence(ring, ring, cyc, 0)
    with pytest.raises(ValueError, match="pairing at codim 1 is degenerate"):
        action_columns(p)
    with pytest.raises(ValueError, match="pairing at codim 1 is degenerate"):
        verify_projector_system([p])


def test_nonzero_degree_is_refused():
    p2 = projective_space(2)
    h = multiplication_correspondence(p2, p2.basis_cycle("h"))
    assert h.offset == 1
    with pytest.raises(ValueError, match="degree-0"):
        action_columns(h)
    with pytest.raises(ValueError, match="degree-0"):
        verify_projector_system([diagonal(p2), h])
    # a zero correspondence passes with any offset; its action holds no column
    assert action_columns(zero_correspondence(p2, p2, 1)) == {}
