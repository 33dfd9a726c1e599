"""Algebraic laws on randomized data, via hypothesis.

The seeded batteries already cover these identities at fixed sample counts;
here the inputs are adversarial (shrinking included) rather than uniform.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from chowkit import (
    act,
    build_projector_family,
    compose,
    decompose_model,
    external_product,
    kunneth_product,
    lift_ck,
    projective_bundle_model,
    projective_space,
    grassmannian,
    point,
    hirzebruch,
    transpose,
    trivial_fibration,
    validate_fibration,
    verify_ck,
    verify_motive_isomorphism,
    verify_projector_family,
    Correspondence,
)
from chowkit.linalg import pivot_columns, rank

import oracles

P1 = projective_space(1)
P2 = projective_space(2)
GR = grassmannian(2, 4)
RINGS = (point(), P1, P2, GR)

coeffs = st.integers(min_value=-9, max_value=9)


def cycles(ring):
    keys = [c.key for c in ring.cells]
    return st.dictionaries(st.sampled_from(keys), coeffs).map(ring.cycle)


def correspondences(source, target):
    # inhomogeneous allowed: offset=None
    ring2 = kunneth_product(source, target)
    keys = [c.key for c in ring2.cells]
    return st.dictionaries(st.sampled_from(keys), coeffs).map(
        lambda d: Correspondence(source, target, ring2.cycle(d), None)
    )


@given(st.sampled_from(RINGS).flatmap(
    lambda r: st.tuples(st.just(r), cycles(r), cycles(r), cycles(r))))
def test_ring_laws(data):
    ring, a, b, c = data
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert ring.unit() * a == a


@given(st.sampled_from(RINGS).flatmap(
    lambda r: st.tuples(st.just(r), cycles(r), cycles(r))))
def test_degree_is_linear(data):
    ring, a, b = data
    assert ring.degree(a + b) == ring.degree(a) + ring.degree(b)
    assert ring.degree(3 * a) == 3 * ring.degree(a)


@settings(max_examples=40)
@given(correspondences(P1, P2), correspondences(P2, P1), correspondences(P1, P2))
def test_compose_associative(f, g, h):
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


@settings(max_examples=40)
@given(correspondences(P1, P2), correspondences(P2, P1))
def test_transpose_antihomomorphism(f, g):
    assert transpose(compose(g, f)) == compose(transpose(f), transpose(g))
    assert transpose(transpose(f)) == f


@settings(max_examples=40)
@given(correspondences(P1, P2), correspondences(P2, P1), cycles(P1))
def test_act_is_functorial(f, g, alpha):
    assert act(compose(g, f), alpha) == act(g, act(f, alpha))


@given(cycles(P1), cycles(P2), cycles(P1), cycles(P2))
def test_external_product_multiplicative(a, b, c, d):
    lhs = external_product(a, b) * external_product(c, d)
    assert lhs == external_product(a * c, b * d)


@given(st.sampled_from((P1, P2)).flatmap(
    lambda r: st.tuples(st.just(r), cycles(kunneth_product(r, P1)))))
def test_kunneth_coordinates_roundtrip(data):
    # F B = id on every cycle, multi-term residuals included: B relabels
    # a x [g] as the cycle {g: a}, and F reads it back off one sweep
    ring, cyc = data
    model = trivial_fibration(ring, P1)
    product = kunneth_product(ring, P1)
    parts = {}
    for key, c in cyc.coeffs.items():
        a, g = product._key_to_pair[key]
        parts.setdefault(g, {})[a] = c
    y = model.cycle({g: ring.cycle(cs) for g, cs in parts.items()})
    coeffs = build_projector_family(model).apply_all_with_coefficients(y)
    back = {product._pair_to_key[k, g]: c for g, a in coeffs.items() for k, c in a.coeffs.items()}
    assert back == cyc.coeffs


MODEL_RINGS = (point(), P1, P2, projective_space(3), GR)


def bundles(base):
    """Rank-2 or rank-3 projective bundles over base, each Chern class a
    combination of its codim's cells with coefficients in [-2, 2]."""

    def chern(rank):
        return st.tuples(*(
            st.lists(st.integers(-2, 2), min_size=base.rank(i), max_size=base.rank(i)).map(
                lambda cs, i=i: base.cycle(dict(zip(base.basis_keys(i), cs)))
            )
            for i in range(1, rank + 1)
        )).map(lambda cs: projective_bundle_model(base, list(cs), rank=rank))

    return st.sampled_from((2, 3)).flatmap(chern)


random_models = st.one_of(
    st.tuples(st.sampled_from(MODEL_RINGS), st.sampled_from(MODEL_RINGS)).map(
        lambda pair: trivial_fibration(*pair)
    ),
    st.sampled_from((P1, P2, GR)).flatmap(bundles),
)


@settings(max_examples=40, deadline=None)
@given(random_models)
def test_random_models_pass_every_verifier(model):
    assert validate_fibration(model).passed
    assert verify_projector_family(build_projector_family(model), samples=2).passed
    assert verify_ck(lift_ck(model)).passed
    decompose_model(model)  # raises on a failed check
    report = verify_motive_isomorphism(model)
    assert report.passed, "\n".join(report.lines())


@given(cycles(P1), cycles(P1))
def test_projection_formula_on_hirzebruch(beta, gamma):
    m = hirzebruch(1)
    y = m.pullback(beta) * m.generator((1, 1))
    # push(pull(gamma) * y) = gamma * push(y)
    assert m.pushforward(m.pullback(gamma) * y) == gamma * m.pushforward(y)


entries = st.sampled_from([0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pivot_columns_are_the_columns_that_raise_the_rank(data):
    width = data.draw(st.integers(min_value=1, max_value=5))
    rows = data.draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=6))
    prefix = [oracles.rank([row[:j] for row in rows]) for j in range(width + 1)]
    assert pivot_columns(rows) == [j for j in range(width) if prefix[j + 1] > prefix[j]]
    assert rank(rows) == prefix[width]
