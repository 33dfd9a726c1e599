"""One exactness rule: every coefficient a kernel returns is an int when it
is integral and a Fraction only when it is not.

Inputs are random integer and rational cycles on P^2, on Gr(2,4), on a
plane whose h * h is twice the point (its middle dual is h/2, so its duals
and projectors carry Fractions) and on that plane's Kunneth product with
P^1.  Equal cycles built from ints and from integral Fractions must be
equal and hash equal, and inexact coefficients stay refused.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chowkit import (
    BasisCell,
    ChowRing,
    Correspondence,
    Cycle,
    MorphismData,
    act,
    compose,
    compose_oracle,
    correspondence_from_action,
    dual_basis_cycles,
    external_product,
    grassmannian,
    identity_morphism,
    kunneth_product,
    projection_morphism,
    projective_space,
    tensor,
    transpose,
)

P1, P2, GR = projective_space(1), projective_space(2), grassmannian(2, 4)
DOUBLED = ChowRing(
    2,
    [BasisCell(0, 1, "1"), BasisCell(1, 1, "h"), BasisCell(2, 1, "pt")],
    {((1, 1), (1, 1)): {(2, 1): 2}},
    name="doubled plane",
)
DOUBLED_P1 = kunneth_product(DOUBLED, P1)
RINGS = (P2, GR, DOUBLED, DOUBLED_P1)
SMALL = (P2, DOUBLED)  # for tensor, whose result lives on a four-fold product

# ints, integral Fractions such as 4/2, and genuine fractions
values = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)
scalars = st.one_of(values, st.sampled_from((Fraction(4, 2), Fraction(-3, 3), Fraction(1, 2))))
rings = st.sampled_from(RINGS)


def canonical_value(v):
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def canonical(cycle):
    """True when every value is an int or a Fraction that is not integral."""
    return all(canonical_value(v) for v in cycle.coeffs.values())


def cycles(ring, codim=None):
    keys = ring.basis_keys(codim)
    if not keys:
        return st.just(ring.zero())
    return st.dictionaries(st.sampled_from(keys), values).map(lambda d: Cycle(ring, d))


def correspondences(source, target):
    # inhomogeneous allowed: the offset is derived from the cycle
    return cycles(kunneth_product(source, target)).map(
        lambda c: Correspondence(source, target, c)
    )


ring_pairs = st.tuples(rings, rings)


@settings(max_examples=60, deadline=None)
@given(rings.flatmap(lambda r: st.tuples(cycles(r), cycles(r), scalars)))
def test_ring_arithmetic_is_canonical(data):
    a, b, s = data
    ring = a.ring
    assert canonical(a) and canonical(b)
    for out in (a + b, a - b, -a, a * s, s * a, a * b, ring.multiply(a, b)):
        assert canonical(out), out
    assert canonical_value(ring.degree(a)) and canonical_value(a.coefficient(ring.unit_cell))


@settings(max_examples=40, deadline=None)
@given(ring_pairs.flatmap(lambda rs: st.tuples(cycles(rs[0]), cycles(rs[1]))))
def test_external_product_is_canonical(data):
    a, b = data
    assert canonical(external_product(a, b))


@settings(max_examples=40, deadline=None)
@given(ring_pairs.flatmap(
    lambda rs: st.tuples(correspondences(*rs), cycles(rs[0]), st.sampled_from(RINGS))
).flatmap(lambda t: st.tuples(st.just(t[0]), st.just(t[1]), correspondences(t[0].target, t[2]))))
def test_correspondence_kernels_are_canonical(data):
    f, x, g = data
    assert canonical(act(f, x))
    assert canonical(transpose(f).cycle)
    assert canonical(compose(g, f).cycle)
    assert canonical(compose_oracle(g, f))
    assert compose_oracle(g, f) == compose(g, f).cycle


@settings(max_examples=25, deadline=None)
@given(st.tuples(*(st.sampled_from(SMALL) for _ in range(4))).flatmap(
    lambda rs: st.tuples(correspondences(rs[0], rs[1]), correspondences(rs[2], rs[3]))))
def test_tensor_is_canonical(data):
    f, g = data
    assert canonical(tensor(f, g).cycle)


def actions(source, target, offset):
    """{cell key: homogeneous image of codim p + offset} over the source cells."""
    return st.fixed_dictionaries({
        cell.key: cycles(target, cell.codim + offset)
        if 0 <= cell.codim + offset <= target.dimension else st.just(target.zero())
        for cell in source.cells
    })


@settings(max_examples=40, deadline=None)
@given(ring_pairs.flatmap(
    lambda rs: st.integers(-rs[0].dimension, rs[1].dimension).flatmap(
        lambda r: st.tuples(st.just(rs), st.just(r), actions(rs[0], rs[1], r)))))
def test_correspondence_from_action_is_canonical(data):
    (source, target), offset, images = data
    f = correspondence_from_action(source, target, images, offset)
    assert canonical(f.cycle)
    for p in range(source.dimension + 1):
        for cell in source.cells_of_codim(p):
            assert act(f, source.basis_cycle(cell)) == images[cell.key]


def test_dual_basis_cycles_are_canonical():
    for ring in RINGS:
        for p in range(ring.dimension + 1):
            assert all(canonical(e) for e in dual_basis_cycles(ring, p))
    (e,) = dual_basis_cycles(DOUBLED, 1)
    assert e.coeffs == {(1, 1): Fraction(1, 2)}


def _morphisms():
    """Validated morphisms, and tables scaled by Fractions (left unvalidated,
    since validation would refuse them)."""
    scaled = []
    for ring, s in ((P2, Fraction(1, 2)), (DOUBLED, Fraction(2, 3))):
        table = {c.key: ring.basis_cycle(c) * s for c in ring.cells}
        scaled.append(MorphismData(ring, ring, table, dict(table), name=f"{s} id", validate=False))
    return [
        identity_morphism(DOUBLED),
        projection_morphism(DOUBLED_P1, "left"),
        projection_morphism(DOUBLED_P1, "right"),
        *scaled,
    ]


MORPHISMS = _morphisms()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MORPHISMS).flatmap(
    lambda m: st.tuples(st.just(m), cycles(m.target), cycles(m.source))))
def test_pullback_and_pushforward_are_canonical(data):
    m, y, x = data
    assert canonical(m.pullback(y))
    assert canonical(m.pushforward(x))


@given(rings.flatmap(lambda r: st.tuples(
    st.just(r), st.dictionaries(st.sampled_from(r.basis_keys()), st.integers(-6, 6)))))
def test_ints_and_integral_fractions_build_one_cycle(data):
    ring, d = data
    as_ints = Cycle(ring, d)
    as_fractions = Cycle(ring, {k: Fraction(2 * v, 2) for k, v in d.items()})
    assert as_ints == as_fractions and hash(as_ints) == hash(as_fractions)
    assert list(as_fractions.coeffs.items()) == list(as_ints.coeffs.items())
    assert all(type(v) is int for v in as_fractions.coeffs.values())


class Count(int):
    """An int subclass, stored as a plain int."""


def test_two_and_four_halves_are_one_cycle():
    for ring in RINGS:
        for cell in ring.cells:
            two = Cycle(ring, {cell.key: 2})
            for same in (Fraction(4, 2), Count(2)):
                other = Cycle(ring, {cell.key: same})
                assert two == other and hash(two) == hash(other)
                assert type(other.coefficient(cell)) is int


@pytest.mark.parametrize("value", [0.5, 2.0, 0.0, True, False, 1j, complex(2, 0)])
def test_inexact_coefficients_are_refused(value):
    message = f"exact integer or Fraction coefficient expected, got {value!r}"
    with pytest.raises(TypeError) as caught:
        Cycle(P2, {(1, 1): value})
    assert str(caught.value) == message
    with pytest.raises(TypeError) as caught:
        P2.basis_cycle("h") * value
    assert str(caught.value) == message
