"""The kernels that sum into one coefficient dict against their references
in oracles.py.

``correspondence_from_action`` adds every term into one dict;
``_action_map`` and ``linalg.apply`` accumulate in place and drop zeros
once.  Results must agree with the references entry by entry, coefficient
types included.  ``random_cycle`` refuses a bad bound before it draws.
"""

import random
from fractions import Fraction

import pytest

from chowkit import (
    correspondence_from_action,
    dual_basis_cycles,
    grassmannian,
    kunneth_product,
    projective_space,
    random_cycle,
)
from chowkit.correspondences import Correspondence, _action_map
from chowkit.linalg import after, apply, combine
from chowkit.rings import Cycle
from chowkit.sampling import random_correspondence

import oracles
from checks import same_from_action
from corpus import DOUBLED, REBASED
from oracles import entries as _entries


@pytest.mark.parametrize("rational", [False, True])
def test_correspondence_from_action_matches_the_cycle_sum(rational):
    doubled = DOUBLED
    p1 = projective_space(1)
    sources = [doubled, kunneth_product(doubled, p1), REBASED, grassmannian(2, 4)]
    assert not all(_integral(e) for p in range(3) for e in dual_basis_cycles(doubled, p))
    rng = random.Random(f"from action {rational}")
    for source in sources:
        for target in (p1, doubled, REBASED):
            for _ in range(3):
                same_from_action(source, target, rng, rational)


def test_correspondence_from_action_demotes_a_sum_that_turns_integral():
    doubled = DOUBLED
    # image of h is 4 pt, against the dual h/2: 2 (h x pt), integral again
    action = {(1, 1): doubled.cycle({"pt": 4})}
    got = correspondence_from_action(doubled, doubled, action, offset=1)
    want = oracles.from_action(doubled, doubled, action, 1)
    h_pt = kunneth_product(doubled, doubled)._pair_to_key[((1, 1), (2, 1))]
    assert _entries(got.cycle) == _entries(want.cycle) == [(h_pt, 2, int)]
    # only zero images: the zero correspondence
    nothing = correspondence_from_action(doubled, doubled, {}, offset=0)
    assert nothing.cycle.is_zero()


def _integral(cycle):
    return all(type(v) is int for v in cycle.coeffs.values())


def _no_zeros(columns):
    return all(col and all(col.values()) for col in columns.values())


def test_action_map_drops_cancelled_terms_and_empty_columns():
    ring = kunneth_product(REBASED, projective_space(1))
    b = projective_space(1).unit_cell.key
    t21, t22 = (ring._pair_to_key[(a, b)] for a in ((2, 1), (2, 2)))
    # partners of s[2] are (s[2], 1), (s[2]+s[1,1], 1); of s[2]+s[1,1], (s[2], 1), (s[2]+s[1,1], 2):
    # column (2, 1) cancels to nothing, column (2, 2) keeps -1
    f = Correspondence(REBASED, projective_space(1), Cycle(ring, {t21: 1, t22: -1}))
    assert _action_map(f) == oracles.action_map(f) == {(2, 2): {b: -1}}
    rng = random.Random("cancel")
    for _ in range(40):
        cyc = random_cycle(rng, ring, bound=1, codim=4)
        f = Correspondence(REBASED, projective_space(1), cyc)
        for g in (f, f * Fraction(1, 2)):
            got = _action_map(g)
            assert got == oracles.action_map(g) and _no_zeros(got)


def test_apply_drops_cancelled_terms():
    f = {"x": {"b": 1}, "y": {"b": 1, "c": 2}, "z": {"b": Fraction(1, 2)}}
    vecs = [{"x": 1, "y": -1}, {"x": 1, "z": -2}, {"x": 2, "y": 1}, {"w": 5}, {}, {"y": Fraction(1, 2)}]
    for vec in vecs:
        got = apply(f, vec)
        assert got == combine((c, f[k]) for k, c in vec.items() if k in f)
        assert all(got.values())
    assert apply(f, {"x": 1, "z": -2}) == {}
    # a column whose image cancels leaves no empty column after composition
    assert after(f, {"p": {"x": 1, "z": -2}, "q": {"y": 1}}) == {"q": {"b": 1, "c": 2}}


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
