"""The kernels that sum into one coefficient dict against the cycle-sum
routes they replaced, kept here as references.

``correspondence_from_action``, ``MorphismData.pullback`` and
``pushforward`` add every term into one dict; ``_action_map`` and
``linalg.apply`` accumulate in place and drop zeros once;
``random_cycle`` draws each coefficient as ``randint`` would, straight from
``getrandbits``.  Results must agree with the old
routes entry by entry, coefficient types included.
"""

import random
from fractions import Fraction

import pytest

from chowkit import (
    correspondence_from_action,
    dual_basis_cycles,
    external_product,
    grassmannian,
    kunneth_product,
    product_morphism,
    projective_space,
    random_cycle,
)
from chowkit.catalog import linear_embedding
from chowkit.correspondences import Correspondence, _action_map, _morphism, identity_morphism
from chowkit.linalg import after, apply, combine
from chowkit.identities import standard_morphisms
from chowkit.rings import BasisCell, ChowRing, Cycle
from chowkit.sampling import random_correspondence
from test_kernels import REBASED


def doubled_plane():
    """A surface whose middle pairing is 2, so its middle dual is h/2."""
    cells = [BasisCell(0, 1, "1"), BasisCell(1, 1, "h"), BasisCell(2, 1, "pt")]
    return ChowRing(2, cells, {((1, 1), (1, 1)): {(2, 1): 2}}, name="doubled")


def _entries(cycle):
    return sorted((k, v, type(v)) for k, v in cycle.coeffs.items())


def cycle_sum_from_action(source, target, lookup, offset):
    """correspondence_from_action as it was: one external product per
    source cell, added cycle by cycle."""
    total = kunneth_product(source, target).zero()
    for p in range(source.dimension + 1):
        for cell, e in zip(source.cells_of_codim(p), dual_basis_cycles(source, p)):
            image = lookup(cell)
            if not image.is_zero():
                total = total + external_product(e, image)
    return Correspondence(source, target, total, offset)


def _random_action(rng, source, target, offset, rational):
    """{cell: image} with about a third of the images zero."""
    images = {}
    for cell in source.cells:
        q = cell.codim + offset
        if rng.random() < 1 / 3 or not 0 <= q <= target.dimension:
            images[cell] = target.zero()
            continue
        image = random_cycle(rng, target, bound=3, codim=q)
        images[cell] = image * Fraction(rng.randint(1, 3), rng.randint(2, 4)) if rational else image
    return images


@pytest.mark.parametrize("rational", [False, True])
def test_correspondence_from_action_matches_the_cycle_sum(rational):
    doubled = doubled_plane()
    p1 = projective_space(1)
    sources = [doubled, kunneth_product(doubled, p1), REBASED, grassmannian(2, 4)]
    assert not all(_integral(e) for p in range(3) for e in dual_basis_cycles(doubled, p))
    rng = random.Random(f"from action {rational}")
    for source in sources:
        for target in (p1, doubled, REBASED):
            for offset in range(-source.dimension, target.dimension + 1):
                for _ in range(3):
                    images = _random_action(rng, source, target, offset, rational)
                    got = correspondence_from_action(source, target, images.get, offset)
                    want = cycle_sum_from_action(source, target, images.get, offset)
                    assert got.offset == want.offset
                    assert _entries(got.cycle) == _entries(want.cycle), (source.name, target.name)


def test_correspondence_from_action_demotes_a_sum_that_turns_integral():
    doubled = doubled_plane()
    # image of h is 4 pt, against the dual h/2: 2 (h x pt), integral again
    action = {(1, 1): doubled.cycle({"pt": 4})}
    got = correspondence_from_action(doubled, doubled, action, offset=1)
    want = cycle_sum_from_action(doubled, doubled, lambda c: action.get(c.key, doubled.zero()), 1)
    h_pt = kunneth_product(doubled, doubled)._pair_to_key[((1, 1), (2, 1))]
    assert _entries(got.cycle) == _entries(want.cycle) == [(h_pt, 2, int)]
    # only zero images: the zero correspondence
    nothing = correspondence_from_action(doubled, doubled, {}, offset=0)
    assert nothing.cycle.is_zero()


def cycle_sum_extend(table, ring, x):
    """MorphismData.pullback and pushforward as they were: each matrix
    column a cycle, added cycle by cycle."""
    out = ring.zero()
    for key, c in x.coeffs.items():
        column = table.get(key)
        if column is not None:
            out = out + Cycle(ring, column) * c
    return out


def _morphisms():
    p1, p2 = projective_space(1), projective_space(2)
    ms = list(standard_morphisms())
    ms.append(product_morphism(identity_morphism(p1), linear_embedding(1, 2)))
    # rational tables: a scaled identity, and the line in the plane with a
    # rational pushforward entry (validation would refuse both)
    half = {c.key: {c.key: Fraction(1, 2)} for c in p2.cells}
    ms.append(_morphism(p2, p2, half, half, "half"))
    emb = linear_embedding(1, 2)
    push = {**emb._push, (0, 1): {k: v * Fraction(2, 3) for k, v in emb._push[0, 1].items()}}
    ms.append(_morphism(p1, p2, emb._pull, push, "thirds"))
    return ms


def test_pullback_and_pushforward_match_the_cycle_sum():
    rng = random.Random("extend")
    kinds = set()
    for m in _morphisms():
        for ring, table, apply in ((m.target, m._pull, m.pullback), (m.source, m._push, m.pushforward)):
            xs = [ring.basis_cycle(c) for c in ring.cells] + [ring.zero()]
            xs += [random_cycle(rng, ring, bound=4) for _ in range(3)]
            xs += [random_cycle(rng, ring, bound=4) * Fraction(1, 3) for _ in range(3)]
            other = m.source if ring is m.target else m.target
            for x in xs:
                got, want = apply(x), cycle_sum_extend(table, other, x)
                assert _entries(got) == _entries(want), (m.name, x)
                kinds.add((_integral(x), _integral(got)))
    # through a rational table an integral input can come out rational and a
    # rational input integral
    assert kinds == {(True, True), (True, False), (False, False), (False, True)}


def _integral(cycle):
    return all(type(v) is int for v in cycle.coeffs.values())


def old_action_map(f):
    """_action_map as it was: every column rebuilt to drop its zeros."""
    partners, split = f.source.partners, f.ring._key_to_pair
    columns = {}
    for key, c in f.cycle.coeffs.items():
        a, b = split[key]
        for k, d in partners(a.key):
            col = columns.setdefault(k, {})
            col[b.key] = col.get(b.key, 0) + c * d
    return {k: image for k, col in columns.items() if (image := {b: v for b, v in col.items() if v})}


def _no_zeros(columns):
    return all(col and all(col.values()) for col in columns.values())


def test_action_map_drops_cancelled_terms_and_empty_columns():
    ring = kunneth_product(REBASED, projective_space(1))
    b = projective_space(1).unit_cell.key
    t21, t22 = (ring._pair_to_key[(a, b)] for a in ((2, 1), (2, 2)))
    # partners of s[2] are (s[2], 1), (s[2]+s[1,1], 1); of s[2]+s[1,1], (s[2], 1), (s[2]+s[1,1], 2):
    # column (2, 1) cancels to nothing, column (2, 2) keeps -1
    f = Correspondence(REBASED, projective_space(1), Cycle(ring, {t21: 1, t22: -1}))
    assert _action_map(f) == old_action_map(f) == {(2, 2): {b: -1}}
    rng = random.Random("cancel")
    for _ in range(40):
        cyc = random_cycle(rng, ring, bound=1, codim=4)
        f = Correspondence(REBASED, projective_space(1), cyc)
        for g in (f, f * Fraction(1, 2)):
            got = _action_map(g)
            assert got == old_action_map(g) and _no_zeros(got)


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


def _randint_reference(rng, ring, bound, codim):
    """random_cycle's coefficients as (key, value) pairs in key order."""
    cells = ring.cells if codim is None else ring.cells_of_codim(codim)
    return [(k, v) for k, v in {c.key: rng.randint(-bound, bound) for c in cells}.items() if v]


def test_random_cycle_draws_as_randint():
    """random_cycle and random_correspondence draw as the randint reference:
    the same coefficients in the same key order, the same generator state
    after, and the empty cycle at a codim out of range.  The bounds take
    getrandbits widths k = 1, 2, 5, 5, 6, one below and one at a power of
    two."""
    p1, p2, gr24 = projective_space(1), projective_space(2), grassmannian(2, 4)
    rings = [p1, p2, projective_space(3), gr24, kunneth_product(p2, p1)]
    for seed in range(10):
        rng, ref = random.Random(seed), random.Random(seed)
        for ring in rings:
            for codim in [None, -1, ring.dimension + 1, *range(ring.dimension + 1)]:
                for bound in (0, 1, 10, 15, 16):
                    want = _randint_reference(ref, ring, bound, codim)
                    assert list(random_cycle(rng, ring, bound, codim=codim).coeffs.items()) == want
                    assert rng.getstate() == ref.getstate()
            for target in (p1, p2, gr24):
                for offset in range(-ring.dimension - 1, target.dimension + 2):
                    want = _randint_reference(ref, kunneth_product(ring, target), 10, ring.dimension + offset)
                    f = random_correspondence(rng, ring, target, offset)
                    assert list(f.cycle.coeffs.items()) == want and f.offset == offset
                    assert rng.getstate() == ref.getstate()


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
