"""Each exact kernel against its one reference in oracles.py, one check per
kernel, run by test_differential.py on every corpus entry of the kinds it
takes: a ring, a pair or triple of rings, a morphism or a model.  The layer
test files run ``same_correspondence`` and ``same_action_map`` on their
named witnesses, ``spy`` to count calls and ``forget`` to drop what a
cached target keeps.  Cycles, action maps, Kunneth rows and
tables built by key compare entry by entry in order, with their types;
sparse operators, pullbacks and pushforwards (whose reference sums cycle by
cycle) compare as mappings.  Every value a kernel returns is an int, or a
Fraction only where it is not integral.
"""

import random
from fractions import Fraction

import chowkit
from chowkit.correspondences import _action_map, action_columns
from chowkit.linalg import rank
from chowkit.rings import _Kept
from chowkit.sampling import random_correspondence

import corpus
import oracles
from corpus import GR24, P1, P2, correspondences, fibered_cycles, variants
from oracles import canonical, typed


def entries(cycle):
    """A cycle's entries in order, with their types; each must be canonical."""
    assert canonical(cycle.coeffs.values()), cycle
    return oracles.entries(cycle)


def operator(columns):
    """A sparse operator as a mapping, each entry with its type; canonical."""
    assert canonical(v for col in columns.values() for v in col.values())
    return dict(typed(columns))


def matrix_entries(m):
    """A dense matrix's entries with their types; each must be canonical."""
    assert canonical(v for row in m for v in row)
    return [[(v, type(v)) for v in row] for row in m]


def projector_rank(action, k):
    """Total rank of the degree-k projector over all codims of an action window."""
    return sum(r for (k_, _), r in action.table["ranks"].items() if k_ == k)


def cycles(rng, ring):
    """Integer, rational, unit, zero and basis cycles of ring."""
    x, unit = chowkit.random_cycle(rng, ring, bound=3), ring.unit()
    return [x, x * Fraction(1, 2), chowkit.random_cycle(rng, ring, bound=1), unit, unit * 2, ring.zero(),
            *(ring.basis_cycle(c) for c in ring.cells)]


# -- kept state and spies ------------------------------------------------------


def forget(monkeypatch, owner):
    """Drop, for one test, every value owner keeps: what rings._kept holds on
    it and each of its _Kept fields.  Each is built again on its next read,
    and monkeypatch restores the kept ones after the test, so a cached
    catalog target leaves the test with what it came in with."""
    monkeypatch.setattr(owner, "_kept", {})
    for name, value in list(vars(owner).items()):
        if isinstance(value, _Kept):
            monkeypatch.setattr(owner, name, _Kept(value._fill))


def spy(monkeypatch, owner, name, calls=None):
    """Wrap owner.name, a function or a method, so that each call first
    appends its positional arguments, as a tuple, to calls; returns calls,
    a new list unless one is given, so that one list can count a function
    through each module that binds it."""
    calls = [] if calls is None else calls
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


# -- rings ---------------------------------------------------------------------


def check_multiply(ring, rng):
    xs = cycles(rng, ring)
    for a in xs:
        for b in xs:
            assert entries(ring.multiply(a, b)) == entries(oracles.multiply(ring, a, b))


def check_kunneth_row(ring, rng):
    for key in ring.basis_keys():
        assert typed(ring._table[key]) == typed(oracles.kunneth_row(ring, key)), key


def check_random_cycle(ring, rng):
    """random_cycle, and random_correspondence into P^1, P^2 and Gr(2,4),
    draw as the randint reference from three seeds, down to the generator
    state after; the bounds straddle the powers of two 32 and 64."""
    for seed in [rng.random() for _ in range(3)]:
        draw, ref = random.Random(seed), random.Random(seed)
        for codim in (None, -1, ring.dimension + 1, *range(ring.dimension + 1)):
            for bound in (0, 1, 3, 10, 15, 16, 31, 32):
                got = chowkit.random_cycle(draw, ring, bound, codim=codim)
                assert entries(got) == entries(oracles.random_cycle(ref, ring, bound, codim))
                assert draw.getstate() == ref.getstate()
        for target in (P1, P2, GR24):
            for offset in range(-ring.dimension - 1, target.dimension + 2):
                f = random_correspondence(draw, ring, target, offset)
                want = oracles.random_cycle(ref, chowkit.kunneth_product(ring, target), 10, ring.dimension + offset)
                assert entries(f.cycle) == entries(want) and f.offset == offset
                assert draw.getstate() == ref.getstate()


def check_rank(ring, rng):
    matrices = [ring.pairing_matrix(p) for p in range(ring.dimension + 1)]
    fs = correspondences(rng, ring, ring)
    matrices += [chowkit.action_matrix(f, p) for f in fs for p in range(ring.dimension + 1)]
    # a last row that a rational combination of the others makes dependent
    matrices += [(*m, tuple(Fraction(2, 3) * x + Fraction(3, 2) * y for x, y in zip(m[0], m[-1])))
                 for m in matrices if m]
    for m in matrices:
        assert rank(m) == oracles.rank(m), m


# -- correspondences ---------------------------------------------------------------


def same_correspondence(got, want):
    """A kernel's correspondence against the reference's: the same class,
    rings and degree, the same entries in order, and nothing kept."""
    assert type(got) is chowkit.Correspondence and got._kept == {}
    assert (got.source, got.target, got.offset) == (want.source, want.target, want.offset)
    assert got.ring is want.ring and got.cycle.ring is want.cycle.ring
    assert entries(got.cycle) == entries(want.cycle)


def same_action_map(f):
    assert typed(_action_map(f)) == typed(oracles.action_map(f))


def same_act(source, target, rng):
    """act and _action_map of every correspondence variant source -> target."""
    xs = cycles(rng, source)
    for f in correspondences(rng, source, target):
        same_action_map(f)
        for x in xs:
            assert entries(chowkit.act(f, x)) == entries(oracles.act(f, x))


def same_action_matrix(source, target, rng):
    """action_matrix of every correspondence variant source -> target, at
    every codim and one out of range on each side."""
    for f in correspondences(rng, source, target):
        for p in range(-1, source.dimension + 2):
            assert matrix_entries(chowkit.action_matrix(f, p)) == matrix_entries(oracles.action_matrix(f, p))


def same_columns(ring, rng):
    """action_columns of degree-0 self-correspondences of ring (random ones,
    the cell projectors and the diagonal) and their rational multiples, and
    the action map of those and of the multiplication correspondences of
    the basis cycles, each transposed too."""
    fs = variants(rng, ring, ring, 0) + chowkit.fiber_projectors(ring) + [chowkit.diagonal(ring)]
    fs += [f * Fraction(2, 3) for f in fs]
    for f in fs:
        assert typed(action_columns(f)) == typed(oracles.action_columns(f))
        operator(action_columns(f))
    for f in fs + [chowkit.multiplication_correspondence(ring, ring.basis_cycle(c)) for c in ring.cells]:
        same_action_map(f)
        same_action_map(chowkit.transpose(f))


def composable(rng, source, middle, target):
    """Every pair (f, g) of variants source -> middle -> target, at two
    random pairs of offsets."""
    out = []
    for _ in range(2):
        fs = variants(rng, source, middle, rng.randint(-source.dimension, middle.dimension))
        gs = variants(rng, middle, target, rng.randint(-middle.dimension, target.dimension))
        out += [(f, g) for f in fs for g in gs]
    return out


def same_compose(source, middle, rng):
    """compose of every composable pair of variants source -> middle ->
    target, for each target of corpus.COMPOSED."""
    for target in corpus.COMPOSED:
        for f, g in composable(rng, source, middle, target):
            got, want = chowkit.compose(g, f), oracles.compose(g, f)
            assert got.offset == want.offset and entries(got.cycle) == entries(want.cycle)


def same_compose_oracle(source, middle, target, rng):
    """compose_oracle of every composable pair of variants against the
    nested triple-product route, and against compose, as the battery holds
    it."""
    for f, g in composable(rng, source, middle, target):
        got = chowkit.compose_oracle(g, f)
        assert entries(got) == entries(oracles.compose_oracle(g, f))
        assert got == chowkit.compose(g, f).cycle


def same_from_action(source, target, rng):
    """correspondence_from_action source -> target: of random actions at
    every offset, integral and rational, about a third of the images zero,
    each given as a callable and as a mapping; of the empty mapping, of the
    zero action at an offset out of range and, on a ring and itself, of the
    identity."""
    cases = [({}, 0), (lambda cell: target.zero(), target.dimension + 2)]
    if source is target:
        cases.append((source.basis_cycle, 0))
    for offset in range(-source.dimension, target.dimension + 1):
        for rational in (False, True):
            images = {}
            for c in source.cells:
                if rng.random() < 2 / 3:
                    image = chowkit.random_cycle(rng, target, 3, codim=c.codim + offset)
                    images[c.key] = image * Fraction(rng.randint(1, 3), rng.randint(2, 4)) if rational else image
            cases += [(images, offset), (lambda cell, t=images: t.get(cell.key, target.zero()), offset)]
    for action, offset in cases:
        same_correspondence(chowkit.correspondence_from_action(source, target, action, offset),
                            oracles.from_action(source, target, action, offset))


def check_multiplication_correspondence(ring, rng):
    unit, top = ring.unit(), ring.basis_cycle(ring.point_cell)
    alphas = [unit, ring.zero(), top, unit * 3, unit * Fraction(-2, 5)]
    alphas += [ring.basis_cycle(c) * s for c in ring.cells for s in (1, Fraction(1, 3))]
    # inhomogeneous multipliers, integral and rational
    alphas += [unit + top, (unit - top) * Fraction(3, 2), chowkit.random_cycle(rng, ring, 3)]
    for p in range(ring.dimension + 1):
        x = chowkit.random_cycle(rng, ring, 4, codim=p)
        # coefficients of -1, 0 and 1, so products cancel
        alphas += [x, x * Fraction(1, 6), *(chowkit.random_cycle(rng, ring, 1, codim=p) for _ in range(10))]
    for alpha in alphas:
        same_correspondence(chowkit.multiplication_correspondence(ring, alpha),
                            oracles.multiplication_correspondence(ring, alpha))


# -- morphism tables ---------------------------------------------------------------


def check_pullback_and_pushforward(m, rng):
    for ring, other, table, extend in ((m.target, m.source, m._pull, m.pullback),
                                       (m.source, m.target, m._push, m.pushforward)):
        for x in cycles(rng, ring):
            assert sorted(entries(extend(x))) == sorted(entries(oracles.extend(table, other, x))), x


def same_tables(m, pull, push):
    """m's pullback and pushforward of each basis cycle against reference
    tables {cell key: cycle}, a missing key being zero."""
    for ring, other, extend, table in ((m.target, m.source, m.pullback, pull),
                                       (m.source, m.target, m.pushforward, push)):
        for c in ring.cells:
            assert entries(extend(ring.basis_cycle(c))) == entries(table.get(c.key, other.zero())), c.label


def check_projection_morphism(ring, rng):
    """Both projections, against reference tables that pass the checks of
    the public constructor."""
    for factor in ("left", "right"):
        pr, (pull, push) = chowkit.projection_morphism(ring, factor), oracles.projection_tables(ring, factor)
        same_tables(pr, pull, push)
        chowkit.MorphismData(ring, pr.target, pull, push, name=pr.name)


def check_product_morphism(m, rng):
    """m times every corpus morphism, as a morphism of the Kunneth products
    of the factors' sources and targets."""
    for m2 in corpus.ENTRIES["morphism"].values():
        pm = chowkit.product_morphism(m, m2)
        assert pm.source is chowkit.kunneth_product(m.source, m2.source)
        assert pm.target is chowkit.kunneth_product(m.target, m2.target)
        same_tables(pm, *oracles.product_tables(m, m2))


# -- fibration models ----------------------------------------------------------------


def same_sweep(model, ys):
    family = chowkit.build_projector_family(model)
    for y in ys:
        got, want = family.apply_all_with_coefficients(y), oracles.sweep(model, y)
        assert [(g, entries(a)) for g, a in got.items()] == [(g, entries(a)) for g, a in want.items()], y


def check_sweep(model, rng):
    same_sweep(model, fibered_cycles(rng, model))


def same_operators(got, want):
    """Two {name: sparse matrix} maps, names in the same order."""
    assert list(got) == list(want)
    assert {k: operator(m) for k, m in got.items()} == {k: operator(m) for k, m in want.items()}


def check_placed_operators(model, rng):
    # the projectors rho_g and the motive pieces
    rho = chowkit.build_projector_family(model).projectors()
    same_operators(rho, oracles.placed(model, {g: [(g, None)] for g in rho}))
    pieces = chowkit.decompose_model(model).pieces
    slots = [(g, p) for g in model.generators for p in chowkit.fiber_projectors(model.base)]
    maps = {label: [slot] for (label, _, _), slot in zip(pieces, slots, strict=True)}
    same_operators({label: m for label, _, m in pieces}, oracles.placed(model, maps))


def check_lifted_blocks(model, rng):
    same_operators(chowkit.lifted_blocks(model), oracles.lifted_blocks(model))


def check_lift_ck(model, rng):
    ck = chowkit.lift_ck(model)
    same_operators(ck.projectors, oracles.lifted_projectors(model))
    assert chowkit.verify_ck(ck).passed


def check_kron_sides(model, rng):
    """The Kronecker products of the motive isomorphism's right-hand sides
    against the product ring's own actions."""
    assert oracles.kron_sides(model) == oracles.isomorphism_sides(model)
