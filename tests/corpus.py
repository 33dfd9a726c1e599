"""The rings, models, morphisms and corruptions the tests run on.

``ENTRIES`` names the entries of the differential test (test_differential.py)
by kind: rings, Kunneth products, ordered pairs and triples of rings,
models, broken models and morphisms.  ``CORRUPTIONS`` names the corrupted
models of the catch table (test_catch_table.py).  The other test files take their inputs from here
too, so each input is built by one function.

The rational entries: the doubled plane (h * h = 2 pt, so its middle dual
is h/2 and its duals, diagonal and projectors carry Fractions), its product
with P^1, and the morphism tables scaled by non-integral Fractions ("half",
"thirds" and the scaled identities), which validation would refuse.
"""

from fractions import Fraction
from pathlib import Path

from chowkit import (
    BasisCell,
    CKDecomposition,
    ChowRing,
    FibrationModel,
    ambient_extend,
    cellular_ck,
    grassmannian,
    hirzebruch,
    kunneth_product,
    lift_ck,
    point,
    product_model,
    product_morphism,
    projective_bundle_model,
    projective_space,
    resolve,
    trivial_fibration,
    zero_correspondence,
)
from chowkit.catalog import linear_embedding
from chowkit.correspondences import _morphism, identity_morphism
from chowkit.fibrations import ProjectorFamily, _product_table
from chowkit.fileio import dump_ring, load_ring, parse_ring
from chowkit.identities import standard_morphisms
from chowkit.linalg import matrix_sum
from chowkit.sampling import random_correspondence, random_cycle, random_fibered_cycle

# -- rings ----------------------------------------------------------------------


def standard_rings():
    """The rings every pairing check runs over."""
    return [projective_space(p) for p in range(5)] + [grassmannian(2, 4), grassmannian(2, 5)]


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


def doubled_plane():
    """A surface whose middle pairing is 2, so its middle dual is h/2."""
    cells = [BasisCell(0, 1, "1"), BasisCell(1, 1, "h"), BasisCell(2, 1, "pt")]
    return ChowRing(2, cells, {((1, 1), (1, 1)): {(2, 1): 2}}, name="doubled")


REBASED = rebased_gr24()
DOUBLED = doubled_plane()
# the same plane as the CLI goldens read it, named "doubled plane"
DOUBLED_PLANE = load_ring(Path(__file__).parent / "data" / "doubled_plane.json")

def degenerate_surface_doc():
    """The ring document of a surface with e * e = 0: associative and
    graded, but with a zero middle pairing."""
    return {
        "dimension": 2,
        "cells": [
            {"codim": 0, "index": 1, "label": "1"},
            {"codim": 1, "index": 1, "label": "e"},
            {"codim": 2, "index": 1, "label": "f"},
        ],
        "products": [],
    }


def degenerate_surface():
    return parse_ring(degenerate_surface_doc(), name="degenerate")


# -- models ---------------------------------------------------------------------


def standard_models():
    """The fibration models the theorem suites quantify over."""
    fibers = [projective_space(1), projective_space(2), grassmannian(2, 4)]
    models = [product_model(projective_space(m), fiber) for m in range(3) for fiber in fibers]
    return models + [hirzebruch(a) for a in (0, 1, 2)] + [resolve("pbundle:p2:h")]


def bundle_over_gr24():
    gr = grassmannian(2, 4)
    chern = [gr.cycle({"s[1]": 2}), gr.cycle({"s[2]": -1, "s[1,1]": 1}), gr.cycle({"s[2,1]": 1})]
    return projective_bundle_model(gr, chern, rank=3, name="rank-3 bundle over Gr(2,4)")


UNIT, A, B, C = (0, 1), (1, 1), (2, 1), (3, 1)  # generators of a P^3 fiber


def unpeeled():
    """T_a T_b = 0 leaves T_a and T_b unpeeled, and T_b T_b = pi^*(h) T_c and
    T_a T_c = pi^*(h) T_c carry them into later pushforwards, where a term can
    vanish, cancel another, or land on a generator the residual lacks."""
    p2 = projective_space(2)
    h = p2.cycle({"h": 1})
    table = {(A, B): {}, (B, B): {C: h}, (A, C): {C: h}}
    return FibrationModel(p2, projective_space(3), table, name="unpeeled")


def flat_square():
    # u*u = 0 kills the unit top coefficient the complementary pair needs
    p1, p2 = projective_space(1), projective_space(2)
    return FibrationModel(p1, p2, {((1, 1), (1, 1)): {}}, name="flat square")


def nonassociative():
    p2 = projective_space(2)
    table = {
        ((1, 1), (1, 1)): {(2, 1): p2.unit()},
        ((1, 1), (2, 1)): {(1, 1): p2.cycle({"h^2": 1})},
        ((2, 1), (2, 1)): {},
    }
    return FibrationModel(p2, projective_space(2), table, name="nonassociative")


def collapsed_products():
    # every product of non-unit generators lands on the unit generator: more
    # failure details than any other kind would print
    p1 = projective_space(1)
    table = {((a, 1), (b, 1)): {(0, 1): p1.unit()} for a in range(1, 5) for b in range(a, 5)}
    return FibrationModel(p1, projective_space(4), table, name="collapsed products")


def module_basis(model, p=None):
    """The basis cycles pi^*(x) * T_g of a model, all or those of codim p,
    in the order of its basis_keys."""
    return [model.cycle({g: model.base.basis_cycle(k)}) for g, k in model.basis_keys(p)]


def fibered_cycles(rng, model):
    """Every module basis element, then seeded integer, homogeneous,
    rational and mixed cycles, and one whose parts cancel in the sweep."""
    base = model.base
    ys = module_basis(model) + [random_fibered_cycle(rng, model, bound=5) for _ in range(2)]
    ys.append(random_fibered_cycle(rng, model, bound=5, codim=model.dimension // 2))
    for scale in (Fraction(1, rng.randint(1, 6)), Fraction(1, 3)):
        ys.append(model.cycle({g: random_cycle(rng, base, 5) * scale for g in model.generators}))
    ys.append(model.cycle({g: random_cycle(rng, base, 5) * (Fraction(1, 2), 1)[n % 2]
                           for n, g in enumerate(model.generators)}))
    # two parts whose products into the same alpha are opposite
    return ys + [model.cycle({g: base.unit() * (-1) ** n for n, g in enumerate(model.generators)})]


def fresh_hirzebruch():
    """hirzebruch(1) over a private P^1, with no table or family built yet."""
    p1 = parse_ring(dump_ring(projective_space(1)))
    return projective_bundle_model(p1, [p1.cycle({"h": 1})], name="fresh hirzebruch(1)")


# the models whose sweep is checked for independence of the model product;
# the first three pass every law
INDEPENDENCE_MODELS = [
    hirzebruch(1),
    ambient_extend(hirzebruch(2), projective_space(1)),
    bundle_over_gr24(),
    flat_square(),
    nonassociative(),
    unpeeled(),
]

# -- morphisms ------------------------------------------------------------------


def scaled_identity(ring, s, name=None):
    table = {k: {k: s} for k in ring.basis_keys()}
    return _morphism(ring, ring, table, table, name or f"{s} id_{ring.name}")


def thirds():
    """The line in the plane with its unit's pushforward scaled by 2/3."""
    emb = linear_embedding(1, 2)
    push = {**emb._push, (0, 1): {k: v * Fraction(2, 3) for k, v in emb._push[0, 1].items()}}
    return _morphism(emb.source, emb.target, emb._pull, push, "thirds")


def morphisms():
    """Validated morphisms, a product of two, and rational tables whose
    products meet integral Fractions such as 2/3 * 3/2."""
    p1, p2 = projective_space(1), projective_space(2)
    return [
        *standard_morphisms(),
        linear_embedding(1, 3),
        product_morphism(identity_morphism(p1), linear_embedding(1, 2)),
        scaled_identity(p2, Fraction(1, 2), "half"),
        thirds(),
        scaled_identity(p1, Fraction(2, 3)),
        scaled_identity(p2, Fraction(3, 2)),
    ]


def variants(rng, source, target, offset):
    """A random correspondence of one offset, a sparse one likely to cancel,
    the sparse one's half and the zero correspondence."""
    f = random_correspondence(rng, source, target, offset, bound=4)
    sparse = random_correspondence(rng, source, target, offset, bound=1)
    return [f, sparse, sparse * Fraction(1, 2), zero_correspondence(source, target, offset)]


def correspondences(rng, source, target):
    """The variants of every offset from source to target."""
    return [f for offset in range(-source.dimension, target.dimension + 1)
            for f in variants(rng, source, target, offset)]


# -- the differential test's entries ---------------------------------------------

P1, P2, GR24 = projective_space(1), projective_space(2), grassmannian(2, 4)
# every ordered pair of these rings is a pair entry: P^1 x P^1 has a
# permutation middle pairing, the doubled plane a middle pairing of 2
PAIRED = (
    point(), P1, P2, GR24, REBASED, DOUBLED,
    kunneth_product(P1, P1), kunneth_product(P1, P2), kunneth_product(DOUBLED, P1),
)
# larger rings, each paired with itself and with P^1 either way; the middle
# duals of Gr(2,4)' x P^1 have two terms each
SINGLE = (
    projective_space(3), projective_space(4), grassmannian(2, 5), grassmannian(2, 6),
    kunneth_product(REBASED, P1),
)
# compose composes each pair entry into each of these rings
COMPOSED = (point(), P1, P2, GR24, kunneth_product(P1, P1), DOUBLED)
# every ordered triple of these rings is a triple entry
TRIPLED = (point(), P1, P2, GR24)
# the shape A => B => A of the oracle battery, over these rings
BATTERY = (P1, P2, GR24, kunneth_product(P1, P1))


def pairs():
    """(source, target) of every correspondence kernel that takes two rings,
    and (source, middle) of compose."""
    out = [(a, b) for a in PAIRED for b in PAIRED]
    return out + [pair for r in SINGLE for pair in ((r, r), (r, P1), (P1, r))]


def triples():
    """(source, middle, target) of compose_oracle: every triple of TRIPLED,
    A => B => A over BATTERY, and each ring through P^1 or itself into P^1
    or the doubled plane."""
    out = [(a, b, c) for a in TRIPLED for b in TRIPLED for c in TRIPLED]
    out += [(a, b, a) for a in BATTERY for b in BATTERY]
    return out + [(r, m, t) for r in PAIRED + SINGLE for m in (P1, r) for t in (P1, DOUBLED)]


def models():
    """The models every model kernel runs on: the standard ones, the
    rank-3 bundle, hirzebruch(3), the doubled plane times P^1, and
    hirzebruch(1) and (2) times P^1."""
    extended = [ambient_extend(hirzebruch(a), P1) for a in (1, 2)]
    return standard_models() + [bundle_over_gr24(), hirzebruch(3), trivial_fibration(DOUBLED, P1), *extended]


def extended_models():
    """The other extensions of the standard models by a point, P^1 and P^2,
    which the sweep runs on too."""
    taken = {m.name for m in models()}
    extended = [ambient_extend(m, projective_space(n)) for m in standard_models() for n in (0, 1, 2)]
    return [m for m in extended if m.name not in taken]


ENTRIES = {
    "ring": {ring.name: ring for ring in PAIRED + SINGLE},
    "product": {ring.name: ring for ring in (
        kunneth_product(P1, P2),
        kunneth_product(point(), P2),
        kunneth_product(point(), projective_space(3)),
        kunneth_product(GR24, P1),
        # Gr(2,4) holds an explicit empty entry, sigma_{1,1} * sigma_2 = 0
        kunneth_product(P2, GR24),
        kunneth_product(kunneth_product(P1, P2), P1),
        kunneth_product(DOUBLED, P1),
        kunneth_product(degenerate_surface(), P1),
    )},
    "pair": {f"{a.name} -> {b.name}": (a, b) for a, b in pairs()},
    "triple": {f"{a.name} => {b.name} => {c.name}": (a, b, c) for a, b, c in triples()},
    "model": {model.name: model for model in models()},
    "extended model": {model.name: model for model in extended_models()},
    "broken model": {model.name: model for model in INDEPENDENCE_MODELS[3:]},
    "morphism": {m.name: m for m in morphisms()},
}

# -- corruptions: the catch table's rows ------------------------------------------


def identity_added_to_block_00(mp, model):
    """Patch the operator builder so that the lifted block (0, 0) of model
    comes back with the identity added; the model keeps its blocks, so they
    are dropped for the run and restored after."""
    from checks import forget  # checks imports this module

    build = ProjectorFamily.placed_operators

    def perturbed(family, maps):
        ops = build(family, maps)
        if (0, 0) in ops:
            ident = {b: {b: 1} for b in family.model.basis_keys()}
            ops[0, 0] = matrix_sum(((1, ops[0, 0]), (1, ident)))
        return ops

    forget(mp, model)
    mp.setattr(ProjectorFamily, "placed_operators", perturbed)


def doubled_top(family, out):
    """A linear sweep: the top generator's coefficient comes back doubled."""
    top = family.order[0]
    return {g: 2 * a if g == top else a for g, a in out.items()}


def leaked_top(family, out):
    """A linear sweep: the top generator's coefficient is copied onto the
    unit generator, which moves its codim."""
    top, unit = family.order[0], family.order[-1]
    if top not in out:
        return out
    leaked = dict(out)
    total = leaked.get(unit, family.model.base.zero()) + out[top]
    leaked.pop(unit, None)
    if not total.is_zero():
        leaked[unit] = total
    return leaked


def dropped_unit(family, out):
    """A linear sweep: the unit generator's coefficient is lost."""
    return {g: a for g, a in out.items() if g != family.order[-1]}


def perturbed_sweep(model, perturb):
    def build(mp):
        sweep = ProjectorFamily.apply_all_with_coefficients
        mp.setattr(
            ProjectorFamily,
            "apply_all_with_coefficients",
            lambda fam, y: perturb(fam, sweep(fam, y)),
        )
        return model

    return build


def perturbed_pi2():
    """The lifted CK of hirzebruch(1), one entry of Pi_2 raised by one."""
    model = hirzebruch(1)
    ck = lift_ck(model)
    cols = ck.projectors[2]
    col = cols[next(b for b in model.basis_keys(1) if b in cols)]
    col[next(iter(col))] += 1
    return ck


def off_codim_image():
    """The lifted CK of hirzebruch(1), Pi_0 sending its codim-0 basis element
    into codim 1 as well."""
    model = hirzebruch(1)
    ck = lift_ck(model)
    (b,) = model.basis_keys(0)
    ck.projectors[0][b][model.basis_keys(1)[0]] = 1
    return ck


def block_00_plus_identity(mp):
    model = hirzebruch(1)
    identity_added_to_block_00(mp, model)
    return model


def rho_column_doubled(mp):
    """hirzebruch(1), with ProjectorFamily.projectors handing out rho of the
    top generator with its first column doubled."""
    projectors = ProjectorFamily.projectors

    def doubled(family):
        rho = projectors(family)
        top = rho[family.order[0]]
        b = next(iter(top))
        top[b] = {r: 2 * c for r, c in top[b].items()}
        return rho

    mp.setattr(ProjectorFamily, "projectors", doubled)
    return hirzebruch(1)


def piece_scaled(scale):
    """A row: hirzebruch(1), with the operator builder handing out its motive
    piece (T[h], 1) times scale."""
    def build(mp):
        placed = ProjectorFamily.placed_operators

        def scaled(family, maps):
            ops = placed(family, maps)
            if "(T[h], 1)" in ops:
                ops["(T[h], 1)"] = matrix_sum(((scale, ops["(T[h], 1)"]),))
            return ops

        mp.setattr(ProjectorFamily, "placed_operators", scaled)
        return hirzebruch(1)

    return build


def leaked_operator(mp):
    """hirzebruch(1), with the operator builder leaking, in every system it
    hands out (rho, the lifted blocks, the motive pieces), the first column
    of the first operator into the first image key of the last operator, a
    key of another codim.  The model keeps its blocks, so they are dropped
    for the run and restored after."""
    from checks import forget  # checks imports this module

    placed = ProjectorFamily.placed_operators

    def leaked(family, maps):
        ops = placed(family, maps)
        first, last = ops[next(iter(ops))], ops[list(ops)[-1]]
        b = next(iter(first))
        first[b] = {**first[b], next(iter(last)): 1}
        return ops

    model = hirzebruch(1)
    forget(mp, model)
    mp.setattr(ProjectorFamily, "placed_operators", leaked)
    return model


def off_diagonal_top():
    """P^1 x Gr(2,4) whose one fault is top component 1 on T_(2,1) * T_(2,2):
    a pair of complementary fiber codims that are not duals, which exists
    only when a fiber codim has two cells."""
    p1, gr = projective_space(1), grassmannian(2, 4)
    table = _product_table(p1, gr)
    table[(2, 1), (2, 2)] = {(4, 1): p1.unit()}
    return FibrationModel(p1, gr, table, name="off-diagonal top component")


def shifted_ck():
    """The cellular CK of P^2 with pi_1 := pi_2 and pi_2 := 0: still a
    complete system of orthogonal idempotents inside the action window, but
    pi_1 acts on CH^1, which no odd projector does on a cellular space."""
    p2 = projective_space(2)
    projectors = dict(cellular_ck(p2).projectors)
    projectors[1], projectors[2] = projectors[2], zero_correspondence(p2, p2, 0)
    return CKDecomposition(p2, projectors, name="shifted CK of P^2")


def flag_bundle_c1_flipped():
    """Fl(1,2;4) = P(Q^*) over P^3 has c(Q^*) = 1 - h + h^2 - h^3; this is the
    bundle with c_1 = +h instead: a different, lawful model."""
    p3 = projective_space(3)
    chern = [{"h": 1}, {"h^2": 1}, {"h^3": -1}]
    return projective_bundle_model(p3, chern, rank=3, name="flag bundle over P^3, c_1 flipped")


# {row name: build(monkeypatch) -> the corrupted model}
CORRUPTIONS = {
    "flat square": lambda mp: flat_square(),
    "collapsed products": lambda mp: collapsed_products(),
    "nonassociative": lambda mp: nonassociative(),
    **{
        f"{perturb.__name__} on {model.name}": perturbed_sweep(model, perturb)
        for model in INDEPENDENCE_MODELS[:3]
        for perturb in (doubled_top, leaked_top, dropped_unit)
    },
    "block (0, 0) plus identity": block_00_plus_identity,
    "rho column doubled": rho_column_doubled,
    "piece (T[h], 1) doubled": piece_scaled(2),
    "piece (T[h], 1) zeroed": piece_scaled(0),
    "first operator leaked": leaked_operator,
    "off-diagonal top component": lambda mp: off_diagonal_top(),
    "doubled-plane fiber": lambda mp: trivial_fibration(P1, DOUBLED, name="doubled-plane fiber"),
}
