"""Composition identities between correspondences, multiplication operators
and morphism graphs, checked exactly on seeded random data.

Composing with a multiplication operator is multiplication of the
underlying cycle by an external factor; composing with a morphism graph is
pullback or pushforward of the underlying cycle along a product morphism.
run_identity_battery checks all six shapes of this statement, plus graph
functoriality over an ambient factor and associativity of composition.
compose_oracle recomputes a composition the long way round, on the triple
product, and the oracle battery plays it against the direct contraction and
against matrix composition.
"""

from __future__ import annotations

from .correspondences import (
    _action_map,
    _table_mismatches,
    compose,
    diagonal,
    graph_from_morphism,
    identity_morphism,
    multiplication_correspondence,
    MorphismData,
    product_morphism,
    tensor,
)
from .linalg import after
from .report import Report
from .rings import _cycle, _kept, external_product, kunneth_product
from .sampling import _randint, random_correspondence, random_cycle, seeded_rng


def collapse_morphism():
    """The plane collapsed onto a line through a point: the pullback kills
    the hyperplane class, the pushforward keeps only the point class."""
    from .catalog import projective_space

    p1, p2 = projective_space(1), projective_space(2)
    pull = {"1": p2.unit(), "h": p2.zero()}
    push = {"1": p1.zero(), "h": p1.zero(), "h^2": p1.basis_cycle((1, 1))}
    return MorphismData(p2, p1, pull, push, name="P^2 -> P^1 collapse")


def standard_morphisms():
    """Validated morphism data over the pair (P^1, P^2): identities,
    product projections, constants, a linear embedding and a collapse."""
    from .catalog import linear_embedding, point, projective_space
    from .correspondences import constant_morphism, projection_morphism

    p1, p2 = projective_space(1), projective_space(2)
    prod = kunneth_product(p1, p2)
    return (
        identity_morphism(p1),
        identity_morphism(p2),
        projection_morphism(prod, "left"),
        projection_morphism(prod, "right"),
        constant_morphism(p1, point()),
        constant_morphism(p2, point()),
        linear_embedding(1, 2),
        collapse_morphism(),
    )


def _random_offset(rng, source, target):
    return _randint(rng, -source.dimension, target.dimension)


def _product_morphisms(rings):
    """product(a, b) = product_morphism(a, b), a ring of ``rings`` standing for
    its identity; one identity per ring and one product per pair."""
    ids, products = {}, {}
    for ring in rings:
        ids[ring] = ids.get(ring) or identity_morphism(ring)

    def product(a, b):
        if (a, b) not in products:
            products[a, b] = product_morphism(ids.get(a, a), ids.get(b, b))
        return products[a, b]

    return product


def run_identity_battery(left=None, right=None, samples=100, seed=0):
    """Check the six composition identities, graph functoriality over an
    ambient line, and associativity; every instance is an exact cycle
    comparison."""
    from .catalog import projective_space

    X = left if left is not None else projective_space(1)
    Z = right if right is not None else projective_space(2)
    rng = seeded_rng(seed)
    report = Report("identity-battery", f"composition identities over ({X.name}, {Z.name})")

    morphisms = standard_morphisms()
    into_Z = [m for m in morphisms if m.target is Z]
    from_Z = [m for m in morphisms if m.source is Z]
    into_X = [m for m in morphisms if m.target is X]
    graphs = {m.name: graph_from_morphism(m) for m in morphisms}
    product = _product_morphisms((X, Z, projective_space(1)))

    # label, the ring alpha lives on, and whether c_alpha acts first
    for label, ring, first in (
        ("c_alpha o phi = (1 x alpha) . phi", Z, False),
        ("psi o c_alpha = (alpha x 1) . psi", X, True),
    ):
        fails = []
        for s in range(samples):
            alpha = random_cycle(rng, ring, codim=_randint(rng, 0, ring.dimension))
            phi = random_correspondence(rng, X, Z, offset=_random_offset(rng, X, Z))
            c = multiplication_correspondence(ring, alpha)
            factor = external_product(alpha, Z.unit()) if first else external_product(X.unit(), alpha)
            if (compose(phi, c) if first else compose(c, phi)).cycle != factor * phi.cycle:
                fails.append(f"sample {s}: alpha {alpha!r}")
        report.add(label, fails, samples)

    # graphs: label, morphism pool, graph (0) or its transpose (1), whether
    # the graph acts first, and the product morphism's map; phi starts where
    # the graph ends when the graph acts first, at X otherwise
    for label, pool, transpose, first, direction in (
        ("c(f) o phi = (id x f)^* phi", into_Z, 0, False, "pullback"),
        ("c(g)^t o phi = (id x g)_* phi", from_Z, 1, False, "pushforward"),
        ("tau o c(f) = (f x id)_* tau", into_X, 0, True, "pushforward"),
        ("psi o c(f)^t = (f x id)^* psi", into_X, 1, True, "pullback"),
    ):
        count = samples if pool else 0  # no morphism to draw: a skipped check
        fails = []
        for s in range(count):
            f = pool[s % len(pool)]
            c = graphs[f.name][transpose]
            start = c.target if first else X
            phi = random_correspondence(rng, start, Z, offset=_random_offset(rng, start, Z))
            got = compose(phi, c) if first else compose(c, phi)
            pm = product(f, Z) if first else product(X, f)
            if got.cycle != getattr(pm, direction)(phi.cycle):
                fails.append(f"sample {s}: morphism {f.name}")
        report.add(label, fails, count)

    _graph_functoriality(report, morphisms, graphs, product)
    _associativity(report, rng, X, Z, samples)
    return report


def _graph_functoriality(report, morphisms, graphs, product):
    """Tensoring a graph with the diagonal of the line acts as the product
    morphism; graphs maps each morphism's name to its graph and transpose,
    and product(T, m) is product_morphism(id_T, m).  Each cell's column of
    the tensored graph's action is compared with the product's table."""
    from .catalog import projective_space

    T = projective_space(1)
    d = diagonal(T)
    fails = []
    count = 0
    for m in morphisms:
        c, c_t = graphs[m.name]
        pm = product(T, m)  # from T x m.source to T x m.target
        for what, graph, table, ring in (
            ("pullback", c, pm._pull, pm.target), ("pushforward", c_t, pm._push, pm.source)
        ):
            count += len(ring.cells)
            fails += [
                f"{what} of {cell.label} along id x {m.name}"
                for cell in _table_mismatches(tensor(d, graph), table, ring.cells)
            ]
    report.add("graphs extend over an ambient factor", fails, count)


def _associativity(report, rng, X, Z, samples):
    fails = []
    for s in range(samples):
        f = random_correspondence(rng, X, Z, offset=_random_offset(rng, X, Z))
        g = random_correspondence(rng, Z, X, offset=_random_offset(rng, Z, X))
        h = random_correspondence(rng, X, Z, offset=_random_offset(rng, X, Z))
        if compose(h, compose(g, f)) != compose(compose(h, g), f):
            fails.append(f"sample {s}")
    report.add("composition is associative", fails, samples)


# -- triple-product oracle ----------------------------------------------------


def compose_oracle(g, f):
    """Composition computed the long way round.

    Both cycles are pulled up to the triple product (A x B) x C, multiplied
    there, and the middle factor is integrated out; returns the resulting
    cycle on A x C.  The product is read term by term off the rows of the
    triple product's table, and only its terms on B's point class are kept,
    straight into the A x C coefficients.  The three key maps are read once
    per ring triple, from key pairs only, and kept on the triple product."""
    if f.target is not g.source:
        raise ValueError("composition mismatch: f must land where g starts")
    triple = kunneth_product(f.ring, g.target)
    up_f, up_g, down, AC = _kept(triple, _oracle_maps)
    table, lift_g = triple._table, [(up_g[k], c) for k, c in g.cycle.coeffs.items()]
    coeffs = {}
    for kf, cf in f.cycle.coeffs.items():
        row = table[up_f[kf]]
        for kg, cg in lift_g:
            entry = row.get(kg)
            if entry:
                scale = cf * cg
                for key, value in entry.items():
                    if key in down:
                        ac = down[key]
                        coeffs[ac] = coeffs.get(ac, 0) + scale * value
    return _cycle(AC, coeffs)


def _oracle_maps(triple):
    """compose_oracle's key maps on (A x B) x C, and A x C: f's lift {A x B
    key: key of (ab, 1_C)}, g's lift {B x C key: key of ((1_A, b), c)}, and
    the integral over B {key of ((a, point_B), c): A x C key}, which keeps
    the terms on B's point class, of degree 1."""
    AB, C = triple.left, triple.right
    A, B = AB.left, AB.right
    AC, ab, abc = kunneth_product(A, C), AB._pair_to_key, triple._pair_to_key
    up_f = {k: abc[(k, C.unit_cell.key)] for k in AB._key_to_pair}
    pairs = kunneth_product(B, C)._pair_to_key.items()
    up_g = {bc: abc[(ab[(A.unit_cell.key, b)], c)] for (b, c), bc in pairs}
    down = {abc[(ab[(a, B.point_cell.key)], c)]: ac for (a, c), ac in AC._pair_to_key.items()}
    return up_f, up_g, down, AC


def compose_oracle_battery(rings=None, samples=100, seed=0):
    """Direct contraction vs triple-product oracle vs matrix composition,
    on random degree-0 correspondences for every ordered ring pair."""
    from .catalog import grassmannian, projective_space

    if rings is None:
        rings = (projective_space(1), projective_space(2), grassmannian(2, 4))
    report = Report("identity-battery", "composition oracle")
    for na, A in enumerate(rings):
        for nb, B in enumerate(rings):
            rng = seeded_rng(seed * 997 + 31 * na + nb)
            fails = []
            for s in range(samples):
                f = random_correspondence(rng, A, B, offset=0)
                g = random_correspondence(rng, B, A, offset=0)
                comp = compose(g, f)
                if comp.cycle != compose_oracle(g, f):
                    fails.append(f"sample {s}: contraction differs from the oracle")
                    continue
                # the action of comp against g's after f's, column by column
                direct = _action_map(comp)
                chained = after(_action_map(g), _action_map(f))
                if direct != chained:
                    bad = [k for k in direct.keys() | chained.keys() if direct.get(k) != chained.get(k)]
                    fails.append(f"sample {s}: matrices differ on codim {min(bad)[0]}")
            report.add(f"{A.name} => {B.name} => {A.name}", fails, samples)
    return report
