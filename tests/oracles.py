"""One naive reference per kernel, each written cell by cell.

Each reference is the route its kernel replaced, or the definition the
kernel computes, built from public cycles, products and pair_degree rather
than from the kernel's plans, kept rows or key maps: the one table read is
a plain ring's, as given; a Kunneth ring's rows, which the kernel builds on
first read, are rebuilt from its factors' (``table_row``).  checks.py plays
every kernel against its reference, on each corpus entry of its kind in
test_differential.py, and on the named witnesses of the layer test files.
Unless a docstring says otherwise, a reference gives its entries in the
kernel's order, each an int or a Fraction as the kernel's arithmetic leaves
it.  One section keeps the routes three verifiers replaced, which their
tests compare the verifiers against.
"""

import random
from fractions import Fraction

from chowkit import (
    Correspondence,
    Cycle,
    KunnethRing,
    cellular_ck,
    compose as compose_kernel,
    diagonal,
    dual_basis_cycles,
    external_product,
    fiber_projectors,
    kunneth_product,
    tensor,
    zero_correspondence,
)
from chowkit import identities
from chowkit.correspondences import action_columns as action_columns_kernel
from chowkit.linalg import kron, matrix_sum
from chowkit.sampling import random_correspondence
from chowkit.schubert import fits_in_box


def exact(v):
    """v as a Cycle keeps it: an int when integral."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def canonical(values):
    """Every value an int, or a Fraction that is not integral."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1) for v in values)


def entries(cycle):
    """A cycle's coefficients in order, each with its type, as tests compare them."""
    return [(k, v, type(v)) for k, v in cycle.coeffs.items()]


def typed(columns):
    """A sparse matrix's columns in order, each entry with its type."""
    return [(k, [(r, v, type(v)) for r, v in col.items()]) for k, col in columns.items()]


# -- rings ---------------------------------------------------------------------


def table_row(ring, key):
    """Row key of ring's multiplication table: a plain ring's as it was
    given, a Kunneth ring's from its factors' by kunneth_row."""
    return kunneth_row(ring, key) if isinstance(ring, KunnethRing) else ring._table[key]


def multiply(ring, a, b):
    """ChowRing.multiply: every product of two terms read off the table."""
    coeffs = {}
    for k1, c1 in a.coeffs.items():
        row = table_row(ring, k1)
        for k2, c2 in b.coeffs.items():
            for key, value in row.get(k2, {}).items():
                coeffs[key] = coeffs.get(key, 0) + c1 * c2 * value
    return Cycle(ring, coeffs)


def kunneth_row(ring, key):
    """The table row of the Kunneth cell a x b: (a x b)(c x d) = (ac) x (bd),
    one pair of factor products, read as cycles off the factor rows of a and
    b, per pair of cells c, d; a pair with a zero side is left out."""
    a, b = ring._key_to_pair[key]
    left, right, pk = ring.left, ring.right, ring._pair_to_key
    left_row, right_row, row = table_row(left, a), table_row(right, b), {}
    for kc, ac in left_row.items():
        ac = Cycle(left, ac).coeffs
        for kd, bd in right_row.items():
            bd = Cycle(right, bd).coeffs
            if ac and bd:
                row[pk[kc, kd]] = {pk[k1, k2]: c1 * c2 for k1, c1 in ac.items() for k2, c2 in bd.items()}
    return row


def random_cycle(rng, ring, bound=10, codim=None):
    """random_cycle: one rng.randint(-bound, bound) per basis key, in order."""
    return Cycle(ring, {k: rng.randint(-bound, bound) for k in ring.basis_keys(codim)})


def rank(rows):
    """linalg.rank: Gauss-Jordan over Fraction with normalized pivots."""
    work = [[Fraction(x) for x in row] for row in rows if any(row)]
    r = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        work[r] = [x / work[r][col] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                work[i] = [x - work[i][col] * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def mat_mul(a, b):
    """The dense matrix product a b, row by column."""
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    cols = range(len(b[0])) if b else ()
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(len(b))) for j in cols) for row in a
    )


# -- correspondences -------------------------------------------------------------


def act(f, x):
    """act: each term c (a x b) of f adds c deg(x a) b, the degree summed by
    pair_degree over every term of x."""
    src, coeffs = f.source, {}
    for key, c in f.cycle.coeffs.items():
        a, b = f.ring._key_to_pair[key]
        d = sum(cx * src.pair_degree(kx, a) for kx, cx in x.coeffs.items())
        if d:
            coeffs[b] = coeffs.get(b, 0) + c * d
    return Cycle(f.target, coeffs)


def action_map(f, zeros=False):
    """_action_map: {source key: nonzero image}, walked term by term; a term
    c (a x b) sends each source cell k with d = deg(k a) nonzero to c d b.
    With zeros, an entry where terms cancelled stays, as 0."""
    src, columns = f.source, {}
    for key, c in f.cycle.coeffs.items():
        a, b = f.ring._key_to_pair[key]
        for cell in src.cells_of_codim(src.dimension - a[0]):
            if d := src.pair_degree(cell.key, a):
                col = columns.setdefault(cell.key, {})
                col[b] = col.get(b, 0) + c * d
    if zeros:
        return columns
    return {k: image for k, col in columns.items() if (image := {r: v for r, v in col.items() if v})}


def action_columns(f):
    """action_columns: the action map with each entry kept as a Cycle keeps it."""
    return {k: {r: exact(v) for r, v in col.items()} for k, col in action_map(f).items()}


def action_matrix(f, p):
    """action_matrix: column j the act reference on the j-th codim-p cell,
    read off cell by cell, zeros included; ints where integral."""
    images = [act(f, f.source.basis_cycle(c)) for c in f.source.cells_of_codim(p)]
    return tuple(tuple(y.coefficient(c) for y in images) for c in f.target.cells_of_codim(p + f.offset))


def compose(g, f):
    """g after f: each f-term c (a x b) against each g-term c' (b' x e) adds
    c c' deg(b b') (a x e), the degree read by the middle ring's pair_degree."""
    mid, ring, coeffs = f.target, kunneth_product(f.source, g.target), {}
    for kf, cf in f.cycle.coeffs.items():
        a, b = f.ring._key_to_pair[kf]
        for kg, cg in g.cycle.coeffs.items():
            b2, e = g.ring._key_to_pair[kg]
            if d := mid.pair_degree(b, b2):
                key = ring._pair_to_key[a, e]
                coeffs[key] = coeffs.get(key, 0) + cf * cg * d
    offset = None if f.offset is None or g.offset is None else f.offset + g.offset
    return Correspondence(f.source, g.target, Cycle(ring, coeffs), offset)


def compose_oracle(g, f):
    """compose_oracle: f and g lifted to the triple product (A x B) x C as
    cycles, multiplied there, and B integrated out: only the terms on B's
    point class survive, with degree 1."""
    A, B, C = f.source, f.target, g.target
    AB, AC = kunneth_product(A, B), kunneth_product(A, C)
    triple = kunneth_product(AB, C)
    lift_g = {}
    for key, coeff in g.cycle.coeffs.items():
        b, c = g.ring._key_to_pair[key]
        lift_g[triple._pair_to_key[AB._pair_to_key[A.unit_cell.key, b], c]] = coeff
    prod = external_product(f.cycle, C.unit()) * Cycle(triple, lift_g)
    coeffs = {}
    for key, coeff in prod.coeffs.items():
        ab, c = triple._key_to_pair[key]
        a, b = AB._key_to_pair[ab]
        if b == B.point_cell.key:
            ac = AC._pair_to_key[a, c]
            coeffs[ac] = coeffs.get(ac, 0) + coeff
    return Cycle(AC, coeffs)


def from_action(source, target, action, offset=0):
    """correspondence_from_action: sum_j e_j x action(tau_j) over the dual
    bases of the source, one external product per source cell.  action is
    a callable on cells or a mapping {cell spec: cycle}, missing is zero."""
    table = {} if callable(action) else {source.cell(k).key: v for k, v in action.items()}
    lookup = action if callable(action) else lambda cell: table.get(cell.key, target.zero())
    ring, coeffs = kunneth_product(source, target), {}
    for p in range(source.dimension + 1):
        for cell, e in zip(source.cells_of_codim(p), dual_basis_cycles(source, p)):
            image = lookup(cell).coeffs
            for ka, ca in e.coeffs.items():
                for kb, cb in image.items():
                    key = ring._pair_to_key[ka, kb]
                    coeffs[key] = coeffs.get(key, 0) + ca * cb
    return Correspondence(source, target, Cycle(ring, coeffs), offset)


def multiplication_correspondence(ring, alpha):
    """multiplication_correspondence: from_action of ring.multiply(alpha, -)
    on each homogeneous piece of alpha, the pieces summed."""
    cs = alpha.codims()
    if len(cs) <= 1:
        offset = cs[0] if cs else 0
        return from_action(ring, ring, lambda cell: ring.multiply(alpha, ring.basis_cycle(cell)), offset)
    total = zero_correspondence(ring, ring)
    for p in cs:
        total = total + multiplication_correspondence(ring, alpha.component(p))
    return total


# -- morphism tables ---------------------------------------------------------------


def extend(table, ring, x):
    """MorphismData.pullback or pushforward: each term of x times its table
    column as a cycle on ring, summed cycle by cycle.  A key that cancels
    and comes back moves to the end, so compare these as sorted entries."""
    out = ring.zero()
    for key, c in x.coeffs.items():
        if key in table:
            out = out + Cycle(ring, table[key]) * c
    return out


def projection_tables(product, factor):
    """projection_morphism's tables as {cell key: cycle}: the pullback of c
    is c paired with the dropped factor's unit; the pushforward of a cell is
    its kept factor times the degree of the dropped one."""
    keep, drop = (product.left, product.right) if factor == "left" else (product.right, product.left)

    def ordered(pair):
        return pair if factor == "left" else pair[::-1]

    pull = {
        c.key: product.basis_cycle(product._pair_to_key[ordered((c.key, drop.unit_cell.key))])
        for c in keep.cells
    }
    push = {}
    for cell in product.cells:
        kept, dropped = ordered(product._key_to_pair[cell.key])
        if d := drop.degree(drop.basis_cycle(dropped)):
            push[cell.key] = keep.basis_cycle(kept) * d
    return pull, push


def product_tables(m1, m2):
    """product_morphism's tables as {cell key: cycle}, cell by cell:
    (f x g)^*(a x b) = f^*(a) x g^*(b) and (f x g)_*(a x b) = f_*(a) x g_*(b)."""

    def table(ring, first, second):
        out = {}
        for cell in ring.cells:
            a, b = ring._key_to_pair[cell.key]
            out[cell.key] = external_product(first(ring.left.basis_cycle(a)), second(ring.right.basis_cycle(b)))
        return out

    src, tgt = kunneth_product(m1.source, m2.source), kunneth_product(m1.target, m2.target)
    return table(tgt, m1.pullback, m2.pullback), table(src, m1.pushforward, m2.pushforward)


# -- fibration models ----------------------------------------------------------------


def product_table(base, fiber):
    """_product_table: for each pair of fiber cells c1 <= c2, in cell order,
    the product of their basis cycles, each coefficient times the base unit."""
    unit, table = base.unit(), {}
    for c1 in fiber.cells:
        for c2 in fiber.cells:
            if c1.key <= c2.key:
                prod = multiply(fiber, fiber.basis_cycle(c1), fiber.basis_cycle(c2))
                table[c1.key, c2.key] = {k: unit * v for k, v in prod.coeffs.items()}
    return table


def sweep(model, y):
    """apply_all_with_coefficients: the peeling sweep by two full model
    products per generator, in descending generator order.  alpha_g is
    pi_*(T_dual(g) * residual) and the piece pi^*(alpha_g) * T_g leaves the
    residual; the nonzero alphas are returned.  Each piece must be the
    cycle {g: alpha_g}, down to its parts' key order and coefficient types,
    on broken models too."""
    if y.model is not model:
        raise ValueError(f"apply_all_with_coefficients: cycle lives in {y.model.name}, not {model.name}")
    residual, out = y, {}
    for g in sorted(model.generators, reverse=True):
        dual = model.fiber.dual_cell(g).key
        alpha = model.pushforward(model.multiply(model.generator(dual), residual))
        piece = model.multiply(model.generator(g), model.pullback(alpha))
        assert parts(piece.parts) == parts(model.cycle({g: alpha}).parts), g
        if not alpha.is_zero():
            out[g] = alpha
        residual = residual - piece
    return out


def parts(alphas):
    """A fibered cycle's parts or a sweep's coefficients, entries typed."""
    return [(g, entries(c)) for g, c in alphas.items()]


def peeled(model, slots, alphas):
    """The sum over (g, phi) in slots of pi^*(phi(alpha_g)) * T_g, for the
    peeled coefficients alphas of a cycle: phi is a base correspondence
    acting by `act`, or None for the identity."""
    out = model.zero()
    for g, phi in slots:
        alpha = alphas.get(g, model.base.zero())
        out = out + model.multiply(model.generator(g), model.pullback(alpha if phi is None else act(phi, alpha)))
    return out


def placed(model, maps):
    """placed_operators: {name: sparse matrix} for maps {name: slots}, the
    operator y -> peeled(model, slots, sweep(model, y)), one basis element
    pi^*(x) * T_g per column, each swept once; zero columns left out.
    Compared as mappings, since every check reads operators by key."""
    out = {name: {} for name in maps}
    for g0, k in model.basis_keys():
        alphas = sweep(model, model.cycle({g0: model.base.basis_cycle(k)}))
        for name, slots in maps.items():
            if col := peeled(model, slots, alphas).vector():
                out[name][g0, k] = col
    return out


def block_slots(model):
    """{(i, j): slots} of lifted_blocks: the base's cellular projector i on
    the generators of codim j/2 (none for odd j)."""
    phis = cellular_ck(model.base).projectors
    return {(i, j): [(g, phi) for g in model.generators if 2 * g[0] == j]
            for i, phi in phis.items() for j in range(2 * model.fiber.dimension + 1)}


def lifted_blocks(model):
    """lifted_blocks: the nonzero blocks, in (i, j) order."""
    return {key: m for key, m in placed(model, block_slots(model)).items() if m}


def lifted_projectors(model):
    """lift_ck's projectors: Pi_k sums the blocks (i, j) with i + j = k."""
    slots = {k: [] for k in range(2 * model.dimension + 1)}
    for (i, j), block in block_slots(model).items():
        slots[i + j] += block
    return placed(model, slots)


def isomorphism_sides(model):
    """The right-hand sides of verify_motive_isomorphism, pi_k and
    Delta_X (x) p_g, as the actions of the product ring's own cellular CK and
    of the tensor correspondence on X x Z."""
    ring = kunneth_product(model.base, model.fiber)
    cells = dict(zip(model.fiber.basis_keys(), fiber_projectors(model.fiber)))
    return (
        {k: action_columns(p) for k, p in cellular_ck(ring).projectors.items()},
        {g: action_columns(tensor(diagonal(model.base), cells[g])) for g in model.generators},
    )


def kron_sides(model):
    """pi_k and Delta_X (x) p_g as verify_motive_isomorphism builds them:
    Kronecker products of the factors' actions, for isomorphism_sides to
    check linalg.kron against."""
    base, fiber = model.base, model.fiber
    pk = kunneth_product(base, fiber)._pair_to_key
    pi_x, pi_z = (cellular_ck(r).columns() for r in (base, fiber))
    pi = {
        k: matrix_sum((1, kron(pi_x[i], pi_z[k - i], pk)) for i in pi_x if k - i in pi_z)
        for k in range(2 * model.dimension + 1)
    }
    ident = {k: {k: 1} for k in base.basis_keys()}
    cells = dict(zip(fiber.basis_keys(), fiber_projectors(fiber)))
    return pi, {g: kron(ident, action_columns_kernel(cells[g]), pk) for g in model.generators}


# -- the routes three verifiers replaced ---------------------------------------------


SYSTEM_LABELS = ("degree preservation", "idempotence", "pairwise orthogonality", "completeness")


def replay_failures(family):
    """The failing system labels by the route verify_projector_family took
    before it checked rho_g as sparse matrices: every nonzero piece {g: alpha}
    of a basis element's sweep is swept once more and must come back as
    itself alone, and the pieces must sum to the basis element."""
    model = family.model

    def codims(y):  # the total codims of the basis keys a cycle has entries on
        return sorted({g[0] + model.base.cell(k).codim for g, k in y.vector()})

    degree_fail, idem_fail, orth_fail, complete_fail = [], [], [], []
    for g0, k in model.basis_keys():
        y = model.cycle({g0: model.base.basis_cycle(k)})
        (p,) = codims(y)
        coeffs = family.apply_all_with_coefficients(y)
        for g, alpha in coeffs.items():
            piece = model.cycle({g: alpha})
            if codims(piece) != [p]:
                degree_fail.append(f"rho{g} moved a codim-{p} cycle to {codims(piece)}")
            replay = family.apply_all_with_coefficients(piece)
            for h in family.order:
                if h == g and replay.get(h) != alpha:
                    idem_fail.append(f"rho{g} o rho{g} != rho{g} on {y!r}")
                elif h != g and h in replay:
                    orth_fail.append(f"rho{h} o rho{g} != 0 on {y!r}")
        if model.cycle(coeffs) != y:
            complete_fail.append(f"sum of projections differs from input on {y!r}")
    fails = (degree_fail, idem_fail, orth_fail, complete_fail)
    return {label for label, details in zip(SYSTEM_LABELS, fails) if details}


def dense_battery_failures(rings, samples, seed):
    """{check label: failures} of compose_oracle_battery as it was, with its
    dense per-codim matrix loop, calling compose and compose_oracle through
    the identities module so that a patch there reaches both."""
    out = {}
    for na, A in enumerate(rings):
        for nb, B in enumerate(rings):
            rng = random.Random(seed * 997 + 31 * na + nb)
            fails = []
            for s in range(samples):
                f = random_correspondence(rng, A, B, offset=0)
                g = random_correspondence(rng, B, A, offset=0)
                comp = identities.compose(g, f)
                if comp.cycle != identities.compose_oracle(g, f):
                    fails.append(f"sample {s}: contraction differs from the oracle")
                    continue
                for p in range(A.dimension + 1):
                    direct = action_matrix(comp, p)
                    if B.rank(p):
                        chained = mat_mul(action_matrix(g, p), action_matrix(f, p))
                    else:
                        chained = tuple((0,) * A.rank(p) for _ in range(A.rank(p)))
                    if direct != chained:
                        fails.append(f"sample {s}: matrices differ on codim {p}")
                        break
            out[f"{A.name} => {B.name} => {A.name}"] = fails
    return out


def compose_failures(ring, projs):
    """Where {name: projector} fails, on the compose route: ([(k, p)] with
    compose(P_k, P_k) - P_k nonzero, [(l, k, p)] with compose(P_l, P_k)
    nonzero, [p] with the sum minus the diagonal nonzero), by source codim
    p, in the order projector_system_failures names them.  A term a x b of
    a degree-0 self-correspondence acts on CH^{n - codim a}, so each
    cycle's failing codims are read off its terms."""
    n = ring.dimension

    def codims(f):
        return sorted({n - f.ring._key_to_pair[key][0][0] for key in f.cycle.coeffs})

    idem = [(k, p) for k, f in projs.items() for p in codims(compose_kernel(f, f) - f)]
    orth = [
        (l, k, p)
        for k, f in projs.items()
        for l, g in projs.items()
        if l != k
        for p in codims(compose_kernel(g, f))
    ]
    total = zero_correspondence(ring, ring, 0)
    for f in projs.values():
        total = total + f
    return idem, orth, codims(total - diagonal(ring))


# -- Schubert calculus ------------------------------------------------------------------


def pieri(lam, k, rows, cols):
    """Partitions mu in the box with mu/lam a horizontal strip of k boxes:
    the terms of sigma_lam * sigma_(k), strips leaving the box dropped."""
    lam = tuple(lam)
    if k < 0:
        raise ValueError("strip size must be nonnegative")
    if not fits_in_box(lam, rows, cols):
        return []
    out = []
    nrows = min(rows, len(lam) + 1)

    def rec(i, used, mu):
        if i == nrows:
            if used == k:
                out.append(tuple(p for p in mu if p))
            return
        low = lam[i] if i < len(lam) else 0
        high = cols if i == 0 else lam[i - 1]
        for v in range(low, min(high, low + k - used) + 1):
            rec(i + 1, used + v - low, mu + (v,))

    rec(0, 0, ())
    return sorted(out, reverse=True)


def pieri_product(lam, mu, rows, cols):
    """schubert.lr_product by the Pieri rule alone: multiply sigma_lam *
    sigma_{mu minus its first row} by the single-row class, then subtract
    the products indexed by the other Pieri terms of that single-row
    product.  Every correction has a longer first row, so the recursion
    ends at single-row classes."""
    lam, mu = tuple(lam), tuple(mu)
    if not (fits_in_box(lam, rows, cols) and fits_in_box(mu, rows, cols)):
        return {}
    if not mu:
        return {lam: 1}
    head, rest = mu[0], mu[1:]
    acc = {}
    for rho, c in pieri_product(lam, rest, rows, cols).items():
        for nu in pieri(rho, head, rows, cols):
            acc[nu] = acc.get(nu, 0) + c
    for nu in pieri(rest, head, rows, cols):
        if nu != mu:
            for tau, c in pieri_product(lam, nu, rows, cols).items():
                acc[tau] = acc.get(tau, 0) - c
    return {nu: c for nu, c in sorted(acc.items()) if c}
