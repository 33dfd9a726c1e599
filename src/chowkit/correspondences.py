"""Correspondences between cellular rings, and validated morphism data.

A correspondence from A to B is a cycle class on the product ring A x B.  It
acts on cycles of A by pulling back to the product, multiplying, and pushing
down to B; in cell coordinates both the action and composition are pairing
contractions, with degree bookkeeping codim = dim A + r for a correspondence
of degree r.

Morphisms enter as MorphismData: explicit pullback and pushforward tables,
held as linalg sparse matrices and validated against the ring axioms (unit,
grading, multiplicativity, the projection formula, adjointness).  graph_from_morphism turns such data into
the correspondence pair acting as pullback and pushforward.
"""

from __future__ import annotations

from .linalg import apply, invert, kron
from .rings import Cycle, _cycle, _exact, _kept, kunneth_product

_AUTO = object()


def dual_basis_cycles(ring, p):
    """Cycles e_1..e_m in CH^{n-p} with deg(e_j * tau_{p,k}) = delta_{jk}.

    Exists iff the pairing between CH^{n-p} and CH^p is perfect; for a
    delta-normalized ring e_j is just the same-index cell tau_{n-p,j}.
    Kept on the ring per codimension; a pairing that is not perfect raises
    on every call.
    """
    return _kept(ring, _dual_basis, p)


def _dual_basis(ring, p):
    n = ring.dimension
    rows = ring.cells_of_codim(n - p)
    cols = ring.cells_of_codim(p)
    if len(rows) != len(cols):
        raise ValueError(
            f"{ring.name}: CH^{n - p} and CH^{p} have different ranks, pairing cannot be perfect"
        )
    try:
        dual = invert(ring.pairing_matrix(n - p))
    except ValueError:
        raise ValueError(f"{ring.name}: pairing at codim {p} is degenerate") from None
    return tuple(
        Cycle(ring, {rows[i].key: dual[j][i] for i in range(len(rows))}) for j in range(len(cols))
    )


class Correspondence:
    """A cycle on source x target acting on cycles of the source ring.

    ``offset`` is the degree r with every component of codimension
    dim(source) + r, or None for an inhomogeneous correspondence.  The
    default derives it from the cycle.
    """

    __slots__ = ("source", "target", "ring", "cycle", "offset", "_kept")

    def __init__(self, source, target, cycle, offset=_AUTO):
        ring = kunneth_product(source, target)
        if cycle.ring is not ring:
            raise ValueError(
                f"correspondence cycle must live on {ring.name}, got {cycle.ring.name}"
            )
        if offset is _AUTO:
            cs = cycle.codims()
            offset = cs[0] - source.dimension if len(cs) == 1 else None
        elif offset is not None:
            want = source.dimension + offset
            if not cycle.coeffs.keys() <= ring._key_sets[want]:
                raise ValueError(f"cycle is not homogeneous of codim {want}")
        self.source = source
        self.target = target
        self.ring = ring
        self.cycle = cycle
        self.offset = offset
        self._kept = {}  # action_columns(self), see rings._kept

    # -- algebra -------------------------------------------------------------

    def _require_parallel(self, other):
        if self.source is not other.source or self.target is not other.target:
            raise ValueError("correspondences connect different ring pairs")

    def _common_offset(self, other):
        """The operands' degree when they share one, so a sum that cancels
        keeps it; otherwise derived from the result."""
        return self.offset if self.offset is not None and self.offset == other.offset else _AUTO

    def __add__(self, other):
        if not isinstance(other, Correspondence):
            return NotImplemented
        self._require_parallel(other)
        return Correspondence(self.source, self.target, self.cycle + other.cycle, self._common_offset(other))

    def __sub__(self, other):
        if not isinstance(other, Correspondence):
            return NotImplemented
        self._require_parallel(other)
        return Correspondence(self.source, self.target, self.cycle - other.cycle, self._common_offset(other))

    def __neg__(self):
        return Correspondence(self.source, self.target, -self.cycle, self.offset)

    def __mul__(self, scalar):
        if isinstance(scalar, Correspondence):
            return NotImplemented
        return Correspondence(self.source, self.target, self.cycle * scalar, self.offset)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Correspondence):
            return NotImplemented
        return (
            self.source is other.source
            and self.target is other.target
            and self.cycle == other.cycle
        )

    def __hash__(self):
        return hash((id(self.source), id(self.target), self.cycle))

    def is_zero(self):
        return self.cycle.is_zero()

    def __repr__(self):
        r = "mixed" if self.offset is None else self.offset
        return f"<Correspondence {self.source.name} -> {self.target.name} deg={r} {self.cycle!r}>"


def _correspondence(source, target, ring, cycle, offset):
    """Correspondence(source, target, cycle, offset) for a kernel whose cycle
    lies on ring, their product, homogeneous of codim dim(source) + offset
    unless offset is None: neither is looked up or checked."""
    f = object.__new__(Correspondence)
    f.source, f.target, f.ring, f.cycle, f.offset, f._kept = source, target, ring, cycle, offset, {}
    return f


def zero_correspondence(source, target, offset=None):
    ring = kunneth_product(source, target)
    return Correspondence(source, target, ring.zero(), offset)


def act(f, x):
    """Apply a correspondence to a cycle of its source ring.

    Pull back, multiply, push forward; in coordinates the left factor a of
    each term is contracted against x over a's partners in the source ring,
    read off the product's kept left plan.
    """
    if x.ring is not f.source:
        raise ValueError(f"act: cycle lives in {x.ring.name}, not {f.source.name}")
    plan, xs = f.ring._left_partners, x.coeffs
    coeffs = {}
    for key, c in f.cycle.coeffs.items():
        b, partners = plan[key]
        d = sum(xs[k] * e for k, e in partners if k in xs)
        if d:
            coeffs[b] = coeffs.get(b, 0) + c * d
    return _cycle(f.target, coeffs)


def compose(g, f):
    """g after f: contract the middle factor through its degree pairing,
    each f-term a x b against the g-terms on b's partners in the middle
    ring, read off the products' kept plans."""
    if f.target is not g.source:
        raise ValueError(
            f"compose: {f.target.name} (target of f) differs from {g.source.name} (source of g)"
        )
    ring = kunneth_product(f.source, g.target)
    split, gterms = g.ring._pair_keys, {}  # middle key -> [(target key, coefficient)]
    for k, c in g.cycle.coeffs.items():
        b2, c2 = split[k]
        gterms.setdefault(b2, []).append((c2, c))
    plan, rows, coeffs = f.ring._right_partners, ring._key_rows, {}
    for kf, cf in f.cycle.coeffs.items():
        a, partners = plan[kf]
        row = rows[a]
        for b2, d in partners:
            for c2, cg in gterms.get(b2, ()):
                key = row[c2]
                coeffs[key] = coeffs.get(key, 0) + cf * cg * d
    offset = None if f.offset is None or g.offset is None else f.offset + g.offset
    return _correspondence(f.source, g.target, ring, _cycle(ring, coeffs), offset)


def transpose(f):
    """The same cycle viewed on target x source; degree r + dim A - dim B."""
    ring = kunneth_product(f.target, f.source)
    coeffs = {}
    for key, c in f.cycle.coeffs.items():
        a, b = f.ring._key_to_pair[key]
        coeffs[ring._pair_to_key[(b.key, a.key)]] = c
    offset = None
    if f.offset is not None:
        offset = f.offset + f.source.dimension - f.target.dimension
    return _correspondence(f.target, f.source, ring, _cycle(ring, coeffs), offset)


def tensor(f, g):
    """The product correspondence A x C -> B x D of f: A -> B and g: C -> D.

    The factors of the two product rings are reshuffled so the result lives
    on (A x C) x (B x D).
    """
    src = kunneth_product(f.source, g.source)
    tgt = kunneth_product(f.target, g.target)
    big = kunneth_product(src, tgt)
    coeffs = {}
    for kf, cf in f.cycle.coeffs.items():
        a, b = f.ring._key_to_pair[kf]
        for kg, cg in g.cycle.coeffs.items():
            c, d = g.ring._key_to_pair[kg]
            key = big._pair_to_key[
                (src._pair_to_key[(a.key, c.key)], tgt._pair_to_key[(b.key, d.key)])
            ]
            coeffs[key] = cf * cg
    offset = None if f.offset is None or g.offset is None else f.offset + g.offset
    return _correspondence(src, tgt, big, _cycle(big, coeffs), offset)


def correspondence_from_action(source, target, action, offset=0):
    """The unique correspondence of degree ``offset`` with the given action.

    ``action`` maps each basis cell of the source to a cycle on the target
    (callable or mapping; missing entries are zero).  Built by contracting
    the dual basis: u = sum_j e_j x action(tau_{p,j}).  Each nonzero image
    is checked to lie on the target in codim p + offset, so the kernel tail
    keeps only keys of that codim.
    """
    if callable(action):
        lookup = action
    else:
        table = {source.cell(k).key: v for k, v in action.items()}

        def lookup(cell):
            return table.get(cell.key, target.zero())

    def image(cell):
        cycle = lookup(cell)
        if cycle.is_zero():
            return {}
        if cycle.ring is not target:
            raise ValueError("action must produce cycles on the target ring")
        want = cell.codim + offset
        if any(q != want for q in cycle.codims()):
            raise ValueError(
                f"action of {cell.label} has codim {cycle.codims()}, expected {want}"
            )
        return cycle.coeffs

    return _from_images(source, target, image, offset)


def _from_images(source, target, image, offset):
    """u = sum_j e_j x image(tau_{p,j}) over the dual bases of source, in one
    dict, for image(cell) a coefficient dict on target of codim
    codim(cell) + offset (a zero value is skipped)."""
    ring = kunneth_product(source, target)
    pk, coeffs = ring._pair_to_key, {}
    for p in range(source.dimension + 1):
        for cell, e in zip(source.cells_of_codim(p), dual_basis_cycles(source, p)):
            terms = image(cell)
            for ka, ca in e.coeffs.items():
                for kb, cb in terms.items():
                    if cb:
                        key = pk[(ka, kb)]
                        coeffs[key] = coeffs.get(key, 0) + ca * cb
    return _correspondence(source, target, ring, _cycle(ring, coeffs), offset)


def diagonal(ring):
    """The identity correspondence of a ring with perfect pairings.

    For a delta-normalized basis this is the classical sum of cells paired
    with their same-index duals.
    """
    return correspondence_from_action(ring, ring, ring.basis_cycle, offset=0)


def multiplication_correspondence(ring, alpha):
    """The correspondence acting on CH(ring) as multiplication by alpha: for
    homogeneous alpha, u = sum_j e_j x (alpha tau_j) read off the ring's
    products."""
    if alpha.ring is not ring:
        raise ValueError("alpha must live in the ring being acted on")
    cs = alpha.codims()
    if len(cs) <= 1:
        a = alpha.coeffs
        return _from_images(ring, ring, lambda cell: ring._product(a, {cell.key: 1}), cs[0] if cs else 0)
    # inhomogeneous multiplier: sum the homogeneous pieces
    total = zero_correspondence(ring, ring)
    for p in cs:
        total = total + multiplication_correspondence(ring, alpha.component(p))
    return total


def _action_map(f):
    """act(f, -) on the source cells, in one walk over f's terms: {source
    key: nonzero image {target key: coefficient}}.  A term c (a x b) sends
    each partner k of a, with deg(k a) = d, to c d b, read off the
    product's kept left plan.  Each entry is written once unless two terms
    meet there: c and d are nonzero, so only such a sum can cancel."""
    plan, columns, summed = f.ring._left_partners, {}, False
    for key, c in f.cycle.coeffs.items():
        b, partners = plan[key]
        for k, d in partners:
            if (col := columns.get(k)) is None:
                columns[k] = {b: c * d}
            elif b in col:
                col[b] += c * d
                summed = True
            else:
                col[b] = c * d
    if not summed:
        return columns
    # zeros dropped once, rebuilding only the columns that hold one
    for k in [k for k, col in columns.items() if not all(col.values())]:
        if col := {b: v for b, v in columns[k].items() if v}:
            columns[k] = col
        else:
            del columns[k]
    return columns


def action_matrix(f, p):
    """Matrix of act(f, -): CH^p(source) -> CH^{p+r}(target) in the cell bases.

    Column j is the image of the j-th codim-p source cell; entry [i][j] is
    its coefficient on the i-th target cell, an int when integral as in a
    cycle.
    """
    if f.offset is None:
        raise ValueError("action_matrix needs a homogeneous correspondence")
    keys = f.source.basis_keys(p)
    rows = [[0] * len(keys) for _ in range(f.target.rank(p + f.offset))]
    columns = _action_map(f)
    for j, k in enumerate(keys):
        for (_, i), v in columns.get(k, {}).items():
            rows[i - 1][j] = _exact(v)
    return tuple(tuple(row) for row in rows)


def action_columns(f):
    """The action of a degree-0 (or zero) self-correspondence as a sparse
    matrix {cell key: nonzero column {cell key: coefficient}}, the layout of
    linalg that every model operator shares.  Raises the dual_basis_cycles error unless every
    pairing is perfect, since only then does the action determine the
    cycle.  Read once and kept on f, with integral entries as ints, so
    callers share it and must not mutate it."""
    return _kept(f, _columns)


def _columns(f):
    ring = f.source
    if f.target is not ring or not (f.is_zero() or f.offset == 0):
        raise ValueError("action_columns needs a degree-0 self-correspondence")
    for p in range(ring.dimension + 1):
        dual_basis_cycles(ring, p)
    return {b: {r: _exact(v) for r, v in col.items()} for b, col in _action_map(f).items()}


# -- morphism data -------------------------------------------------------------


class MorphismData:
    """Pullback and pushforward tables of a morphism source -> target.

    ``pullback`` maps target cells to cycles on the source (codim preserved),
    ``pushforward`` maps source cells to cycles on the target (codim shifted
    by dim target - dim source); missing entries are zero.  Each table is
    held as a sparse matrix in linalg's layout, {cell key: nonzero column
    {cell key: coefficient}}, so pullback and pushforward are linalg.apply.
    Construction validates the ring axioms these tables must satisfy: unit
    and multiplicativity of the pullback, degree preservation of the
    pushforward on zero-cycles, the projection formula, and adjointness
    under the degree pairings.
    """

    def __init__(self, source, target, pullback, pushforward, name=None):
        self.source = source
        self.target = target
        self.name = name or f"{source.name} -> {target.name}"
        self.shift = target.dimension - source.dimension
        pull = {}
        for spec, cyc in pullback.items():
            cell = target.cell(spec)
            if cyc.ring is not source:
                raise ValueError(f"pullback of {cell.label} must live on {source.name}")
            if not cyc.is_zero() and cyc.codims() != [cell.codim]:
                raise ValueError(f"pullback of {cell.label} must preserve codim {cell.codim}")
            pull[cell.key] = cyc.coeffs
        push = {}
        for spec, cyc in pushforward.items():
            cell = source.cell(spec)
            if cyc.ring is not target:
                raise ValueError(f"pushforward of {cell.label} must live on {target.name}")
            want = cell.codim + self.shift
            if not cyc.is_zero():
                if not 0 <= want <= target.dimension:
                    raise ValueError(f"pushforward of {cell.label} must vanish (codim {want})")
                if cyc.codims() != [want]:
                    raise ValueError(f"pushforward of {cell.label} must have codim {want}")
            push[cell.key] = cyc.coeffs
        # a zero entry is a missing column, so no column is empty
        self._pull = {k: col for k, col in pull.items() if col}
        self._push = {k: col for k, col in push.items() if col}
        self._validate()

    def pullback(self, y):
        """Linear extension of the pullback table to any cycle on the target."""
        if y.ring is not self.target:
            raise ValueError(f"pullback: cycle lives in {y.ring.name}, not {self.target.name}")
        return _cycle(self.source, apply(self._pull, y.coeffs))

    def pushforward(self, x):
        if x.ring is not self.source:
            raise ValueError(f"pushforward: cycle lives in {x.ring.name}, not {self.source.name}")
        return _cycle(self.target, apply(self._push, x.coeffs))

    def _validate(self):
        src, tgt = self.source, self.target
        if self.pullback(tgt.unit()) != src.unit():
            raise ValueError(f"{self.name}: pullback of {tgt.unit_cell.label} is not the unit")
        for y1 in tgt.cells:
            py1 = self.pullback(tgt.basis_cycle(y1))
            for y2 in tgt.cells:
                if y2.key < y1.key:
                    continue
                prod = tgt.multiply(tgt.basis_cycle(y1), tgt.basis_cycle(y2))
                rhs = src.multiply(py1, self.pullback(tgt.basis_cycle(y2)))
                if self.pullback(prod) != rhs:
                    raise ValueError(
                        f"{self.name}: pullback not multiplicative at ({y1.label}, {y2.label}),"
                        f" product {prod!r}"
                    )
        for x in src.cells:
            cyc = src.basis_cycle(x)
            if tgt.degree(self.pushforward(cyc)) != src.degree(cyc):
                raise ValueError(f"{self.name}: pushforward changes the degree of {x.label}")
            for y in tgt.cells:
                yc = tgt.basis_cycle(y)
                # x f^*(y), whose pushforward entries the projection formula reads
                xy = src.multiply(cyc, self.pullback(yc))
                rhs = tgt.multiply(self.pushforward(cyc), yc)
                if self.pushforward(xy) != rhs:
                    raise ValueError(
                        f"{self.name}: projection formula fails at ({x.label}, {y.label}),"
                        f" x f^*y = {xy!r}"
                    )
                if tgt.degree(rhs) != src.degree(xy):
                    raise ValueError(
                        f"{self.name}: adjointness fails at ({x.label}, {y.label}), x f^*y = {xy!r}"
                    )

    def __repr__(self):
        return f"<MorphismData {self.name}>"


def _morphism(source, target, pull, push, name):
    """MorphismData(source, target, ...) for tables that hold by
    construction, given as sparse matrices with no empty column: neither
    the shape checks nor the ring axioms are run."""
    m = object.__new__(MorphismData)
    m.source, m.target, m.name, m._pull, m._push = source, target, name, pull, push
    m.shift = target.dimension - source.dimension
    return m


def identity_morphism(ring):
    table = {k: {k: 1} for k in ring.basis_keys()}
    # tables are never mutated, so pullback and pushforward share one
    return _morphism(ring, ring, table, table, f"id_{ring.name}")


def projection_morphism(product, factor="left"):
    """The projection of a Kunneth product ring onto one factor.

    Pullback is external product with the other factor's unit; pushforward
    integrates the other factor (only its point cell survives, of degree 1).
    """
    keep = product.left if factor == "left" else product.right
    drop = product.right if factor == "left" else product.left
    pk, unit, pt = product._pair_to_key, drop.unit_cell.key, drop.point_cell.key
    pair = (lambda k, d: pk[k, d]) if factor == "left" else (lambda k, d: pk[d, k])
    pull = {k: {pair(k, unit): 1} for k in keep.basis_keys()}
    push = {pair(k, pt): {k: 1} for k in keep.basis_keys()}
    return _morphism(product, keep, pull, push, f"pr_{factor}({product.name})")


def constant_morphism(ring, point_ring):
    """The collapse of a ring to a zero-dimensional one."""
    if point_ring.dimension != 0:
        raise ValueError("constant morphism needs a zero-dimensional target")
    pull = {point_ring.unit_cell.key: ring.unit()}
    push = {ring.point_cell.key: point_ring.unit()}
    return MorphismData(ring, point_ring, pull, push, name=f"{ring.name} -> point")


def product_morphism(m1, m2):
    """m1 x m2 on the product rings (used for id x f extensions): each table
    is the Kronecker product of the factors' tables, (f x g)^* = f^* x g^*
    and (f x g)_* = f_* x g_*."""
    src = kunneth_product(m1.source, m2.source)
    tgt = kunneth_product(m1.target, m2.target)
    pull = kron(m1._pull, m2._pull, tgt._pair_to_key, src._pair_to_key)
    push = kron(m1._push, m2._push, src._pair_to_key, tgt._pair_to_key)
    return _morphism(src, tgt, pull, push, f"{m1.name} x {m2.name}")


def graph_from_morphism(m):
    """The correspondence pair (c, c_t) of a morphism f: A -> B.

    c lives on B x A and acts as the pullback; its transpose c_t lives on
    A x B and acts as the pushforward.  Both are checked against the tables.
    """
    c = _from_images(m.target, m.source, lambda cell: m._pull.get(cell.key, {}), 0)
    c_t = transpose(c)
    for cell in _table_mismatches(c, m._pull, m.target.cells)[:1]:
        raise ValueError(f"{m.name}: graph does not act as the pullback at {cell.label}")
    for cell in _table_mismatches(c_t, m._push, m.source.cells)[:1]:
        raise ValueError(f"{m.name}: transposed graph does not act as the pushforward at {cell.label}")
    return c, c_t


def _table_mismatches(f, table, cells):
    """The cells whose image under act(f, -), their column of f's action
    map, is not their column of a morphism table (missing is zero), in order."""
    columns, empty = _action_map(f), {}
    return [cell for cell in cells if columns.get(cell.key, empty) != table.get(cell.key, empty)]
