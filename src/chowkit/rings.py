"""Graded Chow rings with finite cellular bases.

A ring of dimension n is a free module with one basis cell tau_{p,i} per
codimension p in 0..n and 1-based index i within that codimension.  There is
exactly one cell in codimension 0 (the unit) and one in codimension n (the
point class).  Multiplication is a table of exact integer structure constants,
required at construction to be graded, commutative, associative and unital.

The distinguished basis is expected to be delta-normalized: the product of
tau_{p,i} with tau_{n-p,j} is the point class when i = j and zero otherwise,
so that the dual of a cell is the complementary-codimension cell with the same
second index.  This is a property of the presentation, not of the ring
structure; ``verify_pairing`` reports on it rather than the constructor
enforcing it, because some rings one wants to compute in (notably Kunneth
products of even total dimension) provably admit no such basis.

Coefficients are exact everywhere and stored one way: an integral value is
a Python int, any other a Fraction.  Cycle is the one place that enforces
this, so a value's type says whether it is integral.  No floats.  Kernel
outputs go through ``_cycle``, which keeps this rule and checks no key.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import kron, pivot_columns
from .report import Report


class BasisCell:
    """One basis element: codimension, 1-based index within it, display label.

    Immutable by convention.  ``key`` is (codim, index), read on every hot
    path; equality and hashing stay on (codim, index, label).
    """

    __slots__ = ("codim", "index", "label", "key")

    def __init__(self, codim, index, label):
        self.codim = codim
        self.index = index
        self.label = label
        self.key = (codim, index)

    def __eq__(self, other):
        if not isinstance(other, BasisCell):
            return NotImplemented
        return (self.codim, self.index, self.label) == (other.codim, other.index, other.label)

    def __hash__(self):
        return hash((self.codim, self.index, self.label))

    def __repr__(self):
        return f"BasisCell(codim={self.codim!r}, index={self.index!r}, label={self.label!r})"


def _exact(value):
    """An exact coefficient in its one form: an int when integral, else a
    Fraction.  Floats, bools and anything else inexact are refused."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"exact integer or Fraction coefficient expected, got {value!r}")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class Cycle:
    """A formal combination of basis cells of one ring.

    ``coeffs`` maps cell keys (codim, index) to nonzero exact coefficients,
    each an int when integral and a Fraction otherwise; absent keys are
    zero.  Instances are immutable by convention: every operation returns a
    fresh cycle.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        known, clean = ring._by_key, {}
        for key, value in coeffs.items():
            if type(value) is not int:  # an exact int skips every check
                value = _exact(value)
            if value:
                if key not in known:
                    raise ValueError(f"unknown cell key {key!r} for {ring.name}")
                clean[key] = value
        self.ring = ring
        self.coeffs = clean

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def codims(self):
        return sorted({p for p, _ in self.coeffs})

    def component(self, p):
        return _cycle(self.ring, {k: v for k, v in self.coeffs.items() if k[0] == p})

    def coefficient(self, cell):
        key = cell.key if isinstance(cell, BasisCell) else self.ring.cell(cell).key
        return self.coeffs.get(key, 0)

    # -- arithmetic --------------------------------------------------------

    def _require_same_ring(self, other):
        if self.ring is not other.ring:
            raise ValueError(f"ring mismatch: {self.ring.name} vs {other.ring.name}")

    def __add__(self, other):
        if not isinstance(other, Cycle):
            return NotImplemented
        self._require_same_ring(other)
        return _cycle(self.ring, _sum(self.coeffs, other.coeffs))

    def __neg__(self):
        return _cycle(self.ring, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Cycle):
            return NotImplemented
        self._require_same_ring(other)
        return _cycle(self.ring, _sum(self.coeffs, other.coeffs, -1))

    def __mul__(self, other):
        if isinstance(other, Cycle):
            return self.ring.multiply(self, other)
        other = _exact(other)
        return _cycle(self.ring, {k: v * other for k, v in self.coeffs.items()})

    def __rmul__(self, other):
        if isinstance(other, Cycle):
            return NotImplemented
        return self * other

    def __eq__(self, other):
        if not isinstance(other, Cycle):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for key in sorted(self.coeffs):
            label = self.ring._by_key[key].label
            value = self.coeffs[key]
            if value == 1:
                term = label
            elif value == -1:
                term = f"-{label}"
            else:
                term = f"{value}*{label}"
            parts.append(term)
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def _cycle(ring, coeffs):
    """Cycle(ring, coeffs) for a kernel whose keys are cells of ring by
    construction: values made exact and zeros dropped, no key checked.  A
    dict of nonzero ints becomes the cycle's own, so hand over a fresh one."""
    cycle = object.__new__(Cycle)
    cycle.ring = ring
    for v in coeffs.values():
        if type(v) is not int or not v:
            coeffs = {k: v if type(v) is int else _exact(v) for k, v in coeffs.items() if v}
            break
    cycle.coeffs = coeffs
    return cycle


def _sum(a, b, sign=1):
    """a + sign * b on coefficient dicts, as Cycle adds: a fresh dict with
    a's keys and then b's new ones, in order, and no zero."""
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0) + sign * value
    return out if all(out.values()) else {k: v for k, v in out.items() if v}


class ChowRing:
    """Cellular Chow ring: graded basis plus exact structure constants.

    ``products`` maps ordered pairs of cell keys to {cell key: int}; only one
    order of each pair is needed (the table is symmetrized), products with the
    unit are implied, and omitted entries are zero.
    """

    def __init__(self, dimension, cells, products, name=None):
        if dimension < 0:
            raise ValueError("dimension must be nonnegative")
        cells = tuple(sorted(cells, key=lambda c: c.key))
        by_label, by_codim = {}, {p: [] for p in range(dimension + 1)}
        for cell in cells:
            if not 0 <= cell.codim <= dimension:
                raise ValueError(f"cell {cell.label!r} has codim {cell.codim} outside 0..{dimension}")
            if cell.label in by_label:
                raise ValueError(f"duplicate cell label {cell.label!r}")
            by_label[cell.label] = cell
            by_codim[cell.codim].append(cell)
        for p, group in by_codim.items():
            if [c.index for c in group] != list(range(1, len(group) + 1)):
                raise ValueError(f"cell indices at codim {p} must be 1..m_p contiguous")
        if len(by_codim[0]) != 1 or len(by_codim[dimension]) != 1:
            raise ValueError("need exactly one cell in codim 0 and one in top codim")
        self._index(dimension, name, cells, {c.key: c for c in cells}, by_label, by_codim)
        self._table = _symmetric_table(
            self._entries(products), self.unit_cell.key, [c.key for c in cells], 1,
            lambda k1, k2: f"conflicting products for {k1} * {k2}",
            lambda key: f"unit law violated at {self._by_key[key].label!r}",
        )
        self._validate_associativity()

    def _index(self, dimension, name, cells, by_key, by_label, by_codim):
        """Keep a checked, sorted basis with its indexes; start the kept
        values empty, each built on its first read."""
        self.dimension, self.name = dimension, name or f"ring(dim={dimension})"
        self.cells, self._by_key, self._by_label, self._by_codim = cells, by_key, by_label, by_codim
        self.ranks = tuple(len(by_codim[p]) for p in range(dimension + 1))
        self.unit_cell = by_codim[0][0]
        self.point_cell = by_codim[dimension][0]
        self._unit_coeffs = {self.unit_cell.key: 1}  # the unit's coeffs, for multiply
        self._kept = {}  # what other modules derive from this ring, see _kept
        # codim p, or None for all -> basis_keys(p)
        self._basis_keys = _Kept(lambda p: tuple(c.key for c in (cells if p is None else by_codim.get(p, ()))))
        self._partners = _Kept(lambda key: tuple(  # cell key -> partners(key)
            (c.key, d) for c in by_codim.get(dimension - key[0], ()) if (d := self.pair_degree(key, c.key))
        ))
        self._pairings = _Kept(lambda p: tuple(  # codim p -> pairing_matrix(p)
            tuple(self.pair_degree(r.key, c.key) for c in by_codim.get(dimension - p, ()))
            for r in by_codim.get(p, ())
        ))
        self._kunneth = _Kept(lambda right: KunnethRing(self, right))  # right factor -> self x right

    # -- construction helpers ----------------------------------------------

    def _entries(self, products):
        """(k1, k2, {cell key: int}) for each pair of ``products``, in order,
        each checked as it is read: known cells, integer constants, grading."""
        for (k1, k2), raw in products.items():
            k1, k2 = tuple(k1), tuple(k2)
            for k in (k1, k2):
                if k not in self._by_key:
                    raise ValueError(f"product table mentions unknown cell {k!r}")
            total = k1[0] + k2[0]
            entry = {}
            for key, value in raw.items():
                key = tuple(key)
                value = _exact(value)
                if type(value) is not int:
                    raise ValueError("structure constants must be integers")
                if value == 0:
                    continue
                if key not in self._by_key:
                    raise ValueError(f"product {k1} * {k2} hits unknown cell {key!r}")
                if key[0] != total:
                    raise ValueError(
                        f"grading violation: {k1} * {k2} has a codim-{key[0]} term, expected {total}"
                    )
                entry[key] = value
            if total > self.dimension and entry:
                raise ValueError(f"product {k1} * {k2} exceeds top codimension")
            yield k1, k2, entry

    def _generators(self):
        """Cell keys generating the ring as an algebra, codim by codim: at
        codim p, the cells whose columns are not pivots of the products
        s * c of the generators s found so far with the cells c of codim
        p - codim s.  Those products and the new generators span CH^p over Q."""
        table, gens = self._table, []
        for p in range(1, self.dimension + 1):
            cols = [cell.key for cell in self._by_codim[p]]
            rows = [
                [table[s].get(c.key, {}).get(k, 0) for k in cols]
                for s in gens
                for c in self._by_codim[p - s[0]]
            ]
            pivots = set(pivot_columns(rows))
            gens += [k for j, k in enumerate(cols) if j not in pivots]
        return gens

    def _validate_associativity(self):
        """(xy)z = x(yz) on every triple, certified on triples (s, b, c)
        whose first factor is one of the ``_generators``.

        M = {x : (xy)z = x(yz) for all y, z} is a subspace holding 1 (the
        unit law _symmetric_table enforced), and sm is in M for s, m in M:
        ((sm)y)z = (s(my))z = s((my)z) = s(m(yz)) = (sm)(yz), the steps being
        (s, m, y), (s, my, z), m in M and (s, m, yz).  By induction on codim,
        every s * c with c of lower codim lies in M, and with the generators
        of codim p these span CH^p, so M is the whole ring.  The constants
        are integers, so this is associativity over Z as well.  Triples
        through the unit hold by the unit law, triples past the top codim
        are zero on both sides, and the symmetrized table makes (c, b, s)
        the negative of (s, b, c), so a generator c <= s is skipped."""
        table, product, n = self._table, self._product, self.dimension
        gens = self._generators()
        skip = set()
        keys = [cell.key for cell in self.cells[1:]]  # sorted by codim, unit first
        for s in gens:
            skip.add(s)
            for b in keys:
                sb = table[s].get(b, {})
                for c in keys:
                    if s[0] + b[0] + c[0] > n:
                        break
                    if c in skip:
                        continue
                    left, right = product(sb, {c: 1}), product(table[b].get(c, {}), {s: 1})
                    if left != right and _sum(left, right, -1):  # _product may keep zeros
                        s_, b_, c_ = (self._by_key[k].label for k in (s, b, c))
                        raise ValueError(f"associativity fails at ({s_}, {b_}, {c_})")

    # -- basis access --------------------------------------------------------

    def cell(self, spec):
        """Resolve a cell from a BasisCell, a (codim, index) key, or a label."""
        if isinstance(spec, BasisCell):
            if (own := self._by_key.get(spec.key)) is not spec and own != spec:
                raise ValueError(f"cell {spec!r} does not belong to {self.name}")
            return spec
        if isinstance(spec, str):
            if spec not in self._by_label:
                raise ValueError(f"no cell labeled {spec!r} in {self.name}")
            return self._by_label[spec]
        key = tuple(spec)
        if key not in self._by_key:
            raise ValueError(f"no cell {key!r} in {self.name}")
        return self._by_key[key]

    def cells_of_codim(self, p):
        return tuple(self._by_codim.get(p, ()))

    def rank(self, p):
        return len(self._by_codim.get(p, ()))

    def basis_keys(self, p=None):
        """The keys of the codim-p cells, or of every cell when p is None,
        in cell order; kept."""
        return self._basis_keys[p]

    def basis_cycle(self, spec):
        return _cycle(self, {self.cell(spec).key: 1})

    def unit(self):
        return _cycle(self, {self.unit_cell.key: 1})

    def zero(self):
        return _cycle(self, {})

    def cycle(self, data):
        """Build a cycle from {label or key: coefficient}."""
        coeffs = {}
        for spec, value in data.items():
            key = self.cell(spec).key
            coeffs[key] = coeffs.get(key, 0) + value
        return Cycle(self, coeffs)

    def dual_cell(self, spec):
        """Complementary-codimension cell with the same index (delta convention)."""
        cell = self.cell(spec)
        dual_key = (self.dimension - cell.codim, cell.index)
        if dual_key not in self._by_key:
            raise ValueError(f"no same-index dual for {cell.label!r} in {self.name}")
        return self._by_key[dual_key]

    # -- ring operations ----------------------------------------------------

    def multiply(self, a, b):
        if a.ring is not self or b.ring is not self:
            raise ValueError("multiply: cycles must live in this ring")
        return _cycle(self, self._product(a.coeffs, b.coeffs))

    def _product(self, a, b):
        """a * b on coefficient dicts, in a fresh dict that may hold zeros; by
        the unit law _symmetric_table enforces, a unit factor reads no row."""
        if a == self._unit_coeffs:
            return dict(b)
        if b == self._unit_coeffs:
            return dict(a)
        coeffs = {}
        for k1, c1 in a.items():
            row = self._table[k1]
            for k2, c2 in b.items():
                entry = row.get(k2)
                if not entry:
                    continue
                scale = c1 * c2
                for key, value in entry.items():
                    coeffs[key] = coeffs.get(key, 0) + scale * value
        return coeffs

    def degree(self, a):
        """Coefficient of the point class (the top-codimension component)."""
        if a.ring is not self:
            raise ValueError("degree: cycle lives in a different ring")
        return a.coeffs.get(self.point_cell.key, 0)

    def pair_degree(self, k1, k2):
        """degree(tau_k1 * tau_k2) for two cell keys, read off the table."""
        return self._table[k1].get(k2, {}).get(self.point_cell.key, 0)

    def partners(self, key):
        """((cell key, degree), ...) over the cells whose product with the
        cell ``key`` has a nonzero degree, in cell order; read off
        pair_degree on first use and kept."""
        return self._partners[key]

    def pairing_matrix(self, p):
        """Matrix of degree(tau_{p,i} * tau_{n-p,j}) over the cell orderings;
        kept."""
        return self._pairings[p]

    def __repr__(self):
        return f"<ChowRing {self.name} dim={self.dimension} ranks={self.ranks}>"


def verify_pairing(ring):
    """Check that every pairing matrix P_p is the identity.

    P_p[i][j] = degree(tau_{p,i} * tau_{n-p,j}).  Violations are reported as
    (p, i, j, value) with 1-based cell indices.
    """
    matrices = {}
    violations = []
    for p in range(ring.dimension + 1):
        matrix = ring.pairing_matrix(p)
        matrices[p] = matrix
        for i, row in enumerate(matrix, start=1):
            for j, value in enumerate(row, start=1):
                if value != (1 if i == j else 0):
                    violations.append((p, i, j, value))
    return Report("pairing", ring.name, table={"matrices": matrices, "violations": violations})


# -- Kunneth products ---------------------------------------------------------

class KunnethRing(ChowRing):
    """Product ring A x B whose cells are ordered pairs of factor cells.

    Codimensions add and multiplication is componentwise.  Cells at
    codimension q are ordered by ascending left-factor codimension for
    2q <= dim, and by descending left-factor codimension above, so that dual
    cells of delta-normalized factors share their index in every degree where
    that is possible.  (At the middle degree of an even-dimensional product
    the pairing matrix is the duality involution's permutation matrix, which
    is the identity only when every middle cell is self-dual; in general no
    basis fixes this, the middle intersection form being indefinite.)

    Each cell maps to its pair of factor keys, {key: (a key, b key)}, and
    back; act and compose read that pair and the factors' partners.  Table
    rows are built from the factor rows on first read; degrees come from
    the factor degrees, so pairings and correspondences build no row.
    """

    def __init__(self, left, right):
        self.left = left
        self.right = right
        dimension = left.dimension + right.dimension
        # checked factors give sorted cells, contiguous indices and one unit and
        # point cell, so one pass indexes them; only label clashes are checked
        pk, pairs, cells, by_key, by_label, by_codim = {}, {}, [], {}, {}, {}
        for q in range(dimension + 1):
            codims = range(max(0, q - right.dimension), min(q, left.dimension) + 1)
            group = by_codim[q] = []
            for p in (reversed(codims) if 2 * q > dimension else codims):
                for a in left._by_codim[p]:
                    for b in right._by_codim[q - p]:
                        cell = BasisCell(q, len(group) + 1, f"({a.label},{b.label})")
                        if cell.label in by_label:
                            raise ValueError(f"duplicate cell label {cell.label!r}")
                        by_label[cell.label] = by_key[cell.key] = cell
                        group.append(cell)
                        pk[a.key, b.key] = cell.key
                        pairs[cell.key] = (a.key, b.key)
            cells += group
        self._pair_to_key, self._key_to_pair = pk, pairs
        self._index(dimension, f"{left.name} x {right.name}", tuple(cells), by_key, by_label, by_codim)
        # factor laws give the axioms componentwise; skip the cubic re-check
        self._table = _Kept(self._kron_row)

    def _kron_row(self, key):
        # (a x b) * (c x d) = (a * c) x (b * d): the row of a x b is the
        # Kronecker product of the factor rows of a and b
        a, b = self._key_to_pair[key]
        return kron(self.left._table[a], self.right._table[b], self._pair_to_key)

    def pair_degree(self, k1, k2):
        """deg_A(ac) * deg_B(bd) for (a x b) and (c x d); builds no row."""
        (a, b), (c, d) = self._key_to_pair[k1], self._key_to_pair[k2]
        return self.left.pair_degree(a, c) * self.right.pair_degree(b, d)


def _symmetric_table(entries, unit, keys, one, conflict, unit_law):
    """The table of a commutative product with a unit, as a ring and a model
    store it: {k1: {k2: entry}} with both orders of each (k1, k2, entry) of
    ``entries``, read in order, and the unit's row and column {key: one}
    at each of ``keys``.  Rows and entries keep their insertion order.  Two
    different entries for one pair raise conflict(k1, k2), and an entry at
    the unit that is not {key: one} raises unit_law(key)."""
    table = {}
    for k1, k2, entry in entries:
        for a, b in ((k1, k2), (k2, k1)):
            row = table.setdefault(a, {})
            if b not in row:
                row[b] = entry
            elif row[b] != entry:
                raise ValueError(conflict(a, b))
    for key in keys:
        expected = {key: one}
        if key in table.get(unit, ()) and table[unit][key] != expected:
            raise ValueError(unit_law(key))
        table.setdefault(unit, {})[key] = expected
        table.setdefault(key, {})[unit] = expected
    return table


class _Kept(dict):
    """A dict whose entry for a key is built by ``fill(key)`` on first read
    (``kept[key]``; ``dict.get`` would miss unbuilt entries) and kept: the
    memos a ring fills itself, such as its basis keys, partners, pairings
    and Kunneth products, and a Kunneth product's table rows."""

    __slots__ = ("_fill",)

    def __init__(self, fill):
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


def _kept(owner, build, *args):
    """build(owner, *args), built on its first read and kept in owner._kept
    under the build and its arguments for as long as owner lives: how a
    value that another module derives from a ring, a model, a projector
    family or a correspondence is kept.  A build that raises keeps nothing,
    so the next read raises again."""
    kept, key = owner._kept, (build, *args)
    if key not in kept:
        kept[key] = build(owner, *args)
    return kept[key]


def kunneth_product(left, right):
    """The product ring of two cellular rings, kept on the left factor so
    that it is freed together with its factors."""
    return left._kunneth[right]


def external_product(a, b):
    """a x b on kunneth_product of the two carrier rings."""
    ring = kunneth_product(a.ring, b.ring)
    coeffs = {}
    for ka, ca in a.coeffs.items():
        for kb, cb in b.coeffs.items():
            coeffs[ring._pair_to_key[(ka, kb)]] = ca * cb
    return _cycle(ring, coeffs)
