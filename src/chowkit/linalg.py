"""Small exact linear algebra over Fraction.

Dense matrices are tuples of row tuples.  A sparse matrix is a flat map
{basis key: nonzero column {basis key: coefficient}} on the basis of a
FibrationModel or a ChowRing (space.basis_keys(p) lists the codim-p keys);
a missing key is a zero column, and no column is empty.  Every model
operator, every cycle projector's action_columns and every morphism's
pullback and pushforward table is held this way.
Entries are ints or Fractions; nothing here ever produces a float.
"""

from __future__ import annotations

from fractions import Fraction


def rank(a):
    """Rank by Gaussian elimination over Fraction; zero rows are skipped."""
    return len(pivot_columns(a))


def pivot_columns(a):
    """The pivot columns of an echelon form of ``a``, ascending: each is the
    first column outside the span of the columns before it.  Rows are
    reduced below each pivot only, by exact int or Fraction factors."""
    work = [list(row) for row in a if any(row)]
    pivots = []
    for col in range(len(work[0]) if work else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        for i in range(r + 1, len(work)):
            if work[i][col] != 0:
                # an exact integer quotient keeps integer rows integral
                q, rem = divmod(work[i][col], top[col])
                factor = Fraction(work[i][col], top[col]) if rem else q
                work[i] = [x - factor * y for x, y in zip(work[i], top)]
        pivots.append(col)
    return pivots


def invert(a):
    """Exact inverse by Gauss-Jordan elimination.  Raises on singular input."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("invert needs a square matrix")
    work = [[Fraction(x) for x in row] for row in a]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = work[col][col]
        work[col] = [x / scale for x in work[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
                inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv)


# -- sparse matrices {basis key: nonzero column} --------------------------------


def combine(terms):
    """The sparse vector sum of scale * vec over (scale, vec) pairs."""
    out = {}
    for scale, vec in terms:
        for key, c in vec.items():
            out[key] = out.get(key, 0) + scale * c
    return {key: c for key, c in out.items() if c}


def apply(f, vec):
    """The image of a sparse vector under the sparse matrix f, summed in
    one dict whose zeros are dropped once."""
    out = {}
    for key, c in vec.items():
        col = f.get(key)
        if col is not None:
            for b, v in col.items():
                out[b] = out.get(b, 0) + c * v
    return out if all(out.values()) else {b: v for b, v in out.items() if v}


def after(f, g):
    """The sparse matrix f after g."""
    return {b: image for b, col in g.items() if (image := apply(f, col))}


def matrix_sum(terms):
    """The sum of scale * m over (scale, sparse matrix m) pairs."""
    cols = {}
    for scale, m in terms:
        for b, col in m.items():
            cols.setdefault(b, []).append((scale, col))
    return {b: col for b, vecs in cols.items() if (col := combine(vecs))}


def kron(f, g, pk, rows=None):
    """The Kronecker product of the sparse matrices f and g, its columns
    keyed through a Kunneth product's pair map pk and its rows through
    ``rows`` (pk by default): column (a, b) is column a of f times column b
    of g.  A column pair with an empty side is left out."""
    rows = pk if rows is None else rows
    return {
        pk[a, b]: {rows[k1, k2]: c1 * c2 for k1, c1 in fa.items() for k2, c2 in gb.items()}
        for a, fa in f.items() if fa
        for b, gb in g.items() if gb
    }


def codim_blocks(space, systems):
    """The codim of every basis key of space, and {name: {p: [column]}}: the
    columns of each sparse matrix in systems grouped by the codim of their
    key, once."""
    codim_of = {b: p for p in range(space.dimension + 1) for b in space.basis_keys(p)}
    blocks = {name: {} for name in systems}
    for name, columns in systems.items():
        for b, col in columns.items():
            blocks[name].setdefault(codim_of[b], []).append(col)
    return codim_of, blocks


def block_rank(codim_of, by_codim, p):
    """The rank of block p of one matrix's codim_blocks, laid out on its
    codim-p rows only: an image component outside codim p never raises it."""
    block = by_codim.get(p, ())
    rows = dict.fromkeys(r for col in block for r in col if codim_of[r] == p)
    return rank(tuple(tuple(col.get(r, 0) for col in block) for r in rows)) if rows else 0


def projector_system_failures(space, systems):
    """Where {name: sparse matrix} on the basis of space fail to be a complete
    system of orthogonal idempotents, by failing codim p: ([(k, p)] not
    idempotent, [(l, k, p)] l after k nonzero, [p] sum not identity).

    Over Q, idempotents summing to the identity are orthogonal: tr P = rank P,
    so the image ranks add up to dim V and the images' sum is direct.  Pairwise
    products run only when a square or the sum fails, to name witnesses."""
    codim_of = {b: p for p in range(space.dimension + 1) for b in space.basis_keys(p)}
    idem = []
    for k, f in systems.items():
        square = after(f, f)
        bad = {codim_of[b] for b in square.keys() | f.keys() if square.get(b, {}) != f.get(b, {})}
        idem += [(k, p) for p in sorted(bad)]
    total = matrix_sum((1, f) for f in systems.values())
    complete = sorted({p for b, p in codim_of.items() if total.get(b) != {b: 1}})
    orth = []
    if idem or complete:
        for k, f in systems.items():
            for l, g in systems.items():
                if l != k:
                    orth += [(l, k, p) for p in sorted({codim_of[b] for b in after(g, f)})]
    return idem, orth, complete
