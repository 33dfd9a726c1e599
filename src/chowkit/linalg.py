"""Small exact linear algebra over Fraction.

Matrices are tuples of row tuples.  Entries are ints or Fractions; nothing
here ever produces a float.
"""

from __future__ import annotations

from fractions import Fraction


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    cols = range(len(b[0])) if b else ()
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(len(b))) for j in cols) for row in a
    )


def transpose(a):
    if not a:
        return ()
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


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
