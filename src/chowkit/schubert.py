"""Partition combinatorics and Schubert-class products in a k x (n-k) box.

Partitions are tuples of weakly decreasing positive integers; the empty tuple
is the unit class.  Products live in the Chow ring of a Grassmannian, so any
partition leaving the box indexes the zero class and is dropped.

Products follow the Littlewood-Richardson rule, counting lattice-word skew
tableaux; the tests check it exhaustively against an independent route that
only ever uses the Pieri rule.
"""

from __future__ import annotations


def fits_in_box(lam, rows, cols):
    lam = tuple(lam)
    return len(lam) <= rows and all(cols >= p > 0 for p in lam) and all(
        lam[i] >= lam[i + 1] for i in range(len(lam) - 1)
    )


def partitions_in_box(rows, cols, size=None):
    """Partitions fitting in a rows x cols box, descending lex order.

    With ``size`` given, only partitions of that weight.
    """
    acc = [()]
    if rows > 0 and cols > 0:
        _grow(acc, (), cols, rows)
    if size is not None:
        acc = [lam for lam in acc if sum(lam) == size]
    return sorted(acc, reverse=True)


# the recursions are module functions, not closures: a closure that calls
# itself holds itself through its cell, and the pair is cyclic garbage
def _grow(acc, prefix, cap, rows):
    """Append to acc every partition that extends prefix by parts <= cap."""
    for part in range(1, cap + 1):
        lam = prefix + (part,)
        acc.append(lam)
        if len(lam) < rows:
            _grow(acc, lam, part, rows)


def complement(lam, rows, cols):
    """The dual partition in the box: row i maps to cols - lam_{rows+1-i}."""
    lam = tuple(lam)
    if not fits_in_box(lam, rows, cols):
        raise ValueError(f"{lam} does not fit in a {rows}x{cols} box")
    padded = lam + (0,) * (rows - len(lam))
    out = tuple(cols - padded[rows - 1 - i] for i in range(rows))
    return tuple(p for p in out if p)


def lr_coefficient(lam, mu, nu):
    """Littlewood-Richardson coefficient c^nu_{lam mu}.

    Counts semistandard skew tableaux of shape nu/lam and content mu whose
    reverse reading word (right to left along rows, top row first) is a
    lattice word.
    """
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if sum(nu) != sum(lam) + sum(mu) or len(lam) > len(nu):
        return 0
    padded = lam + (0,) * (len(nu) - len(lam))
    if any(padded[i] > nu[i] for i in range(len(nu))):
        return 0
    # cells in reverse reading order
    cells = [(r, c) for r in range(len(nu)) for c in range(nu[r] - 1, padded[r] - 1, -1)]
    return _fill(0, cells, nu, padded, mu, [0] * (len(mu) + 1), {})


def _fill(pos, cells, nu, padded, mu, counts, grid):
    """The lattice-word fillings of cells[pos:] given the values in grid,
    with counts[v] the number of v's placed so far."""
    if pos == len(cells):
        return 1
    r, c = cells[pos]
    ceiling = grid[(r, c + 1)] if c + 1 < nu[r] else len(mu)
    floor = grid[(r - 1, c)] + 1 if r > 0 and c >= padded[r - 1] else 1
    total = 0
    for v in range(floor, ceiling + 1):
        if counts[v] >= mu[v - 1]:
            continue
        if v > 1 and counts[v] >= counts[v - 1]:
            continue  # lattice condition would break at this prefix
        counts[v] += 1
        grid[(r, c)] = v
        total += _fill(pos + 1, cells, nu, padded, mu, counts, grid)
        counts[v] -= 1
        del grid[(r, c)]
    return total


def lr_product(lam, mu, rows, cols):
    """sigma_lam * sigma_mu in the box ring, as {nu: coefficient}."""
    lam, mu = tuple(lam), tuple(mu)
    if not (fits_in_box(lam, rows, cols) and fits_in_box(mu, rows, cols)):
        return {}
    out = {}
    for nu in partitions_in_box(rows, cols, size=sum(lam) + sum(mu)):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[nu] = c
    return out
