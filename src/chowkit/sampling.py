"""Seeded random cycles, fibered cycles, and correspondences.

Everything here is deterministic given the Random instance's seed; bounds
default to small integers since the identities under test are exact and the
samples only exercise implementation paths.
"""

from __future__ import annotations

import random

from .correspondences import _correspondence
from .rings import _cycle, kunneth_product


def seeded_rng(seed):
    return random.Random(seed)


def random_cycle(rng, ring, bound=10, codim=None):
    """A random cycle, homogeneous of the given codim when one is passed,
    each coefficient drawn as ``rng.randint(-bound, bound)``."""
    return _cycle(ring, _draw(rng, ring.basis_keys(codim), bound))


def _draw(rng, keys, bound):
    """{key: nonzero coefficient} over keys, in order, each coefficient drawn
    as ``rng.randint(-bound, bound)``: the one draw of rings and models."""
    if type(bound) is not int:
        raise TypeError(f"random_cycle: bound must be an int, got {bound!r}")
    if bound < 0:
        raise ValueError(f"random_cycle: bound must be nonnegative, got {bound}")
    # randint(-bound, bound) redraws getrandbits(k) until it is below the
    # width, then subtracts bound: the same values and generator state
    # (CPython 3.10-3.13), without its two Python frames per coefficient
    width = 2 * bound + 1
    draw, k, coeffs = rng.getrandbits, width.bit_length(), {}
    for key in keys:
        r = draw(k)
        while r >= width:
            r = draw(k)
        if r != bound:
            coeffs[key] = r - bound
    return coeffs


def _randint(rng, low, high):
    """rng.randint(low, high) by _draw's loop, same value and state;
    an empty range is refused first, as getrandbits(0) is 0 forever."""
    width = high - low + 1
    if width <= 0:
        raise ValueError(f"empty range for a draw: ({low}, {high})")
    draw, k = rng.getrandbits, width.bit_length()
    r = draw(k)
    while r >= width:
        r = draw(k)
    return low + r


def random_fibered_cycle(rng, model, bound=10, codim=None):
    """A random element of a fibration model, optionally of pure total codim:
    one draw over the model's basis keys, regrouped by generator."""
    parts = {}
    for (g, key), c in _draw(rng, model.basis_keys(codim), bound).items():
        parts.setdefault(g, {})[key] = c
    return model.cycle({g: _cycle(model.base, coeffs) for g, coeffs in parts.items()})


def random_correspondence(rng, source, target, offset=0, bound=10):
    ring = kunneth_product(source, target)
    cyc = random_cycle(rng, ring, bound, codim=source.dimension + offset)
    return _correspondence(source, target, ring, cyc, offset)
