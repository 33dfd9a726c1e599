"""Seeded random cycles, fibered cycles, and correspondences.

Everything here is deterministic given the Random instance's seed; bounds
default to small integers since the identities under test are exact and the
samples only exercise implementation paths.
"""

from __future__ import annotations

import random

from .correspondences import Correspondence
from .rings import Cycle, kunneth_product


def seeded_rng(seed):
    return random.Random(seed)


def random_cycle(rng, ring, bound=10, codim=None):
    """A random cycle, homogeneous of the given codim when one is passed."""
    # randint(a, b) is randrange(a, b + 1): the same draws, one call fewer
    draw, top = rng.randrange, bound + 1
    return Cycle(ring, {k: draw(-bound, top) for k in ring.basis_keys(codim)})


def random_fibered_cycle(rng, model, bound=10, codim=None):
    """A random element of a fibration model, optionally of pure total codim."""
    parts = {}
    for g in model.generators:
        if codim is None:
            parts[g] = random_cycle(rng, model.base, bound)
        else:
            q = codim - g[0]
            if 0 <= q <= model.base.dimension:
                parts[g] = random_cycle(rng, model.base, bound, codim=q)
    return model.cycle(parts)


def random_correspondence(rng, source, target, offset=0, bound=10):
    ring = kunneth_product(source, target)
    cyc = random_cycle(rng, ring, bound, codim=source.dimension + offset)
    return Correspondence(source, target, cyc, offset)
