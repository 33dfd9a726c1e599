"""Built-in rings and fibration models at desk scale.

Constructors are memoized where their arguments allow, so repeated lookups
return identical objects and memoized product rings are shared.  Every
entry validates at construction: rings run their axiom checks, models run
the full fibration validation and raise on failure.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .correspondences import MorphismData
from .fibrations import trivial_fibration, validate_fibration
from .rings import BasisCell, ChowRing
from .schubert import complement, lr_product, partitions_in_box


@lru_cache(maxsize=None)
def projective_space(n):
    """The ring of P^n: one cell h^p per codimension, h^a * h^b truncated."""
    if n < 0:
        raise ValueError("projective space needs n >= 0")

    def label(p):
        return "1" if p == 0 else ("h" if p == 1 else f"h^{p}")

    cells = [BasisCell(p, 1, label(p)) for p in range(n + 1)]
    products = {
        ((a, 1), (b, 1)): {(a + b, 1): 1}
        for a in range(n + 1)
        for b in range(a, n + 1)
        if a + b <= n
    }
    return ChowRing(n, cells, products, name="point" if n == 0 else f"P^{n}")


def point():
    return projective_space(0)


def schubert_label(lam):
    return "1" if not lam else "s[" + ",".join(str(p) for p in lam) + "]"


def grassmannian(k, n, max_dim=8):
    """Gr(k, n) with its Schubert basis, dual cells sharing their index.

    Partitions of weight p in the k x (n-k) box are ordered descending-lex
    up to the middle codimension and complement-mirrored above it, so the
    same-index duality convention holds.  At the middle this needs every
    partition self-complementary; that is automatic within the dimension
    guard and checked explicitly for any override (Gr(3,7) is the smallest
    failure).
    """
    if not 0 < k < n:
        raise ValueError("grassmannian needs 0 < k < n")
    dim = k * (n - k)
    if dim > max_dim:
        raise ValueError(
            f"Gr({k},{n}) has dimension {dim}, beyond the guard {max_dim}; "
            f"pass max_dim explicitly to override"
        )
    return _grassmannian(k, n)


@lru_cache(maxsize=None)
def _grassmannian(k, n):
    """The build behind ``grassmannian``, cached on (k, n) only."""
    rows, cols = k, n - k
    dim = rows * cols
    order = {}
    for p in range(dim + 1):
        if 2 * p > dim:
            order[p] = [complement(lam, rows, cols) for lam in order[dim - p]]
            continue
        plist = partitions_in_box(rows, cols, size=p)
        if 2 * p == dim:
            for lam in plist:
                dual = complement(lam, rows, cols)
                if dual != lam:
                    raise ValueError(
                        f"Gr({k},{n}) middle codim {p} pairs {lam} with {dual}; "
                        f"no same-index normalized cell basis exists"
                    )
        order[p] = plist
    index = {}
    cells = []
    for p in range(dim + 1):
        for i, lam in enumerate(order[p], start=1):
            index[lam] = (p, i)
            cells.append(BasisCell(p, i, schubert_label(lam)))
    products = {}
    for lam, key1 in index.items():
        for mu, key2 in index.items():
            if key1 > key2 or key1[0] + key2[0] > dim:
                continue
            entry = lr_product(lam, mu, rows, cols)
            products[(key1, key2)] = {index[nu]: c for nu, c in entry.items()}
    return ChowRing(dim, cells, products, name=f"Gr({k},{n})")


def projective_bundle_model(base, chern, rank=None, name=None):
    """The fibration model of P(E) for a bundle E with the given Chern roots.

    ``chern`` lists c_1..c_m as cycles on the base (or {label: coeff}
    mappings); the rank defaults to m + 1, so the fiber is P^m and trailing
    Chern classes vanish.  Generators are the powers of the relative
    hyperplane class xi; products reduce through the defining relation
    xi^r = -(pi^*(c_1) xi^{r-1} + ... + pi^*(c_r)).  These raw powers
    already satisfy the duality pattern (lower powers have zero pushforward
    and the leading coefficient is 1), so no change of generators is needed;
    the model is still fully validated and construction fails loudly if any
    law breaks.
    """
    chern = [base.cycle(c) if isinstance(c, dict) else c for c in chern]
    r = len(chern) + 1 if rank is None else rank
    if r < 1:
        raise ValueError("bundle rank must be at least 1")
    if len(chern) > r:
        raise ValueError(f"got {len(chern)} Chern classes for a rank-{r} bundle")
    cs = list(chern) + [base.zero()] * (r - len(chern))
    for i, c in enumerate(cs, start=1):
        if c.ring is not base:
            raise ValueError(f"c_{i} must live on {base.name}")
        if not c.is_zero() and c.codims() != [i]:
            raise ValueError(f"c_{i} must be homogeneous of codim {i}")
        if any(type(v) is not int for v in c.coeffs.values()):
            # a model's table is integral, and dump_fibration writes ints only
            raise ValueError(f"c_{i} must have integer coefficients, got {c!r}")
    fiber = projective_space(r - 1)

    # xi-power coordinates: vec[t] is the coefficient of xi^t, t < r
    def xi_times(vec):
        out = [base.zero() for _ in range(r)]
        for t in range(r - 1):
            out[t + 1] = out[t + 1] + vec[t]
        top = vec[r - 1]
        if not top.is_zero():
            for i in range(1, r + 1):
                out[r - i] = out[r - i] - base.multiply(top, cs[i - 1])
        return out

    powers = [[base.unit() if t == 0 else base.zero() for t in range(r)]]
    for _ in range(2 * r - 2):
        powers.append(xi_times(powers[-1]))

    table = {}
    for p in range(r):
        for q in range(p, r):
            vec = powers[p + q]
            table[((p, 1), (q, 1))] = {
                (t, 1): vec[t] for t in range(r) if not vec[t].is_zero()
            }
    from .fibrations import FibrationModel

    model = FibrationModel(
        base, fiber, table,
        name=name or f"pbundle({base.name}; r={r})",
        is_trivial=all(c.is_zero() for c in cs),
    )
    report = validate_fibration(model)
    if not report.passed:
        raise ValueError("\n".join(report.lines()))
    return model


@lru_cache(maxsize=None)
def hirzebruch(a):
    """The Hirzebruch surface: the plane bundle of twist a over the line."""
    base = projective_space(1)
    return projective_bundle_model(base, [base.cycle({"h": a})], name=f"hirzebruch({a})")


@lru_cache(maxsize=None)
def product_model(base, fiber):
    """Trivial fibration with catalog naming, not re-validated: its laws are the fiber's."""
    return trivial_fibration(base, fiber, name=f"{base.name} x {fiber.name}")


def linear_embedding(m, n):
    """The inclusion of a linear P^m in P^n as validated morphism data."""
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    src, tgt = projective_space(m), projective_space(n)
    pull = {
        (p, 1): src.basis_cycle((p, 1)) if p <= m else src.zero()
        for p in range(n + 1)
    }
    push = {(p, 1): tgt.basis_cycle((p + n - m, 1)) for p in range(m + 1)}
    return MorphismData(src, tgt, pull, push, name=f"P^{m} -> P^{n} linear")


@lru_cache(maxsize=None)
def _pbundle_p2_h():
    base = projective_space(2)
    return projective_bundle_model(base, [base.cycle({"h": 1})], name="pbundle(P^2; c1=h)")


_NAMED = {"pbundle:p2:h": _pbundle_p2_h}


def resolve(name):
    """Build a catalog ring or model from its name.

    Grammar: point | p<n> | gr<k><n> | hirzebruch:<a> |
    product:<ring>,<ring>, plus the fixed examples in catalog_entries().
    """
    text = name.strip().lower()
    if text in _NAMED:
        return _NAMED[text]()
    if text == "point":
        return projective_space(0)
    if re.fullmatch(r"p\d+", text):
        n = int(text[1:])
        # the associativity check at construction is quadratic in n
        if n > 100:
            raise ValueError(f"P^{n} has dimension {n}, beyond the guard 100")
        return projective_space(n)
    if re.fullmatch(r"gr\d\d", text):
        return grassmannian(int(text[2]), int(text[3]))
    if text.startswith("hirzebruch:"):
        arg = text.split(":", 1)[1]
        try:
            a = int(arg)
        except ValueError:
            raise ValueError(f"hirzebruch twist must be an integer, got {arg!r}") from None
        return hirzebruch(a)
    if text.startswith("product:"):
        factors = text.split(":", 1)[1].split(",")
        if len(factors) != 2:
            raise ValueError("product takes exactly two factor names")
        left, right = (resolve(f) for f in factors)
        for part in (left, right):
            if not isinstance(part, ChowRing):
                raise ValueError("product factors must be rings, not models")
        return product_model(left, right)
    raise ValueError(
        f"unknown catalog name {name!r}; expected point, p<n>, gr<k><n>, "
        f"hirzebruch:<a>, product:<x>,<y>, or one of {sorted(_NAMED)}"
    )


class CatalogEntry:
    """A named catalog object and how to read its name."""

    def __init__(self, name, kind, parameters, description):
        self.name = name
        self.kind = kind  # "ring" | "model"
        self.parameters = parameters
        self.description = description

    def build(self):
        return resolve(self.name)


def catalog_entries():
    entries = [
        CatalogEntry("point", "ring", "", "zero-dimensional ring"),
        CatalogEntry("p1", "ring", "n=1", "projective line"),
        CatalogEntry("p2", "ring", "n=2", "projective plane"),
        CatalogEntry("p3", "ring", "n=3", "projective 3-space"),
        CatalogEntry("p4", "ring", "n=4", "projective 4-space"),
        CatalogEntry("gr24", "ring", "k=2, n=4", "Grassmannian of 2-planes in 4-space"),
        CatalogEntry("gr25", "ring", "k=2, n=5", "Grassmannian of 2-planes in 5-space"),
        CatalogEntry("hirzebruch:0", "model", "a=0", "trivial plane bundle over the line"),
        CatalogEntry("hirzebruch:1", "model", "a=1", "Hirzebruch surface of twist 1"),
        CatalogEntry("hirzebruch:2", "model", "a=2", "Hirzebruch surface of twist 2"),
        CatalogEntry("product:p1,p1", "model", "", "trivial fibration, line over line"),
        CatalogEntry("product:p2,p1", "model", "", "trivial fibration, line over plane"),
        CatalogEntry("product:p1,p2", "model", "", "trivial fibration, plane over line"),
        CatalogEntry("product:p2,gr24", "model", "", "trivial fibration, Gr(2,4) over plane"),
        CatalogEntry("pbundle:p2:h", "model", "c_1 = h", "projective bundle over the plane"),
    ]
    return tuple(entries)


def standard_rings():
    """The rings every pairing check runs over."""
    return [projective_space(p) for p in range(5)] + [grassmannian(2, 4), grassmannian(2, 5)]


def standard_models():
    """The fibration models the theorem suites quantify over."""
    fibers = [projective_space(1), projective_space(2), grassmannian(2, 4)]
    models = [
        product_model(projective_space(m), fiber)
        for m in range(3)
        for fiber in fibers
    ]
    models += [hirzebruch(a) for a in (0, 1, 2)]
    models.append(_pbundle_p2_h())
    return models
