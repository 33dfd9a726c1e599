"""Seeded inputs for the benchmark and the checks it computes without chowkit.

Everything here is plain Python: the generated documents and the expected
Betti numbers are derived from first principles (Schubert calculus on
Gr(2,4), the projective bundle relation, Gaussian binomials), so a check
that compares them with chowkit's report is an independent route.
"""

from __future__ import annotations

import random
import re

# -- Betti numbers (ranks of the Chow groups by codimension) ----------------


def betti_projective(n):
    return [1] * (n + 1)


def betti_grassmannian(k, n):
    """Coefficients of the Gaussian binomial [n choose k]_q: partitions of
    each weight in a k x (n - k) box."""
    rows, cols = k, n - k
    counts = [0] * (rows * cols + 1)

    def grow(parts, cap, size):
        if len(parts) == rows:
            counts[size] += 1
            return
        for part in range(cap, -1, -1):
            grow(parts + [part], part, size + part)

    grow([], cols, 0)
    return counts


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# -- the Schubert ring of Gr(2,4), by cell label ------------------------------

GR24_CELLS = (("1", 0), ("s[1]", 1), ("s[2]", 2), ("s[1,1]", 2), ("s[2,1]", 3), ("s[2,2]", 4))
# codim-2 cells in the catalog's order (descending lex), so s[2] has index 1
GR24_INDEX = {"1": 1, "s[1]": 1, "s[2]": 1, "s[1,1]": 2, "s[2,1]": 1, "s[2,2]": 1}
_GR24_PRODUCTS = {
    ("s[1]", "s[1]"): {"s[2]": 1, "s[1,1]": 1},
    ("s[1]", "s[2]"): {"s[2,1]": 1},
    ("s[1]", "s[1,1]"): {"s[2,1]": 1},
    ("s[1]", "s[2,1]"): {"s[2,2]": 1},
    ("s[2]", "s[2]"): {"s[2,2]": 1},
    ("s[1,1]", "s[1,1]"): {"s[2,2]": 1},
}


def gr24_product(a, b):
    """Product of two Gr(2,4) Schubert cells as {label: coefficient}."""
    if a == "1":
        return {b: 1}
    if b == "1":
        return {a: 1}
    return dict(_GR24_PRODUCTS.get((a, b)) or _GR24_PRODUCTS.get((b, a)) or {})


def gr24_multiply(x, y):
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for c, v in gr24_product(a, b).items():
                out[c] = out.get(c, 0) + ca * cb * v
    return {c: v for c, v in out.items() if v}


def _subtract(x, y):
    out = dict(x)
    for c, v in y.items():
        out[c] = out.get(c, 0) - v
    return {c: v for c, v in out.items() if v}


# -- generated documents ------------------------------------------------------

P2_LABELS = ("1", "h", "h^2")


def bundle_document(seed):
    """A rank-3 projective bundle over Gr(2,4) whose Chern classes are drawn
    from the seed: c1 = a s[1], c2 = b s[2] + c s[1,1], c3 = d s[2,1] with
    a..d in [-3, 3].  The fiber generators are the powers of xi, reduced by
    xi^3 = -(c1 xi^2 + c2 xi + c3)."""
    rng = random.Random(f"bundle-{seed}")
    a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
    chern = [{"s[1]": a}, {"s[2]": b, "s[1,1]": c}, {"s[2,1]": d}]
    chern = [{k: v for k, v in ci.items() if v} for ci in chern]
    r = 3
    # powers[t] lists the base coefficients of xi^0..xi^{r-1} in xi^t
    powers = [[{"1": 1}, {}, {}]]
    for _ in range(2 * r - 2):
        vec = powers[-1]
        out = [{}] + [dict(v) for v in vec[: r - 1]]
        top = vec[r - 1]
        if top:
            for i in range(1, r + 1):
                out[r - i] = _subtract(out[r - i], gr24_multiply(top, chern[i - 1]))
        powers.append(out)
    t_products = []
    for p in range(1, r):
        for q in range(p, r):
            t_products.append(
                {
                    "left": P2_LABELS[p],
                    "right": P2_LABELS[q],
                    "components": [
                        {"generator": P2_LABELS[t], "base_cycle": dict(sorted(coeffs.items()))}
                        for t, coeffs in enumerate(powers[p + q])
                        if coeffs
                    ],
                }
            )
    return {
        "name": f"pbundle(Gr(2,4); c=({a},{b},{c},{d}))",
        "base": "gr24",
        "fiber": "p2",
        "t_products": t_products,
    }


P3_LABELS = ("1", "h", "h^2", "h^3")


def product_ring_document(seed):
    """The ring of Gr(2,4) x P^3 (dimension 7), cells ordered so that dual
    cells share their index, with the cell and product lists shuffled and
    each product's factors swapped at random by the seed."""
    rng = random.Random(f"ring-{seed}")
    left = [(label, codim, GR24_INDEX[label]) for label, codim in GR24_CELLS]
    right = [(label, codim, 1) for codim, label in enumerate(P3_LABELS)]
    dimension = 4 + 3
    cells = []
    for q in range(dimension + 1):
        pairs = [(a, b) for a in left for b in right if a[1] + b[1] == q]
        reverse = 2 * q > dimension
        pairs.sort(key=lambda ab: (-ab[0][1] if reverse else ab[0][1], ab[0][2], ab[1][2]))
        for i, (a, b) in enumerate(pairs, start=1):
            cells.append({"codim": q, "index": i, "label": f"({a[0]},{b[0]})", "pair": (a, b)})
    products = []
    for i, x in enumerate(cells):
        for y in cells[i:]:
            (a1, b1), (a2, b2) = x["pair"], y["pair"]
            if a1[1] + b1[1] == 0 or a2[1] + b2[1] == 0:
                continue
            if a1[1] + b1[1] + a2[1] + b2[1] > dimension:
                continue
            pa = gr24_product(a1[0], a2[0])
            pb = b1[1] + b2[1]
            if not pa or pb > 3:
                continue
            result = [
                {"label": f"({label},{P3_LABELS[pb]})", "coeff": coeff}
                for label, coeff in sorted(pa.items())
            ]
            pair = [x["label"], y["label"]]
            if rng.random() < 0.5:
                pair.reverse()
            products.append({"left_label": pair[0], "right_label": pair[1], "result": result})
    cells = [{k: v for k, v in cell.items() if k != "pair"} for cell in cells]
    rng.shuffle(cells)
    rng.shuffle(products)
    return {"name": "Gr(2,4) x P^3", "dimension": dimension, "cells": cells, "products": products}


# -- independent checks on a report ----------------------------------------------


def _find(node, check):
    """Every dict in a report tree whose "check" field equals ``check``."""
    if isinstance(node, dict):
        if node.get("check") == check:
            yield node
        for value in node.values():
            yield from _find(value, check)
    elif isinstance(node, list):
        for value in node:
            yield from _find(value, check)


def check_ranks(report, betti):
    """Misses of the report against the target's Betti numbers: the degree-2j
    Chow-Kunneth projector acts with rank betti[j] on codim j and nowhere
    else, there is one motive piece per cell with the cell's codim, and a
    ring's pairing matrices are identities of size betti[p]."""
    misses = []
    windows = list(_find(report, "action-window"))
    for window in windows:
        for entry in window["table"]:
            k, j, r = entry["degree"], entry["codim"], entry["rank"]
            want = betti[j] if k == 2 * j else 0
            if r != want:
                misses.append(f"{window['name']}: rank {r} at degree {k}, codim {j}; expected {want}")
    for dec in _find(report, "motive-decomposition"):
        # a ring lists its pieces' codims apart, a model inside each piece
        codims = dec.get("codim_profile") or [piece["codim"] for piece in dec["pieces"]]
        profile = [codims.count(p) for p in range(len(betti))]
        if profile != betti:
            misses.append(f"motive pieces by codim {profile}, expected {betti}")
    return misses, len(windows)


def check_pairing(report, betti):
    misses = []
    found = list(_find(report, "pairing"))
    for rep in found:
        matrices = rep["matrices"]
        if sorted(matrices, key=int) != [str(p) for p in range(len(betti))]:
            misses.append(f"pairing on {rep['ring']}: codims {sorted(matrices, key=int)}")
            continue
        for p, m in matrices.items():
            n = betti[int(p)]
            if m != [[int(i == j) for j in range(n)] for i in range(n)]:
                misses.append(f"pairing on {rep['ring']}: P_{p} is not the {n}x{n} identity")
    return misses, len(found)


_INSTANCES = re.compile(r"\((\d+) instances\)")


def check_identity_counts(report, samples):
    """Every sampled identity ran exactly ``samples`` instances: 7 identities
    on (P^1, P^2) plus the 9 oracle triples over P^1, P^2 and Gr(2,4)."""
    misses = []
    sampled = 0
    for suite in report["suites"]:
        for line in suite["lines"]:
            m = _INSTANCES.search(line)
            if not m:
                continue
            n = int(m.group(1))
            if "ambient factor" in line:
                if n < 1:
                    misses.append(f"vacuous: {line.strip()}")
                continue
            sampled += 1
            if n != samples:
                misses.append(f"{line.strip()}: expected {samples} instances")
    if sampled != 16:
        misses.append(f"{sampled} sampled identities, expected 16")
    return misses
