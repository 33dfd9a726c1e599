"""Chow-Kunneth decompositions and their lift along a fibration.

A cellular ring has an explicit decomposition of the diagonal into
orthogonal idempotents, one per even degree, acting as projection onto a
single codimension.  Over a fibration whose fiber is cellular, a
decomposition of the base lifts degree by degree: the fiber projector
family peels a cycle into base coefficients, each base projector is applied
to its slice, and the pieces are reassembled.  Everything here is verified
as exact identities on a full basis: through their action where the
projectors are cycles, and as matrices where they are operators.
verify_motive_isomorphism checks the map h(Y) = h(X) (x) h(Z) that carries
the lifted decomposition to the cellular one of the product ring.
"""

from __future__ import annotations

from .correspondences import _exact_columns, action_columns, zero_correspondence
from .fibrations import _extensions, add_system_checks, build_projector_family
from .linalg import (
    after,
    apply,
    block_rank,
    codim_blocks,
    combine,
    kron,
    matrix_sum,
)
from .motives import fiber_projectors
from .report import Check, Report
from .rings import ChowRing, kunneth_product
from .sampling import random_fibered_cycle, seeded_rng


# -- decomposition container ---------------------------------------------------


class CKDecomposition:
    """Projectors indexed by degree 0..2*dim, as cycles or as operators.

    The kind follows the space.  On a ChowRing it is "cycle": each projector
    is a degree-0 self-correspondence of the ring.  On a fibration model it
    is "operator": each projector is a sparse matrix (see linalg) whose
    column and row keys are all basis keys of the model.
    """

    def __init__(self, space, projectors, name=""):
        self.space = space
        self.projectors = projectors
        self.report = None  # verify_ck's report, once _checked has run it
        expected = set(range(2 * space.dimension + 1))
        if set(projectors) != expected:
            raise ValueError("projectors must cover every degree 0..2*dim exactly once")
        keys = set(space.basis_keys()) if self.kind == "operator" else None
        for k, p in projectors.items():
            if keys is not None:
                # every column key and every row key is a basis key of the model
                stray = next((r for b, col in p.items() for r in (b, *col) if r not in keys), None)
                if stray is not None:
                    raise ValueError(f"projector {k} has key {stray!r} outside the basis of {space.name}")
            elif p.source is not self.space or p.target is not self.space:
                raise ValueError(f"projector {k} is not a self-correspondence")
            elif not p.is_zero() and p.offset != 0:
                raise ValueError(f"projector {k} has nonzero degree")
        self.name = name or f"CK({space.name})"

    @property
    def kind(self):
        return "cycle" if isinstance(self.space, ChowRing) else "operator"

    def columns(self):
        """{degree: sparse matrix}; a cycle projector is read through its action."""
        if self.kind == "cycle":
            return {k: action_columns(p) for k, p in self.projectors.items()}
        return self.projectors


# -- verification --------------------------------------------------------------


def verify_action_window(ck):
    """Rank table of every projector in every codimension, with violations
    of the support window j <= k <= 2j."""
    return _action_window(ck, ck.columns())


def _action_window(ck, columns):
    """verify_action_window on the projectors' columns.  Only a codim where
    the projector has a column is ranked: the others have rank 0."""
    codim_of, blocks = codim_blocks(ck.space, columns)
    table, violations = {}, []
    for k, by_codim in blocks.items():
        for j in range(ck.space.dimension + 1):
            r = table[(k, j)] = block_rank(codim_of, by_codim, j) if j in by_codim else 0
            if r and not (j <= k <= 2 * j):
                violations.append((k, j, r))
    return Report("action-window", ck.name, table={"ranks": table, "violations": violations})


def verify_ck(ck):
    """Check (a) idempotence/orthogonality/completeness and (b) the action
    window, exactly.  Condition (c) is reported but never checked."""
    report = Report("chow-kunneth", ck.name)
    columns = ck.columns()
    whole = "diagonal" if ck.kind == "cycle" else "identity"
    grading = ("grading (projectors preserve codimension)",) if ck.kind == "operator" else ()
    add_system_checks(report, ck.space, columns, "projector", (
        *grading, "(a) idempotence", "(a) orthogonality", f"(a) completeness (sum = {whole})"
    ))
    action = _action_window(ck, columns)
    report.children.append(("action", action))
    report.add(
        "(b) action window (degree k acts only on codims j with j <= k <= 2j)",
        [f"degree {k} acts with rank {r} on codim {j}" for k, j, r in action.table["violations"]],
    )
    report.checks.append(Check("condition (c)", "not checked - out of scope", []))
    return report


# -- cellular construction -----------------------------------------------------


def cellular_ck(ring, validate=True):
    """The diagonal split by codimension: the even projector 2i sums the
    cell projectors (fiber_projectors, each cell crossed with its dual) of
    the codim-i cells, odd projectors vanish.

    Self-verifies on construction and raises when any condition fails.
    Each projector's action is the sum of its cell projectors' kept ones.
    """
    by_degree = {}
    for cell, p in zip(ring.cells, fiber_projectors(ring)):
        by_degree.setdefault(2 * cell.codim, []).append(p)
    zero = zero_correspondence(ring, ring, 0)
    projs = {k: sum(by_degree.get(k, ()), zero) for k in range(2 * ring.dimension + 1)}
    for k, p in projs.items():
        cells = by_degree.get(k, ())
        p._columns = _exact_columns(matrix_sum((1, action_columns(c)) for c in cells))
    return _checked(CKDecomposition(ring, projs, name=f"cellular CK of {ring.name}"), validate)


def _checked(ck, validate):
    """ck, carrying its verify_ck report when validate is set; a failed
    check raises with the full report."""
    if validate:
        ck.report = verify_ck(ck)
        if not ck.report.passed:
            raise ValueError("\n".join(ck.report.lines()))
    return ck


# -- the lift ------------------------------------------------------------------


def lifted_blocks(model):
    """{(i, j): block} in (i, j) order, the lift of the base's cellular CK,
    built and checked once per model and kept on its projector family.
    Block (i, 2q) places base projector i on the generators of codim q, and
    the degree-k lifted projector sums the blocks with i + j = k.  Zero
    blocks (odd j, a zero base projector, no generator of codim j/2) are
    left out; the rest are built in one pass."""
    family = build_projector_family(model)
    if family.blocks is None:
        maps = {}
        for i, phi in cellular_ck(model.base).columns().items():
            if not phi:
                continue
            for q in range(model.fiber.dimension + 1):
                slots = {g: phi for g in model.generators if g[0] == q}
                if slots:
                    maps[(i, 2 * q)] = slots
        family.blocks = family.placed_operators(maps)
    return family.blocks


def lift_ck(model, *, validate=True):
    """Lift the base's cellular Chow-Kunneth decomposition across the
    fibration: Pi_k sums the lifted blocks (i, j) with i + j = k.

    It is the only CK to lift on a cellular base: a degree-0 correspondence
    is fixed by its action (the pairings are perfect), and a genuine
    projector of degree 2j acts as the identity on CH^j and as zero on every
    other codim, as the cellular one does.  The base's CK is verified once
    per model (lifted_blocks); with validate, the lifted one is verified
    after assembly, and a failure raises with the full report.
    """
    terms = {k: [] for k in range(2 * model.dimension + 1)}
    for (i, j), m in lifted_blocks(model).items():
        terms[i + j].append((1, m))
    projs = {k: matrix_sum(ts) for k, ts in terms.items()}
    return _checked(CKDecomposition(model, projs, name=f"lifted CK of {model.name}"), validate)


def verify_block_diagonality(model, samples=20, seed=0):
    """Blocks compose like matrix units: a block followed by another is the
    first block again when the indices match and zero otherwise.  Checked on
    random cycles.  A block is applied to an image only when it has a
    nonzero column at one of the image's keys, since every other pair
    composes to exactly zero; the diagonal pair is always applied."""
    blocks = lifted_blocks(model)
    owners = {}  # basis key -> the blocks with a nonzero column there
    for key, m in blocks.items():
        for b in m:
            owners.setdefault(b, []).append(key)
    # the blocks that can meet an image of block key: itself, its rows' owners
    reach = {
        key: dict.fromkeys([key, *(o for col in m.values() for r in col for o in owners.get(r, ()))])
        for key, m in blocks.items()
    }
    rng = seeded_rng(seed)
    failures = []
    for s in range(samples):
        y = random_fibered_cycle(rng, model).vector()
        terms = {}
        for (g, k), c in y.items():
            for key in owners.get((g, k), ()):
                terms.setdefault(key, []).append((c, blocks[key][g, k]))
        failed = []
        for key in blocks:
            img = combine(terms.get(key, ()))
            for key2 in reach[key]:
                want = img if key2 == key else {}
                if apply(blocks[key2], img) != want:
                    failed.append((key2, key))
        failures += [
            f"sample {s}: block {key2} after block {key} is not "
            f"{'the block itself' if key2 == key else 'zero'}"
            for key2, key in sorted(failed)
        ]
    report = Report("projector-system", f"block diagonality on {model.name}")
    grid = (2 * model.base.dimension + 1) * (2 * model.fiber.dimension + 1)
    report.add(f"{samples} random cycles, {grid} blocks", failures, samples)
    return report


# -- batteries and cross-checks ------------------------------------------------


def ck_battery(model, battery=None):
    """Lift over the model itself and over its extension by each ambient
    factor, re-verifying every decomposition from scratch."""
    entries = [(model.name, lift_ck(model).report)]
    entries += [(extended.name, lift_ck(extended).report) for _, extended in _extensions(model, battery)]
    return Report("ambient-battery", f"Chow-Kunneth battery for {model.name}", children=entries)


# -- the motive isomorphism h(Y) = h(X) (x) h(Z) ---------------------------------


def _first_difference(what, lhs, rhs, keys):
    """[a failure naming the first of keys where the sparse matrices lhs and
    rhs differ], or [] when they agree on every key."""
    key = next((b for b in keys if lhs.get(b) != rhs.get(b)), None)
    return [] if key is None else [f"{what}: first differs at basis key {key}"]


def verify_motive_isomorphism(model):
    """The isomorphism h(Y) = h(X) (x) h(Z) as one exact map, checked column
    by column on the module basis.

    F: CH(Y) -> CH(X x Z) sends y to the sum of alpha_g(y) x [g]; building
    rho_g checks the laws under which alpha_g(y) is y's part at T_g, so F
    is the key relabeling (g, k) -> (k, g).  Its inverse B sends a x [g] to
    pi^*(a) * T_g, which the unit law makes the cycle {g: a}: the
    relabeling (k, g) -> (g, k).  Checked:
    B F = id (completeness), F B = id (the coordinate-projection lemma),
    F Pi_k = pi_k F against the cellular CK of the product ring, and
    F rho_g = (Delta_X (x) p_g) F against the fiber's cell projectors.  The
    right-hand sides are Kronecker products of factor actions: pi_k is the
    sum over i of pi^X_i (x) pi^Z_{k-i} over the factors' cellular CKs, and
    Delta_X (x) p_g is id_X (x) p_g.  They read the factor rings' pairings,
    never the model table, and build no product of X x Z with itself.
    """
    base, fiber = model.base, model.fiber
    ring = kunneth_product(base, fiber)
    pk = ring._pair_to_key
    rho = build_projector_family(model).projectors()
    keys, cells = model.basis_keys(), [cell.key for cell in ring.cells]
    F = {(g, k): {pk[k, g]: 1} for g, k in keys}
    B = {pk[k, g]: {(g, k): 1} for g, k in keys}
    Pi = lift_ck(model, validate=False).projectors
    pi_x, pi_z = (cellular_ck(r, validate=False).columns() for r in (base, fiber))
    pi = {
        k: matrix_sum((1, kron(pi_x[i], pi_z[k - i], pk)) for i in pi_x if k - i in pi_z)
        for k in Pi
    }
    ident = {k: {k: 1} for k in base.basis_keys()}
    cell_projectors = dict(zip(fiber.basis_keys(), fiber_projectors(fiber)))

    def intertwines(what, lhs, rhs):
        """F lhs = rhs F, compared on the module basis."""
        return _first_difference(what, after(F, lhs), after(rhs, F), keys)

    report = Report("projector-family", f"h({model.name}) = h({base.name}) x h({fiber.name})")
    report.add("B F = id (completeness)", _first_difference(
        "B F and id", after(B, F), {b: {b: 1} for b in keys}, keys), len(keys))
    report.add("F B = id (coordinate projection)", _first_difference(
        "F B and id", after(F, B), {c: {c: 1} for c in cells}, cells), len(cells))
    report.add("F Pi_k = pi_k F (lifted vs cellular CK)", [
        fail for k in Pi
        for fail in intertwines(f"degree {k}", Pi[k], pi[k])
    ], len(Pi))
    report.add("F rho_g = (Delta_X x p_g) F (peeled vs cell projectors)", [
        fail for g in model.generators
        for fail in intertwines(
            f"generator {g}", rho[g], kron(ident, action_columns(cell_projectors[g]), pk)
        )
    ], len(model.generators))
    return report
