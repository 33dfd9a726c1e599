"""Chow-Kunneth decompositions and their lift along a fibration.

A cellular ring has an explicit decomposition of the diagonal into
orthogonal idempotents, one per even degree, acting as projection onto a
single codimension.  Over a fibration whose fiber is cellular, a
decomposition of the base lifts degree by degree: the fiber projector
family peels a cycle into base coefficients, each base projector is applied
to its slice, and the pieces are reassembled.  Everything here is verified
as exact identities on a full basis: through their action where the
projectors are cycles, and as matrices where they are operators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .correspondences import (
    Correspondence,
    _demote,
    _external_into,
    act,
    action_columns,
    dual_basis_cycles,
    zero_correspondence,
)
from .fibrations import (
    ambient_extend,
    build_projector_family,
    column_matrix,
    from_kunneth,
    projector_system_failures,
    to_kunneth,
    zero_operator,
)
from .linalg import rank as matrix_rank
from .report import Check, Report
from .rings import ChowRing, kunneth_product
from .sampling import random_fibered_cycle, seeded_rng


# -- decomposition container ---------------------------------------------------


@dataclass
class CKDecomposition:
    """Projectors indexed by degree 0..2*dim, as cycles or as operators.

    The kind follows the space.  On a ChowRing it is "cycle": each projector
    is a degree-0 self-correspondence of the ring.  On a fibration model it
    is "operator": each projector is a YOperator on the model.
    """

    space: object
    projectors: dict
    name: str = ""
    report: object = None

    def __post_init__(self):
        expected = set(range(2 * self.space.dimension + 1))
        if set(self.projectors) != expected:
            raise ValueError("projectors must cover every degree 0..2*dim exactly once")
        for k, p in self.projectors.items():
            if self.kind == "cycle":
                if p.source is not self.space or p.target is not self.space:
                    raise ValueError(f"projector {k} is not a self-correspondence")
                if not p.is_zero() and p.offset != 0:
                    raise ValueError(f"projector {k} has nonzero degree")
            else:
                if p.model is not self.space:
                    raise ValueError(f"projector {k} lives on the wrong model")
        if not self.name:
            self.name = f"CK({self.space.name})"

    @property
    def kind(self):
        return "cycle" if isinstance(self.space, ChowRing) else "operator"

    @property
    def top_degree(self):
        return 2 * self.space.dimension

    def projector(self, k):
        return self.projectors[k]

    def columns(self):
        """{degree: sparse columns}; a cycle projector is read through its action."""
        if self.kind == "cycle":
            return {k: action_columns(p) for k, p in self.projectors.items()}
        return {k: op.columns for k, op in self.projectors.items()}


# -- verification --------------------------------------------------------------


def verify_action_window(ck):
    """Rank table of every projector in every codimension, with violations
    of the support window j <= k <= 2j."""
    return _action_window(ck.name, ck.columns())


def _action_window(name, columns):
    """verify_action_window on the columns ck.columns() returned."""
    table, violations = {}, []
    for k, system in columns.items():
        for j, cols in system.items():
            r = table[(k, j)] = matrix_rank(column_matrix(cols))
            if r and not (j <= k <= 2 * j):
                violations.append((k, j, r))
    return Report("action-window", name, table={"ranks": table, "violations": violations})


def verify_ck(ck):
    """Check (a) idempotence/orthogonality/completeness and (b) the action
    window, exactly.  Condition (c) is reported but never checked."""
    report = Report("chow-kunneth", ck.name)
    columns = ck.columns()
    idem, orth, complete = projector_system_failures(columns)
    if ck.kind == "cycle":
        report.add("(a) idempotence", [
            f"projector {k} is not idempotent" for k in dict.fromkeys(k for k, _ in idem)
        ])
        report.add("(a) orthogonality", [
            f"projectors {l} and {k} do not compose to zero"
            for l, k in dict.fromkeys((l, k) for l, k, _ in orth)
        ])
        report.add(
            "(a) completeness (sum = diagonal)",
            ["projector sum differs from the diagonal"] if complete else [],
        )
    else:
        report.add("grading (projectors preserve codimension)", [
            f"projector {k} moves codim {j} into codims {stray}"
            for k, op in ck.projectors.items()
            for j in range(ck.space.dimension + 1)
            if (stray := op.stray_codims(j))
        ])
        report.add("(a) idempotence", [
            f"projector {k} is not idempotent on codim {j}" for k, j in idem
        ])
        report.add("(a) orthogonality", [
            f"projectors {l} and {k} do not compose to zero on codim {j}" for l, k, j in orth
        ])
        report.add("(a) completeness (sum = identity)", [
            f"projector sum is not the identity on codim {j}" for j in complete
        ])
    action = _action_window(ck.name, columns)
    report.children.append(("action", action))
    report.add(
        "(b) action window (degree k acts only on codims j with j <= k <= 2j)",
        [f"degree {k} acts with rank {r} on codim {j}" for k, j, r in action.table["violations"]],
    )
    report.checks.append(Check("condition (c)", "not checked - out of scope", []))
    return report


# -- cellular construction -----------------------------------------------------


def cellular_ck(ring, validate=True):
    """The diagonal split by codimension: the even projector 2i sums each
    codim-i cell crossed with its dual, odd projectors vanish.

    Self-verifies on construction and raises when any condition fails.
    """
    d = ring.dimension
    ring2 = kunneth_product(ring, ring)
    projs = {}
    for k in range(2 * d + 1):
        if k % 2:
            projs[k] = zero_correspondence(ring, ring, 0)
            continue
        i = k // 2
        duals = dual_basis_cycles(ring, i)
        cyc = ring2.zero()
        for cell in ring.cells_of_codim(i):
            cyc = cyc + _external_into(ring2, duals[cell.index - 1], ring.basis_cycle(cell))
        projs[k] = Correspondence(ring, ring, _demote(cyc), 0)
    ck = CKDecomposition(ring, projs, name=f"cellular CK of {ring.name}")
    if validate:
        report = verify_ck(ck)
        ck.report = report
        if not report.passed:
            raise ValueError("\n".join(report.lines()))
    return ck


# -- the lift ------------------------------------------------------------------


def lift_base_correspondence(model, phi, j):
    """The degree-j lift of a base self-correspondence to the fibered module.

    Odd j gives zero: the fiber basis sits in even degrees only.  For even
    j the operator peels a cycle into base coefficients, applies phi to the
    coefficient of every fiber generator of codim j/2, and reassembles.
    """
    if phi.source is not model.base or phi.target is not model.base:
        raise ValueError("can only lift a self-correspondence of the base")
    if j % 2 or phi.is_zero():
        return zero_operator(model)
    i = j // 2
    slots = tuple(g for g in model.generators if g[0] == i)
    if not slots:
        return zero_operator(model)
    family = build_projector_family(model)
    return family.peeled_operator(dict.fromkeys(slots, phi), f"lift_{j}")


@dataclass
class LiftPlan:
    """Bookkeeping for assembling lifted projectors.

    The degree-k lifted projector sums the blocks (i, j) with i + j = k,
    base degree i in 0..2*dim(base), fiber degree j in 0..2*dim(fiber).
    """

    model: object
    base_ck: CKDecomposition

    def __post_init__(self):
        if self.base_ck.space is not self.model.base:
            raise ValueError("base decomposition must live on the model's base")
        self.base_top = 2 * self.model.base.dimension
        self.fiber_top = 2 * self.model.fiber.dimension
        self.top = self.base_top + self.fiber_top

    def index_set(self, k):
        return tuple(
            (i, k - i) for i in range(self.base_top + 1) if 0 <= k - i <= self.fiber_top
        )

    def index_sets(self):
        return {k: self.index_set(k) for k in range(self.top + 1)}

    def verify(self):
        """Index sets must partition the block grid, degree by degree."""
        failures = []
        seen = {}
        for k, pairs in self.index_sets().items():
            for i, j in pairs:
                if i + j != k:
                    failures.append(f"block ({i}, {j}) filed under degree {k}")
                if (i, j) in seen:
                    failures.append(f"block ({i}, {j}) appears in degrees {seen[(i, j)]} and {k}")
                seen[(i, j)] = k
        expected = (self.base_top + 1) * (self.fiber_top + 1)
        if len(seen) != expected:
            failures.append(f"{len(seen)} blocks filed, grid has {expected}")
        return failures

    def block(self, i, j):
        return lift_base_correspondence(self.model, self.base_ck.projectors[i], j)

    def operator(self, k):
        op = zero_operator(self.model)
        for i, j in self.index_set(k):
            op = op + self.block(i, j)
        op.name = f"Pi_{k}"
        return op

    def lines(self):
        out = [f"lift plan for {self.model.name}: degrees 0..{self.top}"]
        for k, pairs in self.index_sets().items():
            shown = ", ".join(f"({i},{j})" for i, j in pairs)
            out.append(f"  degree {k}: {shown}")
        return out


def build_lift_plan(model, base_ck=None):
    if base_ck is None:
        base_ck = cellular_ck(model.base)
    return LiftPlan(model, base_ck)


def lift_ck(model, base_ck=None, validate=True):
    """Lift a Chow-Kunneth decomposition of the base across the fibration.

    The base decomposition is verified first, the lifted one after
    assembly; failure of either raises with the full report.
    """
    if base_ck is None:
        base_ck = cellular_ck(model.base)
    pre = verify_ck(base_ck)
    if not pre.passed:
        raise ValueError("base decomposition fails:\n" + "\n".join(pre.lines()))
    plan = build_lift_plan(model, base_ck)
    bad = plan.verify()
    if bad:
        raise ValueError("degenerate lift plan:\n" + "\n".join(bad))
    projs = {k: plan.operator(k) for k in range(plan.top + 1)}
    ck = CKDecomposition(model, projs, name=f"lifted CK of {model.name}")
    if validate:
        report = verify_ck(ck)
        ck.report = report
        if not report.passed:
            raise ValueError("\n".join(report.lines()))
    return ck


def verify_block_diagonality(model, samples=20, seed=0):
    """Blocks compose like matrix units: a block followed by another is the
    first block again when the indices match and zero otherwise.  Checked on
    random cycles, each block applied as a matrix-vector product."""
    plan = build_lift_plan(model)
    blocks = {
        (i, j): plan.block(i, j)
        for i in range(plan.base_top + 1)
        for j in range(plan.fiber_top + 1)
    }
    # a pair with a zero block passes exactly: its image, or its input, is 0
    nonzero = {
        key: op for key, op in blocks.items()
        if any(col for cols in op.columns.values() for col in cols.values())
    }
    rng = seeded_rng(seed)
    failures = []
    for s in range(samples):
        y = random_fibered_cycle(rng, model).vector()
        images = {key: op.apply_vector(y) for key, op in nonzero.items()}
        for key2, op2 in nonzero.items():
            for key, img in images.items():
                want = img if key2 == key else {}
                if op2.apply_vector(img) != want:
                    failures.append(
                        f"sample {s}: block {key2} after block {key} is not "
                        f"{'the block itself' if key2 == key else 'zero'}"
                    )
    report = Report("projector-system", f"block diagonality on {model.name}")
    report.add(f"{samples} random cycles, {len(blocks)} blocks", failures, samples)
    return report


# -- batteries and cross-checks ------------------------------------------------


def ck_battery(model, battery=None):
    """Lift over the model itself and over its extension by each ambient
    factor, re-verifying every decomposition from scratch."""
    if battery is None:
        from .catalog import point, projective_space

        battery = (point(), projective_space(1), projective_space(2))
    entries = []
    lifted = lift_ck(model)
    entries.append((model.name, lifted.report))
    for ambient in battery:
        extended = ambient_extend(model, ambient)
        base2 = cellular_ck(kunneth_product(ambient, model.base))
        lifted2 = lift_ck(extended, base2)
        entries.append((extended.name, lifted2.report))
    return Report("ambient-battery", f"Chow-Kunneth battery for {model.name}", children=entries)


def compare_lift_to_cellular(model):
    """On a trivial model the lifted operators must match the cellular
    decomposition of the product ring, cell by cell."""
    if not model.is_trivial:
        raise ValueError("comparison only makes sense for a trivial model")
    ring = kunneth_product(model.base, model.fiber)
    cellular = cellular_ck(ring)
    lifted = lift_ck(model)
    failures = []
    for k in range(2 * model.dimension + 1):
        proj = cellular.projectors[k]
        op = lifted.projectors[k]
        for cell in ring.cells:
            cyc = ring.basis_cycle(cell)
            want = act(proj, cyc)
            got = to_kunneth(model, op(from_kunneth(model, cyc)))
            if got != want:
                failures.append(f"degree {k} differs on {cell.label}")
    report = Report("projector-system", f"lift vs cellular on {model.name}")
    report.add("operator agreement on every basis cell", failures)
    return report
