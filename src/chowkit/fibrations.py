"""Locally trivial fibration models and their projector families.

A model presents CH(Y) for a fibration Y -> X with fiber Z as a free module
over CH(X): one generator T_{p,i} per fiber cell, restricting fiberwise to
that cell, with products

    T_{p,i} * T_{q,j} = sum_{(r,s)} pi^*(alpha_{r,s}) * T_{r,s}

recorded as a table of base cycles alpha.  The fiber ring must carry a
delta-normalized basis; the base only needs to be a valid cellular ring.
Elements of CH(Y) are FiberedCycles: mappings from generator keys to base
cycles.

The projector family attached to a model peels a cycle from the top
generator downward: each projector multiplies by the dual generator, pushes
to the base, pulls back, multiplies by the generator itself, after first
subtracting the lexicographically greater projectors.  A single descending
sweep evaluates the whole family at linear cost, reading each pushforward
off the top-generator components of the model table.  On a model that
passes fiber delta-normalization, grading and fiberwise duality the sweep
returns each cycle's own parts, so the family checks those laws once and
writes its operators (rho_g, lifted blocks, motive pieces) from keys: plain
sparse matrices {basis key: nonzero column} on the model's basis_keys.
"""

from __future__ import annotations

import warnings

from .linalg import codim_blocks, projector_system_failures
from .report import Report
from .rings import _cycle, _kept, _sum, external_product, kunneth_product, verify_pairing


class FiberedCycle:
    """An element of CH(Y): base-cycle coefficients indexed by generator key."""

    __slots__ = ("model", "parts")

    def __init__(self, model, parts):
        clean = {}
        for gkey, cyc in parts.items():
            gkey = tuple(gkey)
            if gkey not in model._gen_cells:
                raise ValueError(f"unknown generator key {gkey!r} in {model.name}")
            if cyc.ring is not model.base:
                raise ValueError(f"coefficient of T{gkey} must live on {model.base.name}")
            if not cyc.is_zero():
                clean[gkey] = cyc
        self.model = model
        self.parts = clean

    def vector(self):
        """The cycle as a sparse vector {(generator key, base cell key): coefficient}."""
        return {(g, k): c for g, cyc in self.parts.items() for k, c in cyc.coeffs.items()}

    def _require_same_model(self, other):
        if self.model is not other.model:
            raise ValueError(f"model mismatch: {self.model.name} vs {other.model.name}")

    def __add__(self, other):
        if not isinstance(other, FiberedCycle):
            return NotImplemented
        self._require_same_model(other)
        parts = dict(self.parts)
        for g, cyc in other.parts.items():
            parts[g] = parts[g] + cyc if g in parts else cyc
        return _fibered(self.model, parts)

    def __neg__(self):
        return _fibered(self.model, {g: -c for g, c in self.parts.items()})

    def __sub__(self, other):
        if not isinstance(other, FiberedCycle):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FiberedCycle):
            return self.model.multiply(self, other)
        return FiberedCycle(self.model, {g: c * other for g, c in self.parts.items()})

    def __rmul__(self, other):
        if isinstance(other, FiberedCycle):
            return NotImplemented
        return self * other

    def __eq__(self, other):
        if not isinstance(other, FiberedCycle):
            return NotImplemented
        return self.model is other.model and self.parts == other.parts

    def __repr__(self):
        if not self.parts:
            return "0"
        terms = []
        for g in sorted(self.parts):
            label = self.model._gen_cells[g].label
            terms.append(f"pi*({self.parts[g]!r})*T[{label}]")
        return " + ".join(terms)


def _fibered(model, parts):
    """FiberedCycle(model, parts) for a kernel whose keys are generators and
    whose cycles lie on the base by construction: zeros dropped, no check."""
    y = object.__new__(FiberedCycle)
    y.model = model
    y.parts = {g: cyc for g, cyc in parts.items() if cyc.coeffs}
    return y


class FibrationModel:
    """CH(Y) of a locally trivial fibration, presented over its base ring.

    ``t_table`` maps pairs of generator keys to {generator key: base cycle};
    one order of each pair suffices, products with the unit generator are
    implied, omitted entries are zero.  Structural problems (unknown keys,
    conflicting symmetric entries) raise immediately; the mathematical laws
    are checked by ``validate_fibration``, which returns a report.
    """

    def __init__(self, base, fiber, t_table, name=None):
        self.base = base
        self.fiber = fiber
        self.name = name or f"fibration({fiber.name} over {base.name})"
        self.dimension = base.dimension + fiber.dimension
        self._gen_cells = {c.key: c for c in fiber.cells}
        self.generators = tuple(sorted(self._gen_cells))
        self._kept = {}  # its projector family, lifted blocks and extensions, see rings._kept
        keys = {}  # codim, or None for all of them -> basis keys in module order
        for g in self.generators:
            for cell in base.cells:
                for p in (None, g[0] + cell.codim):
                    keys.setdefault(p, []).append((g, cell.key))
        self._basis_keys = {p: tuple(ks) for p, ks in keys.items()}
        table = {}

        def put(g1, g2, entry):
            if g1 in table and g2 in table[g1]:
                if table[g1][g2] != entry:
                    raise ValueError(f"conflicting fibration products for T{g1} * T{g2}")
                return
            table.setdefault(g1, {})[g2] = entry

        for (g1, g2), raw in t_table.items():
            g1, g2 = tuple(g1), tuple(g2)
            for g in (g1, g2):
                if g not in self._gen_cells:
                    raise ValueError(f"fibration table mentions unknown generator {g!r}")
            entry = {}
            for gkey, cyc in raw.items():
                gkey = tuple(gkey)
                if gkey not in self._gen_cells:
                    raise ValueError(f"product T{g1} * T{g2} hits unknown generator {gkey!r}")
                if cyc.ring is not base:
                    raise ValueError(f"coefficients in the fibration table must live on {base.name}")
                if not cyc.is_zero():
                    entry[gkey] = cyc
            put(g1, g2, entry)
            put(g2, g1, entry)
        unit = fiber.unit_cell.key
        for g in self.generators:
            expected = {g: base.unit()}
            if unit in table and g in table[unit] and table[unit][g] != expected:
                raise ValueError(f"unit generator law violated at T{g}")
            table.setdefault(unit, {})[g] = expected
            table.setdefault(g, {})[unit] = expected
        self._table = table

    @property
    def is_trivial(self):
        """Whether this is the product fibration: every entry of the table is
        the fiber's own product times the base unit."""
        product = _product_table(self.base, self.fiber)
        return all(self.t_entry(*pair) == entry for pair, entry in product.items())

    # -- module structure ----------------------------------------------------

    def t_entry(self, g1, g2):
        """Components of T_{g1} * T_{g2} as {generator key: base cycle}."""
        return self._table.get(tuple(g1), {}).get(tuple(g2), {})

    def zero(self):
        return _fibered(self, {})

    def generator(self, gkey):
        return FiberedCycle(self, {tuple(gkey): self.base.unit()})

    def cycle(self, parts):
        return FiberedCycle(self, parts)

    def pullback(self, a):
        """pi^*: a base cycle times the unit generator."""
        if a.ring is not self.base:
            raise ValueError(f"pullback: cycle lives in {a.ring.name}, not {self.base.name}")
        return _fibered(self, {self.fiber.unit_cell.key: a})

    def pushforward(self, y):
        """pi_*: the coefficient of the top fiber generator."""
        return y.parts.get(self.fiber.point_cell.key, self.base.zero())

    def multiply(self, y1, y2):
        if y1.model is not self or y2.model is not self:
            raise ValueError("multiply: cycles must live in this model")
        parts = {}
        for g, a in y1.parts.items():
            for h, b in y2.parts.items():
                ab = self.base.multiply(a, b)
                if ab.is_zero():
                    continue
                for k, alpha in self.t_entry(g, h).items():
                    term = self.base.multiply(ab, alpha)
                    if term.is_zero():
                        continue
                    parts[k] = parts[k] + term if k in parts else term
        return _fibered(self, parts)

    def rank(self, p):
        return sum(self.base.rank(p - g[0]) for g in self.generators)

    def basis_keys(self, p=None):
        """Keys (g, base cell key) of the basis cycles pi^*(x) * T_g, all of
        them or those of codim p, in module order (generator, then base
        cell); computed once."""
        return self._basis_keys.get(p, ())

    def __repr__(self):
        return f"<FibrationModel {self.name} dim={self.dimension}>"


def _product_table(base, fiber):
    """The product fibration's table: the fiber's own products times the base unit."""
    table = {}
    for c1 in fiber.cells:
        for c2 in fiber.cells:
            if c2.key < c1.key:
                continue
            prod = fiber.multiply(fiber.basis_cycle(c1), fiber.basis_cycle(c2))
            table[(c1.key, c2.key)] = {
                k: base.unit() * v for k, v in prod.coeffs.items()
            }
    return table


def trivial_fibration(base, fiber, name=None):
    """The product fibration: structure constants are the fiber's own."""
    name = name or f"{base.name} x {fiber.name} (trivial)"
    return FibrationModel(base, fiber, _product_table(base, fiber), name=name)


def duality_triple(model, alpha, left, right):
    """pi_*(pi^*(alpha) * T_left * T_right), read off the model table.

    pi^*(alpha) is alpha on the unit generator, so the unit law makes
    pi^*(alpha) * T_left the cycle {left: alpha}; times T_right it is
    sum_k alpha * t_k over the components t_k of T_left * T_right, and
    pi_* keeps the top generator's: the value is alpha * t_top(left, right).

    For fiber codimensions p + q <= n this follows the delta pattern: alpha
    back when the generators are same-index duals, zero otherwise.  Beyond
    the middle the value is still computed, but no pattern is guaranteed, so
    a warning is issued.
    """
    lkey = model.fiber.cell(left).key
    rkey = model.fiber.cell(right).key
    if lkey[0] + rkey[0] > model.fiber.dimension:
        warnings.warn(
            f"duality pattern is only guaranteed for fiber codims summing to at most "
            f"{model.fiber.dimension}; got {lkey[0]} + {rkey[0]}",
            stacklevel=2,
        )
    top = model.t_entry(lkey, rkey).get(model.fiber.point_cell.key)
    return model.base.zero() if top is None else model.base.multiply(alpha, top)


def duality_report(model, samples=20, seed=0):
    """The delta pattern of the duality triple over every admissible
    generator pair.

    Checks pi_*(pi^*(alpha) T T') = alpha for same-index dual pairs and 0
    for every other pair with fiber codims summing to at most the fiber
    dimension, first for each base basis class, then for seeded random
    alphas."""
    from . import sampling

    n = model.fiber.dimension
    rng = sampling.seeded_rng(seed)
    alphas = [("basis " + c.label, model.base.basis_cycle(c)) for c in model.base.cells]
    alphas += [
        (f"random {s}", sampling.random_cycle(rng, model.base))
        for s in range(samples)
    ]
    report = Report("projector-family", model.name)
    fails = []
    count = 0
    for g1 in model.generators:
        for g2 in model.generators:
            if g1[0] + g2[0] > n:
                continue
            is_dual = model.fiber.dual_cell(g1).key == g2
            for label, alpha in alphas:
                count += 1
                got = duality_triple(model, alpha, g1, g2)
                want = alpha if g1[0] + g2[0] == n and is_dual else model.base.zero()
                if got != want:
                    fails.append(f"pair {g1} * {g2} on {label}")
    report.add("duality delta pattern", fails, count)
    return report


# -- validation ----------------------------------------------------------------


def _lemma_laws(model):
    """{law: failure lines} for the laws of the coordinate-projection lemma,
    in check order: fiber delta-normalization, grading, fiberwise duality."""
    base, fiber, top = model.base, model.fiber, model.fiber.point_cell.key
    pairing = verify_pairing(fiber)
    return {
        "fiber delta-normalization": [] if pairing.passed else pairing.lines()[1:],
        "grading": [
            f"T{g1}*T{g2} component at T{gkey} has base codims {cyc.codims()}, expected [{want}]"
            for g1, row in model._table.items()
            for g2, entry in row.items()
            for gkey, cyc in entry.items()  # the constructor keeps no zero entry
            if (want := g1[0] + g2[0] - gkey[0]) < 0 or cyc.codims() != [want]
        ],
        "fiberwise duality": [
            f"top component of T{g1}*T{g2} is {got!r}, expected {want!r}"
            for g1 in model.generators
            for g2 in model.generators
            if g1[0] + g2[0] == fiber.dimension
            and (got := model.t_entry(g1, g2).get(top, base.zero()))
            != (want := base.unit() if g1[1] == g2[1] else base.zero())
        ],
    }


def validate_fibration(model):
    """Check the model laws: fiber normalization, grading, associativity on
    generators, and fiberwise duality.  The unit law and commutativity hold
    by construction: FibrationModel refuses a table that breaks them."""
    report = Report("fibration-model", model.name)
    laws = _lemma_laws(model)
    report.add("fiber delta-normalization", laws["fiber delta-normalization"])
    report.add("grading", laws["grading"])

    assoc = []
    gens = [model.generator(g) for g in model.generators]
    prods = [[model.multiply(ta, tb) for tb in gens] for ta in gens]
    for i, ta in enumerate(gens):
        for j in range(len(gens)):
            for k, tc in enumerate(gens):
                if model.multiply(prods[i][j], tc) != model.multiply(ta, prods[j][k]):
                    assoc.append(
                        f"associativity fails at generators "
                        f"{model.generators[i]}, {model.generators[j]}, {model.generators[k]}"
                    )
    report.add("associativity on generators", assoc)
    report.add("fiberwise duality", laws["fiberwise duality"])
    return report


# -- projector family ----------------------------------------------------------


class ProjectorFamily:
    """The peeling projectors of a model, in descending generator order.

    ``order`` lists generator keys lexicographically descending.
    ``apply_all_with_coefficients`` performs the whole descending sweep once,
    which evaluates every projector honestly (each one sees exactly the
    residual its definition prescribes).  Operators built from the family
    (``projectors``, ``placed_operators``) are written from keys instead,
    once the model has passed ``_lawful``.  A model's family is the one
    build_projector_family keeps on it, so the check runs once per model.
    """

    def __init__(self, model):
        self.model = model
        self.order = tuple(sorted(model.generators, reverse=True))
        self._kept = {}  # its duals and its law check, see rings._kept

    def apply_all_with_coefficients(self, y):
        """{generator key: alpha_g} over the nonzero peeled coefficients, in
        descending generator order; a missing key is a zero coefficient.

        alpha_g = pi_*(T_dual * residual) sums b * t over the residual's parts
        pi^*(b) * T_h, t being the top-generator component of T_dual * T_h in
        the model table.  The unit laws the constructors enforce make the
        piece pi^*(alpha_g) * T_g the cycle {g: alpha_g}, so peeling it only
        changes the residual's coefficient at g, and the pieces of y are
        model.cycle({g: alpha_g}).  Residual and alphas are coefficient dicts,
        multiplied as ChowRing.multiply and summed as Cycle does, in the same
        key order; one Cycle is built per nonzero alpha_g."""
        model = self.model
        if y.model is not model:
            raise ValueError(
                f"apply_all_with_coefficients: cycle lives in {y.model.name}, not {model.name}"
            )
        duals = _kept(self, _duals)
        base, top, rows = model.base, model.fiber.point_cell.key, model._table
        residual = {h: b.coeffs for h, b in y.parts.items()}  # replaced, never mutated
        out = {}
        for g in self.order:
            row, alpha = rows.get(duals[g], {}), {}
            for h, b in residual.items():
                t = row.get(h, {}).get(top)
                if t is not None:
                    alpha = _sum(alpha, base._product(b, t.coeffs))
            if alpha:
                out[g] = _cycle(base, alpha)
                residual[g] = _sum(residual.get(g, {}), alpha, -1)
        return out

    def placed_operators(self, maps):
        """{name: sparse matrix} for maps {name: {g: phi_g}}, phi_g a sparse
        matrix on the base's basis keys.  The operator named n is y -> sum
        over g of pi^*(phi_g(alpha_g)) * T_g, alpha_g the peeled coefficient
        of y at T_g, which _lawful makes y's own: so column (g, x) is
        column x of phi_g placed on T_g."""
        _kept(self, _lawful)
        return {
            name: {
                (g, x): {(g, k): c for k, c in col.items()}
                for g, phi in phis.items()
                for x, col in phi.items()
            }
            for name, phis in maps.items()
        }

    def projectors(self):
        """{g: rho_g} over the model's generators: rho_g keeps the piece
        pi^*(alpha_g) * T_g of a cycle, the coordinate projection onto the
        basis keys of T_g, as a sparse matrix."""
        ident = {k: {k: 1} for k in self.model.base.basis_keys()}
        return self.placed_operators({g: {g: ident} for g in self.model.generators})


def _duals(family):
    """{generator key: its fiber dual's key}, read by every sweep."""
    return {g: family.model.fiber.dual_cell(g).key for g in family.order}


def _lawful(family):
    """True, or a ValueError naming the first law of the coordinate-projection
    lemma that the family's model fails, with its first witness.  Under the
    laws the sweep of pi^*(x) * T_g is {g: x}; kept once passed, so never
    checked again."""
    for law, witnesses in _lemma_laws(family.model).items():
        if witnesses:
            raise ValueError(f"projector family on {family.model.name}: {law} fails: {witnesses[0].strip()}")
    return True


def build_projector_family(model):
    """The model's one projector family, built on first use and kept on the
    model, so its law check lives as long as the model does."""
    return _kept(model, ProjectorFamily)


def add_system_checks(report, space, systems, noun, labels, count=None):
    """Add to report, and return it, where {name: sparse matrix} on the basis
    of space fail to be a complete system of orthogonal idempotents, under
    the labels (idempotence, orthogonality, completeness), each check of
    count instances: one witness per failing name and codim, in the order
    linalg.projector_system_failures names them.  An optional first label
    adds a grading check, naming each codim a matrix moves out of."""
    *grading, idempotence, orthogonality, completeness = labels
    if grading:
        codim_of, blocks = codim_blocks(space, systems)
        report.add(grading[0], [
            f"{noun} {k} moves codim {j} into codims {stray}"
            for k, by_codim in blocks.items()
            for j in sorted(by_codim)
            if (stray := sorted({codim_of[r] for col in by_codim[j] for r in col} - {j}))
        ], count)
    idem, orth, complete = projector_system_failures(space, systems)
    report.add(idempotence, [f"{noun} {k} is not idempotent on codim {p}" for k, p in idem], count)
    report.add(orthogonality, [
        f"{noun}s {l} and {k} do not compose to zero on codim {p}" for l, k, p in orth
    ], count)
    report.add(completeness, [f"{noun} sum is not the identity on codim {p}" for p in complete], count)
    return report


def verify_projector_family(family, samples=100, seed=0):
    """Exact check of degree preservation, idempotence, pairwise
    orthogonality, completeness, the coefficient-extraction action formula,
    section recovery, and the per-codim rank identity.

    The first four check the family's projectors rho_g as one system of
    sparse matrices, complete by linearity; building them raises unless the
    model passes the family's laws.  The action formula checks the sweep
    itself on seeded random cycles against the generic model product, an
    independent route.
    """
    from . import sampling

    model = family.model
    report = Report("projector-family", model.name)
    add_system_checks(report, model, family.projectors(), "rho", (
        "degree preservation", "idempotence", "pairwise orthogonality", "completeness"
    ), count=len(model.basis_keys()))

    rng = sampling.seeded_rng(seed)
    zero = model.base.zero()
    action_fail = []
    for _ in range(samples):
        coeffs = {
            g: sampling.random_cycle(rng, model.base) for g in model.generators
        }
        # the generic model product builds y and the expected pieces, an
        # independent route from the sweep's read of the top components
        terms = {
            g: model.multiply(model.generator(g), model.pullback(a)) for g, a in coeffs.items()
        }
        y = sum(terms.values(), model.zero())
        got = family.apply_all_with_coefficients(y)
        for g in model.generators:
            alpha = got.get(g, zero)
            if alpha != coeffs[g]:
                action_fail.append(f"coefficient at T{g} came back {alpha!r}, fed {coeffs[g]!r}")
            if model.cycle({g: alpha}) != terms[g]:
                action_fail.append(f"projection at T{g} is not pi^*(alpha)*T{g}")
    report.add("coefficient extraction on random cycles", action_fail, samples)

    section_fail = []
    top = model.fiber.point_cell.key
    for cell in model.base.cells:
        a = model.base.basis_cycle(cell)
        back = model.pushforward(model.multiply(model.generator(top), model.pullback(a)))
        if back != a:
            section_fail.append(f"pi_*(T_top * pi^*({cell.label})) != {cell.label}")
    report.add("section recovery (pullback injectivity)", section_fail, len(model.base.cells))

    rank_fail = []
    for p in range(model.dimension + 1):
        direct = len(model.basis_keys(p))
        formula = sum(
            model.base.rank(p - q) * model.fiber.rank(q)
            for q in range(model.fiber.dimension + 1)
        )
        if direct != model.rank(p) or direct != formula:
            rank_fail.append(f"rank CH^{p} mismatch: basis {direct}, formula {formula}")
    report.add("rank identity", rank_fail, model.dimension + 1)
    return report


# -- ambient extension and the identity-principle battery -----------------------


def ambient_extend(model, ambient):
    """The same fibration pulled back along the projection T x X -> X.

    The base becomes the product ring T x X and every structure coefficient
    alpha becomes the external product 1_T x alpha.
    """
    new_base = kunneth_product(ambient, model.base)
    unit = ambient.unit()
    table = {}
    for g1, row in model._table.items():
        for g2, entry in row.items():
            table[(g1, g2)] = {
                gkey: external_product(unit, cyc) for gkey, cyc in entry.items()
            }
    return FibrationModel(new_base, model.fiber, table, name=f"{ambient.name} x {model.name}")


def _extensions(model, battery):
    """(T, the model extended by T) for each ring T of the battery, each
    extension built once and kept on the model, as its family is; the
    default battery is catalog.default_battery()."""
    if battery is None:
        from .catalog import default_battery

        battery = default_battery()
    for ambient in battery:
        yield ambient, _kept(model, ambient_extend, ambient)


def manin_battery(model, battery=None, samples=25, seed=0):
    """Re-verify the projector family after extending by each battery ring.

    Extending by T and checking the operator identities exactly on CH(T x Y)
    is the finite surrogate for the identity principle's quantification over
    all T.
    """
    report = Report("ambient-battery", model.name)
    for ambient, extended in _extensions(model, battery):
        family = build_projector_family(extended)
        report.children.append((ambient.name, verify_projector_family(family, samples, seed)))
    return report
