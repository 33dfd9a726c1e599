"""Chow motives as (ring, projector) pairs and their cellular decomposition.

A cellular ring with perfect degree pairings splits into rank-one motives,
one per cell: the projector of a cell is its dual basis element crossed with
the cell itself.  Tensored with the diagonal of the base, these fiber
projectors realize the operators the fibration module builds by peeling;
murre.verify_motive_isomorphism checks that identity exactly.
"""

from __future__ import annotations

from .correspondences import (
    Correspondence,
    action_columns,
    compose,
    diagonal,
    dual_basis_cycles,
)
from .fibrations import build_projector_family
from .linalg import block_rank, codim_blocks, projector_system_failures, rank
from .report import Report
from .rings import Cycle, external_product


class Motive:
    """A cellular ring with an idempotent degree-0 correspondence on it."""

    def __init__(self, ring, projector, name=""):
        p = projector
        if p.source is not ring or p.target is not ring:
            raise ValueError("motive projector must be a self-correspondence of the ring")
        if not p.is_zero() and p.offset != 0:
            raise ValueError("motive projector must have degree 0")
        if compose(p, p) != p:
            raise ValueError(f"projector of {name or ring.name} is not idempotent")
        self.ring = ring
        self.projector = projector
        self.name = name or f"({ring.name}, p)"

    def piece_rank(self, p):
        return rank(self.projector.matrix(p))

    def __repr__(self):
        return f"<Motive {self.name}>"


def unit_motive(ring):
    """h(X): the ring with its diagonal."""
    return Motive(ring, diagonal(ring), name=f"h({ring.name})")


def fiber_projectors(ring):
    """One rank-one projector per cell: the cell's dual crossed with the cell.

    For a delta-normalized basis the dual is the same-index complementary
    cell; in general the honest dual basis is used (pairings must be
    perfect).  Returned in the ring's cell order, as a fresh list of the
    ring's one system, kept on the ring so each action is read once.
    """
    if ring._cell_projectors is None:
        duals = {p: dual_basis_cycles(ring, p) for p in range(ring.dimension + 1)}
        ring._cell_projectors = tuple(
            Correspondence(ring, ring, external_product(
                duals[cell.codim][cell.index - 1], ring.basis_cycle(cell)), 0)
            for cell in ring.cells
        )
    return list(ring._cell_projectors)


def verify_projector_system(projectors):
    """Idempotence, pairwise orthogonality, and completeness (sum equals the
    diagonal) of degree-0 correspondences, read through their action."""
    ps = list(projectors)
    if not ps:
        raise ValueError("empty projector system")
    ring = ps[0].source
    if any(p.source is not ring or p.target is not ring for p in ps):
        raise ValueError("projector system must live on a single ring")
    return _system_report(ring, {k: action_columns(p) for k, p in enumerate(ps)})


def _system_report(ring, columns):
    """verify_projector_system on the action columns of its projectors."""
    idem, orth, complete = projector_system_failures(ring, columns)
    report = Report("projector-system", ring.name)
    report.add("idempotence", [
        f"projector {k} is not idempotent" for k in dict.fromkeys(k for k, _ in idem)
    ])
    report.add("pairwise orthogonality", [
        f"projectors {l} and {k} do not compose to zero"
        for l, k in sorted({(l, k) for l, k, _ in orth})
    ])
    report.add(
        "completeness (sum = diagonal)",
        ["projector sum differs from the diagonal"] if complete else [],
    )
    return report


class MotiveDecomposition:
    """The rank-one motives of a cellular ring, with their rank bookkeeping."""

    def __init__(self, pieces, rank_table, report):
        self.pieces = pieces
        self.rank_table = rank_table  # codim -> tuple of per-piece ranks
        self.report = report  # the verified checks; the table lists each piece's codim

    @property
    def piece_count(self):
        return len(self.pieces)

    def codim_profile(self):
        """For each piece, the codimension where its image sits."""
        return tuple(codim for _, codim in self.report.table["pieces"])


def decompose_motive(ring):
    """Split h(ring) into one rank-one motive per cell.

    The projector system is verified first and failure raises; each piece's
    action is additionally checked to be the expected rank-one projection
    onto its cell's span.
    """
    ps = fiber_projectors(ring)
    columns = {k: action_columns(p) for k, p in enumerate(ps)}
    report = _system_report(ring, columns)

    image = []
    for cell, cols in zip(ring.cells, columns.values()):
        for other in ring.cells:
            got = cols.get(other.key, {})
            if got != ({cell.key: 1} if other is cell else {}):
                image.append(
                    f"projector of {cell.label} sends {other.label} to "
                    f"{Cycle(ring, got)!r}"
                )
    report.add("rank-one images", image)

    codim_of, blocks = codim_blocks(ring, columns)
    rank_table = {}
    for p in range(ring.dimension + 1):
        ranks = tuple(block_rank(codim_of, b, p) for b in blocks.values())
        rank_table[p] = ranks
        if sum(ranks) != ring.rank(p):
            report.add(
                f"rank reconciliation at codim {p}",
                [f"piece ranks sum to {sum(ranks)}, ring rank is {ring.rank(p)}"],
            )
    if not report.passed:
        raise ValueError("\n".join(report.lines()))

    pieces = tuple(
        Motive(ring, p, name=f"({ring.name}, {cell.label})")
        for cell, p in zip(ring.cells, ps)
    )
    codims = [
        next((p for p, ranks in sorted(rank_table.items()) if ranks[k]), None)
        for k in range(len(pieces))
    ]
    report = Report("ring-decomposition", ring.name, report.checks, table={
        "pieces": [(piece.name, codim) for piece, codim in zip(pieces, codims)],
        "rank_table": rank_table,
    })
    return MotiveDecomposition(pieces, rank_table, report)


class ModelMotiveDecomposition:
    """Rank-one operator pieces of a fibration model, one per pair of a
    fiber generator and a base cell."""

    def __init__(self, model, pieces, rank_table, report):
        self.model = model
        self.pieces = pieces  # (label, codim, sparse matrix)
        self.rank_table = rank_table  # codim -> piece count
        self.report = report  # the verified checks; the table lists the pieces

    @property
    def piece_count(self):
        return len(self.pieces)

    def rank_profile(self):
        return tuple(self.report.table["rank_profile"])


def decompose_model(model):
    """Split the cycles of a fibration model into rank-one pieces.

    Each piece keeps one fiber generator and one base cell: the peeled
    coefficient is projected onto the cell's span and reassembled.  The
    pieces are exact matrices built in one pass over the model's sweeps;
    the system is verified by matrix products, codimension by codimension,
    before returning.
    """
    base_ps = [action_columns(p) for p in fiber_projectors(model.base)]
    maps, codims = {}, {}
    for g in model.generators:
        gen_label = model.fiber.cell(g).label
        for cell, bp in zip(model.base.cells, base_ps):
            label = f"(T[{gen_label}], {cell.label})"
            maps[label], codims[label] = {g: bp}, g[0] + cell.codim
    columns = build_projector_family(model).peeled_operators(maps)
    pieces = [(label, codims[label], m) for label, m in columns.items()]

    report = Report("projector-system", model.name)
    idem, orth, complete = projector_system_failures(model, columns)
    report.add("idempotence", [f"piece {k} is not idempotent on codim {p}" for k, p in idem])
    report.add("pairwise orthogonality", [
        f"pieces {l} and {k} do not compose to zero on codim {p}" for l, k, p in orth
    ])
    report.add("completeness (sum = identity)", [
        f"piece sum differs from the identity on codim {p}" for p in complete
    ])
    codim_of, blocks = codim_blocks(model, columns)
    report.add("rank-one images", [
        f"piece {label} has unexpected rank on codim {p}"
        for label, codim, _ in pieces
        for p in range(model.dimension + 1)
        if block_rank(codim_of, blocks[label], p) != (1 if p == codim else 0)
    ])
    if not report.passed:
        raise ValueError("\n".join(report.lines()))

    rank_table = {}
    for _, codim, _ in pieces:
        rank_table[codim] = rank_table.get(codim, 0) + 1
    for p, r in rank_table.items():
        if r != model.rank(p):
            raise ValueError(f"piece count {r} at codim {p} differs from module rank {model.rank(p)}")
    report = Report("model-decomposition", model.name, report.checks, table={
        "pieces": [(label, codim) for label, codim, _ in pieces],
        "rank_profile": [rank_table.get(p, 0) for p in range(model.dimension + 1)],
    })
    return ModelMotiveDecomposition(model, tuple(pieces), rank_table, report)
