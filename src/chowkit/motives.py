"""Chow motives as (ring, projector) pairs and their cellular decomposition.

A cellular ring with perfect degree pairings splits into rank-one motives,
one per cell: the projector of a cell is its dual basis element crossed with
the cell itself.  Tensored with the diagonal of the base, these fiber
projectors realize the operators the fibration module builds by peeling;
murre.verify_motive_isomorphism checks that identity exactly.
"""

from __future__ import annotations

from collections import Counter

from .correspondences import (
    Correspondence,
    action_columns,
    compose,
    dual_basis_cycles,
)
from .fibrations import add_system_checks, build_projector_family
from .linalg import block_rank, codim_blocks
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

    def __repr__(self):
        return f"<Motive {self.name}>"


def _motive(ring, projector, name):
    """Motive(ring, projector, name) for a piece of a system that passed
    verify_projector_system: idempotence is not re-checked by compose."""
    motive = object.__new__(Motive)
    motive.ring, motive.projector, motive.name = ring, projector, name
    return motive


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
    columns = {k: action_columns(p) for k, p in enumerate(ps)}
    report = Report("projector-system", ring.name)
    return add_system_checks(report, ring, columns, "projector", (
        "idempotence", "pairwise orthogonality", "completeness (sum = diagonal)"
    ))


class MotiveDecomposition:
    """The rank-one pieces of a cellular ring or a fibration model.

    A ring's pieces are Motives; a model's are (label, codim, sparse matrix)
    operators.  The report holds the verified checks, and its table lists
    each piece's codim and the ranks per codim.
    """

    def __init__(self, space, pieces, report):
        self.space = space
        self.pieces = pieces
        self.report = report


def decompose_motive(ring):
    """Split h(ring) into one rank-one motive per cell.

    The projector system is verified first and failure raises; each piece's
    action is additionally checked to be the expected rank-one projection
    onto its cell's span.
    """
    ps = fiber_projectors(ring)
    report = verify_projector_system(ps)
    image = []
    for cell, p in zip(ring.cells, ps):
        cols = action_columns(p)
        for other in ring.cells:
            got = cols.get(other.key, {})
            if got != ({cell.key: 1} if other is cell else {}):
                image.append(
                    f"projector of {cell.label} sends {other.label} to "
                    f"{Cycle(ring, got)!r}"
                )
    report.add("rank-one images", image)
    if not report.passed:
        raise ValueError("\n".join(report.lines()))

    pieces = tuple(
        _motive(ring, p, f"({ring.name}, {cell.label})")
        for cell, p in zip(ring.cells, ps)
    )
    # each image is its own cell: one rank in that cell's codim, none elsewhere
    report = Report("ring-decomposition", ring.name, report.checks, table={
        "pieces": [(piece.name, cell.codim) for piece, cell in zip(pieces, ring.cells)],
        "rank_table": {
            p: tuple(int(cell.codim == p) for cell in ring.cells) for p in range(ring.dimension + 1)
        },
    })
    return MotiveDecomposition(ring, pieces, report)


def decompose_model(model):
    """Split the cycles of a fibration model into rank-one pieces.

    Each piece keeps one fiber generator and one base cell: the cell's
    projector placed on the generator.  The pieces are exact matrices built
    in one pass; the system is verified by matrix products, codimension by
    codimension, before returning.
    """
    base_ps = [action_columns(p) for p in fiber_projectors(model.base)]
    maps, codims = {}, {}
    for g in model.generators:
        gen_label = model.fiber.cell(g).label
        for cell, bp in zip(model.base.cells, base_ps):
            label = f"(T[{gen_label}], {cell.label})"
            maps[label], codims[label] = {g: bp}, g[0] + cell.codim
    columns = build_projector_family(model).placed_operators(maps)
    pieces = [(label, codims[label], m) for label, m in columns.items()]

    report = Report("projector-system", model.name)
    add_system_checks(report, model, columns, "piece", (
        "idempotence", "pairwise orthogonality", "completeness (sum = identity)"
    ))
    codim_of, blocks = codim_blocks(model, columns)
    report.add("rank-one images", [
        f"piece {label} has unexpected rank on codim {p}"
        for label, codim, _ in pieces
        for p in sorted({codim, *blocks[label]})  # a codim with no column has rank 0
        if block_rank(codim_of, blocks[label], p) != (1 if p == codim else 0)
    ])
    if not report.passed:
        raise ValueError("\n".join(report.lines()))

    ranks = Counter(codim for _, codim, _ in pieces)
    report = Report("model-decomposition", model.name, report.checks, table={
        "pieces": [(label, codim) for label, codim, _ in pieces],
        "rank_profile": [ranks[p] for p in range(model.dimension + 1)],
    })
    return MotiveDecomposition(model, tuple(pieces), report)
