"""Motives: cell projectors and rank-one decompositions.

Each ring keeps one cell-projector system: fiber_projectors(ring) and the
action columns of each projector are built once per ring, and every suite,
cellular_ck, decompose_model, lifted_blocks and verify_motive_isomorphism
read the kept ones.
"""

import sys

import pytest

from chowkit import (
    Motive,
    decompose_model,
    decompose_motive,
    diagonal,
    fiber_projectors,
    grassmannian,
    hirzebruch,
    multiplication_correspondence,
    point,
    product_model,
    projective_space,
    verify_motive_isomorphism,
    verify_projector_system,
    zero_correspondence,
)
from chowkit import cli, correspondences, linalg, motives
from chowkit.catalog import resolve
from chowkit.correspondences import act, action_columns, action_matrix
from chowkit.fibrations import ProjectorFamily
from chowkit.fileio import dump_ring, parse_ring, save_fibration, save_ring
from chowkit.linalg import apply, block_rank, codim_blocks, combine, rank
from chowkit.murre import cellular_ck

from checks import spy
from corpus import DOUBLED, piece_scaled, standard_rings


def codim_profile(dec):
    """For each piece of a decomposition, the codim where its image sits."""
    return tuple(codim for _, codim in dec.report.table["pieces"])


def test_fiber_projectors_are_rank_one():
    p2 = projective_space(2)
    ps = fiber_projectors(p2)
    assert len(ps) == len(p2.cells)
    for cell, proj in zip(p2.cells, ps):
        for other in p2.cells:
            got = act(proj, p2.basis_cycle(other))
            want = p2.basis_cycle(cell) if other is cell else p2.zero()
            assert got == want


def test_projector_system_verifies():
    for ring in (point(), projective_space(1), grassmannian(2, 4)):
        report = verify_projector_system(fiber_projectors(ring))
        assert report.passed
        labels = [c.label for c in report.checks]
        assert labels == ["idempotence", "pairwise orthogonality", "completeness (sum = diagonal)"]
        d = report.to_dict()
        assert d["check"] == "projector-system" and d["passed"]


def test_duplicated_projector_breaks_the_system():
    p1 = projective_space(1)
    ps = fiber_projectors(p1)
    report = verify_projector_system([ps[0], ps[0], ps[1]])
    assert not report.passed
    failed = {c.label for c in report.checks if not c.passed}
    # each projector is still idempotent; the duplicate wrecks the other two
    assert failed == {"pairwise orthogonality", "completeness (sum = diagonal)"}
    assert any("FAIL" in line for line in report.lines())


def test_projector_system_input_validation():
    with pytest.raises(ValueError, match="empty"):
        verify_projector_system([])
    p1, p2 = projective_space(1), projective_space(2)
    with pytest.raises(ValueError, match="single ring"):
        verify_projector_system([diagonal(p1), diagonal(p2)])


def test_motive_rejects_bad_projectors():
    p2 = projective_space(2)
    # multiplication by h is degree 1 and not idempotent
    mult = multiplication_correspondence(p2, p2.basis_cycle("h"))
    with pytest.raises(ValueError, match="degree 0"):
        Motive(p2, mult)
    # degree 0 but not idempotent: 2 * diagonal; the message names the motive
    with pytest.raises(ValueError, match="projector of P\\^2 is not idempotent"):
        Motive(p2, diagonal(p2) + diagonal(p2))
    with pytest.raises(ValueError, match="projector of twice is not idempotent"):
        Motive(p2, diagonal(p2) + diagonal(p2), name="twice")
    assert Motive(p2, diagonal(p2)).name == "(P^2, p)"
    p1 = projective_space(1)
    with pytest.raises(ValueError, match="self-correspondence"):
        Motive(p2, diagonal(p1))
    # the zero projector is allowed, whatever its nominal offset
    z = Motive(p2, zero_correspondence(p2, p2, 1), name="zero piece")
    assert rank(action_matrix(z.projector, 0)) == 0


def test_unit_motive_ranks():
    g = grassmannian(2, 4)
    h = Motive(g, diagonal(g), name="h(Gr(2,4))")
    assert h.name == "h(Gr(2,4))"
    assert tuple(rank(action_matrix(h.projector, p)) for p in range(5)) == g.ranks
    assert "Motive" in repr(h)


def test_decompose_p2():
    dec = decompose_motive(projective_space(2))
    assert len(dec.pieces) == 3
    assert codim_profile(dec) == (0, 1, 2)
    assert [p.name for p in dec.pieces] == ["(P^2, 1)", "(P^2, h)", "(P^2, h^2)"]
    assert dec.report.passed
    assert dec.report.lines()[0] == "motive decomposition of P^2: 3 piece(s)"
    assert dec.report.lines()[-1] == "  per-codim rank totals: CH^0=1, CH^1=1, CH^2=1"
    d = dec.report.to_dict()
    assert d["codim_profile"] == [0, 1, 2]
    assert d["rank_table"]["1"] == [0, 1, 0]


def test_decompose_motive_reads_each_action_once(monkeypatch):
    # a private ring, so that no earlier test has kept its cell projectors
    ring = parse_ring(dump_ring(projective_space(4)))
    calls = spy(monkeypatch, correspondences, "_action_map")
    dec = decompose_motive(ring)
    assert dec.report.table["rank_table"] == {p: tuple(int(k == p) for k in range(5)) for p in range(5)}
    assert len(calls) == 5  # one walk per cell projector
    decompose_motive(ring)
    assert len(calls) == 5  # the ring keeps its cell projectors and their actions


def test_decompose_point():
    dec = decompose_motive(point())
    assert len(dec.pieces) == 1
    assert codim_profile(dec) == (0,)


def test_decompose_grassmannian():
    dec = decompose_motive(grassmannian(2, 4))
    assert len(dec.pieces) == 6
    # two middle cells: s[2] and s[1,1]
    assert codim_profile(dec) == (0, 1, 2, 2, 3, 4)
    assert dec.pieces[4].name == "(Gr(2,4), s[2,1])"
    for piece in dec.pieces:
        assert sum(rank(action_matrix(piece.projector, p)) for p in range(5)) == 1


def test_decompose_model_hirzebruch():
    dec = decompose_model(hirzebruch(2))
    assert len(dec.pieces) == 4
    assert tuple(dec.report.table["rank_profile"]) == (1, 2, 1)
    assert [(label, codim) for label, codim, _ in dec.pieces] == [
        ("(T[1], 1)", 0),
        ("(T[1], h)", 1),
        ("(T[h], 1)", 1),
        ("(T[h], h)", 2),
    ]
    assert dec.report.lines()[0] == "motive decomposition of hirzebruch(2): 4 piece(s)"
    d = dec.report.to_dict()
    assert d["rank_profile"] == [1, 2, 1] and d["passed"]


def test_decompose_model_pieces_act_as_projections():
    m = hirzebruch(1)
    dec = decompose_model(m)
    ops = {label: op for label, _, op in dec.pieces}
    y = m.cycle({(0, 1): m.base.cycle({"1": 3, "h": 5}), (1, 1): m.base.cycle({"1": 7, "h": 2})})
    vec = y.vector()
    assert combine((1, apply(op, vec)) for op in ops.values()) == vec
    piece = apply(ops["(T[h], 1)"], vec)
    assert piece == m.cycle({(1, 1): 7 * m.base.unit()}).vector()


def test_decompose_model_product():
    dec = decompose_model(product_model(projective_space(1), projective_space(2)))
    assert len(dec.pieces) == 6
    assert tuple(dec.report.table["rank_profile"]) == (1, 2, 2, 1)


def test_decompose_model_ranks_each_piece_where_it_has_columns(monkeypatch):
    # a product piece has columns in its own codim only: one rank per piece,
    # where every codim of every piece was ranked before
    calls = spy(monkeypatch, motives, "block_rank")
    p4 = projective_space(4)
    dec = decompose_model(product_model.__wrapped__(p4, p4))
    assert len(dec.pieces) == 25
    assert [p for _, _, p in calls] == [codim for _, codim, _ in dec.pieces]


def test_decompose_model_names_a_piece_with_a_column_outside_its_codim(monkeypatch):
    build = ProjectorFamily.placed_operators
    low = ((0, 1), (0, 1))  # a codim-0 basis key of hirzebruch(1)

    def strayed(family, maps):
        ops = build(family, maps)
        if "(T[h], 1)" in ops:
            ops["(T[h], 1)"] = {**ops["(T[h], 1)"], low: {low: 1}}
        return ops

    monkeypatch.setattr(ProjectorFamily, "placed_operators", strayed)
    with pytest.raises(ValueError) as err:
        decompose_model(hirzebruch.__wrapped__(1))
    assert "piece (T[h], 1) has unexpected rank on codim 0" in str(err.value)


def count_ranks(monkeypatch):
    """The (matrix,) of each linalg.rank call, through every chowkit module's
    binding of it."""
    calls, rank = [], linalg.rank
    for name, module in list(sys.modules.items()):
        if name.startswith("chowkit"):
            for attr, value in list(vars(module).items()):
                if value is rank:
                    spy(monkeypatch, module, attr, calls)
    return calls


def test_decompose_model_ranks_each_piece_once(monkeypatch):
    model = resolve("product:p4,p4")
    calls = count_ranks(monkeypatch)
    dec = decompose_model(model)
    # one elimination per piece at most, where one per (piece, codim) made 225
    assert len(dec.pieces) == 25
    assert 0 < len(calls) <= len(dec.pieces)


# -- ranks and perturbed pieces ---------------------------------------------------------


@pytest.mark.parametrize(
    "ring", standard_rings() + [grassmannian(2, 6), DOUBLED], ids=lambda r: r.name
)
def test_motive_rank_table_matches_the_block_ranks(ring):
    columns = {k: action_columns(p) for k, p in enumerate(fiber_projectors(ring))}
    codim_of, blocks = codim_blocks(ring, columns)
    want = {
        p: tuple(block_rank(codim_of, b, p) for b in blocks.values())
        for p in range(ring.dimension + 1)
    }
    dec = decompose_motive(ring)
    assert dec.report.table["rank_table"] == want
    assert codim_profile(dec) == tuple(
        next(p for p in sorted(want) if want[p][k]) for k in range(len(columns))
    )


def test_decompose_model_catches_a_perturbed_piece(monkeypatch):
    model = piece_scaled(2)(monkeypatch)
    with pytest.raises(ValueError) as err:
        decompose_model(model)
    message = str(err.value)
    assert "piece (T[h], 1) is not idempotent on codim 1" in message
    assert "piece sum is not the identity on codim 1" in message


# -- each ring keeps one cell-projector system --------------------------------------


@pytest.fixture
def spies(monkeypatch):
    """([(a, b)] per external product a x b, one per cell of each cell-projector
    build; [(f,)] per action walk; the unspied _action_map)."""
    read = correspondences._action_map
    return spy(monkeypatch, motives, "external_product"), spy(monkeypatch, correspondences, "_action_map"), read


def loaded(monkeypatch, name):
    """The targets cli.<name> loads, recorded as they load."""
    targets, load = [], getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda path: targets.append(load(path)) or targets[-1])
    return targets


def assert_kept_once(ring, built, walked, read):
    ps = fiber_projectors(ring)
    assert sum(a.ring is ring for a, _ in built) == len(ring.cells)  # one build
    cells = {id(p) for p in ps}
    assert [id(f) for f, in walked if id(f) in cells] == [id(p) for p in ps]  # one walk each
    # the other walks on ring read cellular CK projectors, sums of the cell
    # projectors, each of which keeps its action too
    others = [id(f) for f, in walked if f.source is ring and id(f) not in cells]
    assert len(set(others)) == len(others)
    # no caller mutated the kept columns
    assert all(action_columns(p) == read(p) for p in ps)


def test_a_ring_verify_builds_its_cell_projectors_and_their_actions_once(
    spies, monkeypatch, tmp_path, capsys
):
    # a ring read from a file is private, so no earlier test has kept its system
    path = tmp_path / "gr24.json"
    save_ring(grassmannian(2, 4), path)
    rings = loaded(monkeypatch, "load_ring")
    code = cli.main(["verify", "--ring-file", str(path), "--suite", "all", "--samples", "5"])
    capsys.readouterr()
    assert code == cli.EXIT_PASS
    (ring,) = rings
    assert_kept_once(ring, *spies)


def test_a_model_verify_builds_each_factor_system_once(spies, monkeypatch, tmp_path, capsys):
    path = tmp_path / "model.json"
    save_fibration(product_model(grassmannian(2, 4), projective_space(2)), path)
    models = loaded(monkeypatch, "load_fibration")
    argv = ["verify", "--fibration-file", str(path), "--suite", "all", "--samples", "5"]
    assert cli.main(argv) == cli.EXIT_PASS
    capsys.readouterr()
    (model,) = models
    assert verify_motive_isomorphism(model).passed
    built, walked, read = spies
    assert {id(a.ring) for a, _ in built} == {id(model.base), id(model.fiber)}
    for ring in (model.base, model.fiber):
        assert_kept_once(ring, *spies)


def test_fiber_projectors_hands_out_a_fresh_list():
    ring = projective_space(2)
    ps = fiber_projectors(ring)
    ps[0] = ps[0] * 2
    again = fiber_projectors(ring)
    assert again is not ps and again[0] is not ps[0]
    assert all(a is b for a, b in zip(again[1:], ps[1:]))


@pytest.mark.parametrize("ring", standard_rings(), ids=lambda r: r.name)
def test_the_cellular_projectors_keep_their_own_action(ring):
    # each cellular projector keeps the action it reads off its summed
    # cycle; it must be the action a fresh walk of that cycle reads
    read = correspondences._action_map
    for p in cellular_ck(ring).projectors.values():
        assert action_columns(p) == read(p)
