"""Each ring keeps one cell-projector system: fiber_projectors(ring) and the
action columns of each projector are built once per ring, and every suite,
cellular_ck, decompose_model, lifted_blocks and verify_motive_isomorphism
read the kept ones."""

import pytest

from chowkit import cli, correspondences, motives
from chowkit.catalog import grassmannian, product_model, projective_space
from chowkit.correspondences import action_columns
from chowkit.fileio import save_fibration, save_ring
from chowkit.motives import fiber_projectors
from chowkit.murre import cellular_ck, verify_motive_isomorphism

from corpus import standard_rings


@pytest.fixture
def spies(monkeypatch):
    """(rings whose cell projectors were built, one entry per cell; the
    correspondences whose action was walked; the unspied _action_map)."""
    built, walked = [], []
    external = motives.external_product
    read = correspondences._action_map
    monkeypatch.setattr(motives, "external_product", lambda a, b: built.append(a.ring) or external(a, b))
    monkeypatch.setattr(correspondences, "_action_map", lambda f: walked.append(f) or read(f))
    return built, walked, read


def loaded(monkeypatch, name):
    """The targets cli.<name> loads, recorded as they load."""
    targets, load = [], getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda path: targets.append(load(path)) or targets[-1])
    return targets


def assert_kept_once(ring, built, walked, read):
    ps = fiber_projectors(ring)
    assert sum(r is ring for r in built) == len(ring.cells)  # one build
    assert [id(f) for f in walked if f.source is ring] == [id(p) for p in ps]  # one walk each
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
    assert {id(r) for r in built} == {id(model.base), id(model.fiber)}
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
    # cellular_ck keeps the sum of the cell actions as each projector's
    # action; it must be the action a fresh walk of the summed cycle reads
    read = correspondences._action_map
    for p in cellular_ck(ring).projectors.values():
        assert action_columns(p) == read(p)
