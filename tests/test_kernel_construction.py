"""Kernel outputs through the private construction path, against the public
constructors.

Kernels whose keys come from a ring's own tables, plans or basis build their
results through ``rings._cycle``, ``correspondences._correspondence`` and
``fibrations._fibered``: exactness and zero-dropping are kept, the key, ring
and homogeneity checks are skipped.  Here each kernel runs twice on the same
inputs, once as it is and once with those paths routed through the public
constructors, which re-check everything; both runs must agree in values,
int/Fraction types and key order.  The peeling sweep on coefficient dicts is
compared with its reference in oracles.py, run on the public route.  The
public constructors must still refuse what they refused, and the draws of
the identity battery must reproduce ``randint``.
"""

import random
from fractions import Fraction

import pytest

from chowkit import (
    Correspondence,
    act,
    compose,
    dump_ring,
    hirzebruch,
    kunneth_product,
    parse_ring,
    projective_space,
    tensor,
    transpose,
)
from chowkit import cli, correspondences, fibrations, identities, motives, murre, rings, sampling
from chowkit.fibrations import FiberedCycle, ProjectorFamily
from chowkit.motives import Motive, decompose_motive
from chowkit.murre import cellular_ck, lift_ck, verify_action_window
from chowkit.report import Report
from chowkit.rings import Cycle
from chowkit.sampling import _randint, random_correspondence, random_cycle, seeded_rng

import oracles
from checks import spy
from corpus import DOUBLED_PLANE as DOUBLED, correspondences as samples, fibered_cycles, fresh_hirzebruch
from corpus import module_basis, standard_models, standard_rings

RINGS = standard_rings() + [DOUBLED]
MODELS = standard_models()


def public_correspondence(source, target, ring, cycle, offset):
    f = Correspondence(source, target, cycle, offset)
    assert f.ring is ring
    return f


@pytest.fixture
def public_route(monkeypatch):
    """A context in which every private construction path is the public
    constructor, in every module that builds through one."""

    def enter():
        for module in (rings, correspondences, sampling, identities, fibrations):
            monkeypatch.setattr(module, "_cycle", Cycle)
        for module in (correspondences, sampling):
            monkeypatch.setattr(module, "_correspondence", public_correspondence)
        monkeypatch.setattr(fibrations, "_fibered", FiberedCycle)

    return enter


def exact(x):
    """A kernel output down to its rings, offset, key order and coefficient types."""
    if isinstance(x, Cycle):
        return (x.ring, [(k, type(v), v) for k, v in x.coeffs.items()])
    if isinstance(x, Correspondence):
        return (x.source, x.target, x.ring, x.offset, exact(x.cycle))
    if isinstance(x, FiberedCycle):
        return (x.model, [(g, exact(c)) for g, c in x.parts.items()])
    if isinstance(x, dict):
        return [(k, exact(v)) for k, v in x.items()]
    if isinstance(x, list):
        return [exact(v) for v in x]
    return x


def both_routes(public_route, run):
    """run() as the kernels are, then on the public route."""
    private = exact(run())
    public_route()
    return private, exact(run())


# -- the private path against the public constructors ------------------------------


def test_correspondence_kernels_match_the_public_route(public_route):
    rng = seeded_rng(7)
    pairs = [(a, b) for a in RINGS for b in RINGS if a.dimension + b.dimension <= 8]
    cases = [(a, b, samples(rng, a, b), samples(rng, b, a)) for a, b in pairs]
    xs = {ring: [random_cycle(rng, ring, 3), random_cycle(rng, ring, 3) * Fraction(2, 3), ring.unit()]
          for ring in RINGS}

    def run():
        out = []
        for a, b, fs, gs in cases:
            for f in fs:
                out += [act(f, x) for x in xs[a]]
                out.append(transpose(f))
                out += [compose(g, f) for g in gs[::3]]
            out += [tensor(fs[0], gs[-3]), tensor(fs[1], fs[0])]
        return out

    private, public = both_routes(public_route, run)
    assert private == public


def test_ring_kernels_match_the_public_route(public_route):
    rng = seeded_rng(3)
    cases = []
    for ring in RINGS + [kunneth_product(RINGS[1], RINGS[2]), kunneth_product(DOUBLED, RINGS[1])]:
        unit = ring.unit()
        cycles = [random_cycle(rng, ring, 4) for _ in range(3)]
        cycles += [cycles[0] * Fraction(1, 2), unit, unit * 2, unit * Fraction(1, 2), ring.zero()]
        cases.append((ring, cycles))

    def run():
        out = []
        for ring, cycles in cases:
            for a in cycles:
                out += [ring.multiply(a, b) for b in cycles]
                out += [a + cycles[0], a - cycles[1], -a, a - a, a.component(1)]
            out.append(rings.external_product(cycles[0], cycles[3]))
        return out

    private, public = both_routes(public_route, run)
    assert private == public


def test_random_draws_match_the_public_route(public_route):
    def run():
        rng, out = seeded_rng(11), []
        for ring in RINGS:
            for codim in (None, *range(ring.dimension + 1)):
                out += [random_cycle(rng, ring, bound, codim=codim) for bound in (0, 1, 10)]
            out += [random_correspondence(rng, ring, RINGS[2], offset) for offset in (-1, 0, 1)]
        return out + [rng.getstate()]

    private, public = both_routes(public_route, run)
    assert private == public


def test_oracle_and_morphism_tables_match_the_public_route(public_route):
    rng = seeded_rng(5)
    battery = [(f, g) for a in RINGS[1:4] + [DOUBLED] for b in RINGS[1:4]
               for f, g in [(random_correspondence(rng, a, b), random_correspondence(rng, b, a))]]
    morphisms = identities.standard_morphisms()

    def run():
        out = [identities.compose_oracle(g, f) for f, g in battery]
        for m in morphisms:
            out += [m.pullback(y) for y in (m.target.unit(), random_cycle(seeded_rng(1), m.target))]
            out += [m.pushforward(x) for x in (m.source.unit(), random_cycle(seeded_rng(2), m.source))]
        return out

    private, public = both_routes(public_route, run)
    assert private == public


@pytest.mark.parametrize("model", MODELS + [
    fibrations.trivial_fibration(DOUBLED, projective_space(1)),
    fibrations.ambient_extend(hirzebruch(1), DOUBLED),
], ids=lambda m: m.name)
def test_sweep_matches_the_cycle_sweep_on_the_public_route(model, public_route):
    ys = fibered_cycles(seeded_rng(2), model)
    family = ProjectorFamily(model)
    private = [exact(family.apply_all_with_coefficients(y)) for y in ys]
    public_route()
    assert private == [exact(oracles.sweep(model, y)) for y in ys]
    assert private == [exact(family.apply_all_with_coefficients(y)) for y in ys]


def test_sweep_sums_as_the_cycle_sweep_on_a_broken_table(public_route):
    """T_pt * T_h = pi^*(1) T_pt for every h puts three terms into alpha at
    the unit generator, the second cancelling a key of the first and the
    third adding it back, which then comes last; and it reads the emptied
    residual at T_pt three times."""
    p1 = projective_space(1)
    pt, one, h = (3, 1), p1.unit(), p1.basis_cycle("h")
    table = {(pt, g): {pt: one} for g in ((1, 1), (2, 1), pt)}
    model = fibrations.FibrationModel(p1, projective_space(3), table, name="broken")
    ys = [
        model.cycle({(0, 1): one + h, (1, 1): -one, (2, 1): one * 3}),
        model.cycle({pt: h, (0, 1): one * Fraction(1, 2), (2, 1): one * Fraction(-1, 2)}),
    ] + module_basis(model)
    family = ProjectorFamily(model)
    private = [exact(family.apply_all_with_coefficients(y)) for y in ys]
    assert [k for k, _, _ in private[0][0][1][1]] == [(1, 1), (0, 1)]
    public_route()
    assert private == [exact(oracles.sweep(model, y)) for y in ys]


@pytest.mark.parametrize("model", MODELS[:4] + MODELS[-4:], ids=lambda m: m.name)
def test_model_kernels_match_the_public_route(model, public_route):
    rng = seeded_rng(4)
    ys = [sampling.random_fibered_cycle(rng, model, bound=3) for _ in range(3)]

    def run():
        out = module_basis(model)
        for y in ys:
            out += [model.multiply(y, z) for z in ys]
            out += [y + ys[0], -y, y - y]
        return out

    private, public = both_routes(public_route, run)
    assert private == public


# -- the public constructors keep every check --------------------------------------


def test_a_product_still_refuses_a_label_clash():
    def plane(labels):
        cells = [rings.BasisCell(p, 1, label) for p, label in enumerate(labels)]
        return rings.ChowRing(2, cells, {((1, 1), (1, 1)): {(2, 1): 1}}, name="+".join(labels))

    # (u,v) x w and u x (v,w) are both labeled (u,v,w)
    with pytest.raises(ValueError, match=r"duplicate cell label '\(u,v,w\)'"):
        kunneth_product(plane(["1", "u", "u,v"]), plane(["1", "w", "v,w"]))


def test_the_public_cycle_refuses_a_stray_key():
    p2 = projective_space(2)
    with pytest.raises(ValueError, match=r"unknown cell key \(3, 1\) for P\^2"):
        Cycle(p2, {(1, 1): 1, (3, 1): 2})
    with pytest.raises(TypeError, match="exact integer or Fraction"):
        Cycle(p2, {(1, 1): 0.5})


def test_the_public_correspondence_refuses_a_wrong_ring_or_degree():
    p1, p2 = projective_space(1), projective_space(2)
    wrong = kunneth_product(p2, p1).unit()
    with pytest.raises(ValueError, match=r"must live on P\^1 x P\^2, got P\^2 x P\^1"):
        Correspondence(p1, p2, wrong)
    ring = kunneth_product(p1, p2)
    mixed = ring.unit() + ring.basis_cycle("(h,h)")
    with pytest.raises(ValueError, match="cycle is not homogeneous of codim 1"):
        Correspondence(p1, p2, mixed, 0)
    assert Correspondence(p1, p2, mixed).offset is None


def test_the_public_fibered_cycle_refuses_a_stray_generator_or_ring():
    model = hirzebruch(1)
    with pytest.raises(ValueError, match=r"unknown generator key \(2, 1\) in hirzebruch\(1\)"):
        FiberedCycle(model, {(2, 1): model.base.unit()})
    with pytest.raises(ValueError, match=r"coefficient of T\(1, 1\) must live on P\^1"):
        FiberedCycle(model, {(1, 1): projective_space(2).unit()})


def test_motive_refuses_a_non_idempotent_projector():
    p2 = projective_space(2)
    with pytest.raises(ValueError, match=r"projector of P\^2 is not idempotent"):
        Motive(p2, correspondences.diagonal(p2) * 2)


def test_decompose_motive_composes_nothing(monkeypatch):
    # the pieces are built after verify_projector_system decided idempotence
    ring = parse_ring(dump_ring(projective_space(30)))
    calls = spy(monkeypatch, motives, "compose")
    dec = decompose_motive(ring)
    assert len(dec.pieces) == 31 and not calls
    assert all(piece.ring is ring and piece.projector is p
               for piece, p in zip(dec.pieces, motives.fiber_projectors(ring)))


def test_a_graph_that_misses_its_table_is_named():
    p2 = projective_space(2)
    ident = correspondences.identity_morphism(p2)
    push = {**ident._push, (1, 1): {(1, 1): 2}}
    broken = correspondences._morphism(p2, p2, ident._pull, push, "doubled h")
    with pytest.raises(ValueError, match="doubled h: transposed graph does not act as the pushforward at h$"):
        correspondences.graph_from_morphism(broken)


def test_graph_functoriality_names_each_cell_that_misses():
    morphisms = identities.standard_morphisms()
    graphs = {m.name: correspondences.graph_from_morphism(m) for m in morphisms}
    m = morphisms[1]  # the identity of P^2
    c, c_t = graphs[m.name]
    graphs[m.name] = (c * 2, c_t)
    report = Report("identity-battery", "graphs")
    identities._graph_functoriality(report, morphisms, graphs, identities._product_morphisms(
        (projective_space(1), projective_space(2))))
    (check,) = report.checks
    assert check.details == [
        f"pullback of {cell.label} along id x {m.name}"
        for cell in kunneth_product(projective_space(1), m.target).cells
    ]


# -- one action-window table per kept CK -------------------------------------------


def count_tables(monkeypatch):
    """[populated (degree, codim) blocks] per table that murre ranks."""
    tables = []
    real = murre.codim_blocks

    def spy(space, systems):
        codim_of, blocks = real(space, systems)
        tables.append(sum(map(len, blocks.values())))
        return codim_of, blocks

    monkeypatch.setattr(murre, "codim_blocks", spy)
    return tables


@pytest.mark.parametrize("make, populated", [
    (lambda: parse_ring(dump_ring(projective_space(30))), [31]),
    # the base's table (P^1: degrees 0 and 2 on codims 0 and 1), then the lift's
    (fresh_hirzebruch, [2, 3]),
], ids=["p30", "hirzebruch:1"])
def test_ck_and_murre_suites_rank_one_table(make, populated, monkeypatch):
    target = make()
    config = cli.RunConfig(samples=5)
    tables, calls = count_tables(monkeypatch), spy(monkeypatch, murre, "block_rank")
    ck = cli._suite_ck(target, config)
    # the ck suite ranks the target's table, and a lift also its base's;
    # each ranks only the (degree, codim) blocks where a projector has a
    # column: 31 of p30's 61 x 31, 5 on hirzebruch(1)
    assert tables == populated
    assert len(calls) == sum(populated)
    # the murre suite ranks nothing
    window = cli._suite_murre(target, config)
    assert tables == populated and len(calls) == sum(populated)
    assert ck["passed"] and window["passed"]
    # the kept table renders as a fresh one does
    fresh = make()
    del calls[:], tables[:]
    assert cli._suite_murre(fresh, config)["data"] == window["data"]
    assert tables == populated and len(calls) == sum(populated)


@pytest.mark.parametrize("build", [
    lambda: cellular_ck(parse_ring(dump_ring(projective_space(3)))),
    lambda: lift_ck(hirzebruch.__wrapped__(1)),
], ids=["cellular", "lifted"])
def test_a_mutated_ck_is_ranked_afresh(build, monkeypatch):
    ck = build()
    kept = verify_action_window(ck).table
    calls = spy(monkeypatch, murre, "block_rank")
    assert verify_action_window(ck).table == kept
    columns = ck.columns()
    # the degree-0 projector also acts on the codim-1 cells of degree 2
    columns[0].update({b: dict(col) for b, col in columns[2].items()})
    mutated = verify_action_window(ck)
    assert calls and mutated.table != kept
    assert not mutated.passed and (0, 1, len(ck.space.basis_keys(1))) in mutated.table["violations"]


# -- the draws of the identity battery ----------------------------------------------


WIDTHS = [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 1000, 1024, 1025, 2**20 - 1, 2**20]


@pytest.mark.parametrize("low", [-3, 0, 5])
def test_randint_draws_as_randint(low):
    for seed in range(4):
        rng, ref = random.Random(seed), random.Random(seed)
        for width in WIDTHS:
            for _ in range(20):
                assert _randint(rng, low, low + width - 1) == ref.randint(low, low + width - 1)
            assert rng.getstate() == ref.getstate()


def test_battery_draws_as_randint():
    p1, p2 = projective_space(1), projective_space(2)
    rng, ref = random.Random(9), random.Random(9)
    for _ in range(50):
        assert identities._random_offset(rng, p1, p2) == ref.randint(-1, 2)
        assert _randint(rng, 0, p2.dimension) == ref.randint(0, 2)
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("low, high", [(1, 0), (0, -1), (5, -5)])
def test_randint_refuses_an_empty_range_before_drawing(low, high):
    class Watched(random.Random):
        def getrandbits(self, k):
            raise AssertionError("drew before refusing the range")

    with pytest.raises(ValueError):
        random.Random(0).randint(low, high)
    with pytest.raises(ValueError, match="empty range"):
        _randint(Watched(0), low, high)
