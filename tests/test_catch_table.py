"""What each check catches: one row per known corruption of a model.

Every row builds a corrupted model (or patches a kernel for the run) and
runs every model verifier on it.  The table locks, per row, the labels of
the failing checks of each verifier that catches something, or the law at
which the projector family refuses the model ("raises at <law>").  A row
that nothing catches fails the test.

The sweep perturbations are linear, as a bug in the peeling sweep would be.
The operators are written from keys, so only the sampled coefficient
extraction of ``verify_projector_family`` reads the sweep, and it catches
each of them with one sample.
"""

import re

import pytest

from chowkit import (
    build_projector_family,
    decompose_model,
    duality_report,
    hirzebruch,
    lift_ck,
    validate_fibration,
    verify_block_diagonality,
    verify_ck,
    verify_motive_isomorphism,
    verify_projector_family,
)
from chowkit.fibrations import ProjectorFamily

from test_failure_rendering import (
    collapsed_products,
    flat_square,
    identity_added_to_block_00,
    nonassociative,
)
from test_peeling_sweep import INDEPENDENCE_MODELS

CHECKERS = {
    "validate_fibration": validate_fibration,
    "duality_report": lambda m: duality_report(m, samples=1),
    "verify_projector_family": lambda m: verify_projector_family(build_projector_family(m), samples=1),
    "verify_ck": lambda m: verify_ck(lift_ck(m, validate=False)),
    "verify_block_diagonality": lambda m: verify_block_diagonality(m, samples=2),
    "decompose_model": lambda m: decompose_model(m).report,
    "verify_motive_isomorphism": verify_motive_isomorphism,
}

LAW = re.compile(r"projector family on .+?: (.+?) fails: ")


def caught(model):
    """{checker: its failing check labels, or ["raises at <law>"]} over the
    checkers that catch something on model."""
    out = {}
    for name, check in CHECKERS.items():
        try:
            report = check(model)
        except ValueError as e:
            law = LAW.match(str(e))
            labels = [f"raises at {law[1]}" if law else f"raises: {str(e).splitlines()[0]}"]
        else:
            labels = [c.label for c in report.checks if not c.passed]
        if labels:
            out[name] = labels
    return out


# -- the corruptions -----------------------------------------------------------


def doubled_top(family, out):
    """A linear sweep: the top generator's coefficient comes back doubled."""
    top = family.order[0]
    return {g: 2 * a if g == top else a for g, a in out.items()}


def leaked_top(family, out):
    """A linear sweep: the top generator's coefficient is copied onto the
    unit generator, which moves its codim."""
    top, unit = family.order[0], family.order[-1]
    if top not in out:
        return out
    leaked = dict(out)
    total = leaked.get(unit, family.model.base.zero()) + out[top]
    leaked.pop(unit, None)
    if not total.is_zero():
        leaked[unit] = total
    return leaked


def dropped_unit(family, out):
    """A linear sweep: the unit generator's coefficient is lost."""
    return {g: a for g, a in out.items() if g != family.order[-1]}


def perturbed_sweep(model, perturb):
    def build(mp):
        sweep = ProjectorFamily.apply_all_with_coefficients
        mp.setattr(
            ProjectorFamily,
            "apply_all_with_coefficients",
            lambda fam, y: perturb(fam, sweep(fam, y)),
        )
        return model

    return build


def block_00_plus_identity(mp):
    model = hirzebruch(1)
    identity_added_to_block_00(mp, model)
    return model


ROWS = {
    "flat square": lambda mp: flat_square(),
    "collapsed products": lambda mp: collapsed_products(),
    "nonassociative": lambda mp: nonassociative(),
    **{
        f"{perturb.__name__} on {model.name}": perturbed_sweep(model, perturb)
        for model in INDEPENDENCE_MODELS[:3]
        for perturb in (doubled_top, leaked_top, dropped_unit)
    },
    "block (0, 0) plus identity": block_00_plus_identity,
}

SWEPT = {"verify_projector_family": ["coefficient extraction on random cycles"]}
REFUSED_AT_DUALITY = {
    name: ["raises at fiberwise duality"]
    for name in (
        "verify_projector_family",
        "verify_ck",
        "verify_block_diagonality",
        "decompose_model",
        "verify_motive_isomorphism",
    )
}

CAUGHT = {
    "flat square": {
        "validate_fibration": ["fiberwise duality"],
        "duality_report": ["duality delta pattern"],
        **REFUSED_AT_DUALITY,
    },
    "collapsed products": {
        "validate_fibration": ["grading", "associativity on generators", "fiberwise duality"],
        "duality_report": ["duality delta pattern"],
        **{name: ["raises at grading"] for name in REFUSED_AT_DUALITY},
    },
    # only a triple product breaks, which no operator reads
    "nonassociative": {"validate_fibration": ["associativity on generators"]},
    **{
        f"{perturb} on {model.name}": SWEPT
        for model in INDEPENDENCE_MODELS[:3]
        for perturb in ("doubled_top", "leaked_top", "dropped_unit")
    },
    "block (0, 0) plus identity": {
        "verify_ck": [
            "(a) idempotence",
            "(a) orthogonality",
            "(a) completeness (sum = identity)",
            "(b) action window (degree k acts only on codims j with j <= k <= 2j)",
        ],
        "verify_block_diagonality": ["2 random cycles, 9 blocks"],
        "verify_motive_isomorphism": ["F Pi_k = pi_k F (lifted vs cellular CK)"],
    },
}


def test_every_row_is_in_the_table():
    assert list(CAUGHT) == list(ROWS)


@pytest.mark.parametrize("row", list(ROWS))
def test_catch_table(row, monkeypatch):
    got = caught(ROWS[row](monkeypatch))
    assert got, f"nothing catches {row}"
    assert got == CAUGHT[row]
