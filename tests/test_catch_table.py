"""What each check catches: one row per known corruption of a model.

Every row builds a corrupted model of corpus.CORRUPTIONS (or patches a
kernel for the run) and runs every model verifier on it.  The table locks, per row, the labels of
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
    lift_ck,
    validate_fibration,
    verify_block_diagonality,
    verify_ck,
    verify_motive_isomorphism,
    verify_projector_family,
)

from corpus import CORRUPTIONS, INDEPENDENCE_MODELS

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
    # the rho system checks fail only on a faulty rho; the laws and every
    # other operator are untouched
    "rho column doubled": {
        "verify_projector_family": ["idempotence", "completeness"],
        "verify_motive_isomorphism": ["F rho_g = (Delta_X x p_g) F (peeled vs cell projectors)"],
    },
    # the motive pieces are read by decompose_model only, which refuses them
    "piece (T[h], 1) doubled": {"decompose_model": ["raises: projector system on hirzebruch(1): FAIL"]},
}


def test_every_row_is_in_the_table():
    assert list(CAUGHT) == list(CORRUPTIONS)


@pytest.mark.parametrize("row", list(CORRUPTIONS))
def test_catch_table(row, monkeypatch):
    got = caught(CORRUPTIONS[row](monkeypatch))
    assert got, f"nothing catches {row}"
    assert got == CAUGHT[row]
