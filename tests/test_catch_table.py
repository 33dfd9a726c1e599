"""What each check catches: one row per known corruption of a model.

Every row builds a corrupted model of corpus.CORRUPTIONS (or patches a
kernel for the run) and runs every model verifier on it.  The table locks, per row, the labels of
the failing checks of each verifier that catches something, or the law at
which the projector family refuses the model, or the failing checks of a
system that a verifier refuses ("raises at <law or check>").  A row that
nothing catches fails the test, unless it is a known gap: KNOWN_GAPS locks
that nothing catches it yet, and why.

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

from corpus import CORRUPTIONS, INDEPENDENCE_MODELS, flag_bundle_c1_flipped, shifted_ck

CHECKERS = {
    "validate_fibration": validate_fibration,
    "duality_report": lambda m: duality_report(m, samples=1),
    "verify_projector_family": lambda m: verify_projector_family(build_projector_family(m), samples=1),
    "verify_ck": lambda m: verify_ck(lift_ck(m)),
    "verify_block_diagonality": lambda m: verify_block_diagonality(m, samples=2),
    "decompose_model": lambda m: decompose_model(m).report,
    "verify_motive_isomorphism": verify_motive_isomorphism,
}

LAW = re.compile(r"projector family on .+?: (.+?) fails: ")
FAILING = re.compile(r"^  (\S.*): FAIL$", re.M)  # a refused system's failing checks


def caught(model):
    """{checker: its failing check labels, or ["raises at <law>"]} over the
    checkers that catch something on model."""
    out = {}
    for name, check in CHECKERS.items():
        try:
            report = check(model)
        except ValueError as e:
            law = LAW.match(str(e))
            labels = [f"raises at {law[1]}"] if law else [
                f"raises at {c}" for c in FAILING.findall(str(e))
            ] or [f"raises: {str(e).splitlines()[0]}"]
        else:
            labels = [c.label for c in report.checks if not c.passed]
        if labels:
            out[name] = labels
    return out


SWEPT = {"verify_projector_family": ["coefficient extraction on random cycles"]}
FAMILY_USERS = (
    "verify_projector_family",
    "verify_ck",
    "verify_block_diagonality",
    "decompose_model",
    "verify_motive_isomorphism",
)
REFUSED_AT_DUALITY = {name: ["raises at fiberwise duality"] for name in FAMILY_USERS}

CAUGHT = {
    "flat square": {
        "validate_fibration": ["fiberwise duality"],
        "duality_report": ["duality delta pattern"],
        **REFUSED_AT_DUALITY,
    },
    "collapsed products": {
        "validate_fibration": ["grading", "associativity on generators", "fiberwise duality"],
        "duality_report": ["duality delta pattern"],
        **{name: ["raises at grading"] for name in FAMILY_USERS},
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
    "piece (T[h], 1) doubled": {
        "decompose_model": ["raises at idempotence", "raises at completeness (sum = identity)"],
    },
    "piece (T[h], 1) zeroed": {
        "decompose_model": ["raises at completeness (sum = identity)", "raises at rank-one images"],
    },
    # one entry out of codim in each operator system
    "first operator leaked": {
        "verify_projector_family": ["degree preservation", "pairwise orthogonality", "completeness"],
        "verify_ck": [
            "grading (projectors preserve codimension)",
            "(a) orthogonality",
            "(a) completeness (sum = identity)",
        ],
        "verify_block_diagonality": ["2 random cycles, 9 blocks"],
        "decompose_model": ["raises at pairwise orthogonality", "raises at completeness (sum = identity)"],
        "verify_motive_isomorphism": [
            "F Pi_k = pi_k F (lifted vs cellular CK)",
            "F rho_g = (Delta_X x p_g) F (peeled vs cell projectors)",
        ],
    },
    # the family is refused at fiberwise duality, not at the associativity
    # that the same entry breaks
    "off-diagonal top component": {
        "validate_fibration": ["associativity on generators", "fiberwise duality"],
        "duality_report": ["duality delta pattern"],
        **REFUSED_AT_DUALITY,
    },
    # h * h = 2 pt on the fiber: the first law fails, so the family names it
    "doubled-plane fiber": {
        "validate_fibration": ["fiber delta-normalization", "fiberwise duality"],
        "duality_report": ["duality delta pattern"],
        **{name: ["raises at fiber delta-normalization"] for name in FAMILY_USERS},
    },
}

# rows that nothing catches today: each locks today's verdict, nothing
# caught, and says which change will catch it
KNOWN_GAPS = {
    "shifted CK": (
        lambda: [c.label for c in verify_ck(shifted_ck()).checks if not c.passed],
        "no check reads what pi_k does on CH^j beyond the window: ROADMAP item 7",
    ),
    "flag bundle over P^3, c_1 flipped": (
        lambda: caught(flag_bundle_c1_flipped()),
        "a model is checked against its own laws only, never against geometry: ROADMAP item 9",
    ),
}


def test_every_row_is_in_the_table():
    assert list(CAUGHT) == list(CORRUPTIONS)


@pytest.mark.parametrize("row", list(CORRUPTIONS))
def test_catch_table(row, monkeypatch):
    got = caught(CORRUPTIONS[row](monkeypatch))
    assert got, f"nothing catches {row}"
    assert got == CAUGHT[row]


@pytest.mark.parametrize("row", list(KNOWN_GAPS))
def test_known_gap(row):
    caught_by, reason = KNOWN_GAPS[row]
    assert not caught_by(), f"{row} is caught now; move it to CAUGHT ({reason})"
