"""Failing reports, locked byte for byte.

Every golden under ``tests/golden/`` is a passing report, so this module
locks the other half: the text lines and the JSON document of one failing
report of each kind, built from the inputs the mutation tests use (a
duplicated or swapped cellular Chow-Kunneth projector, a perturbed lifted
projector, the degenerate surface, broken fibration tables, a doubled
decomposition piece).  The files live in ``tests/golden/failing/``, apart
from the CLI goldens; ``PYTHONPATH=src python tests/test_failure_rendering.py``
rewrites them after a deliberate change to the rendering.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from chowkit import (
    CKDecomposition,
    build_projector_family,
    decompose_model,
    decompose_motive,
    duality_report,
    hirzebruch,
    manin_battery,
    point,
    projective_space,
    validate_fibration,
    verify_action_window,
    verify_block_diagonality,
    verify_ck,
    verify_pairing,
    verify_projector_family,
    verify_projector_system,
)
from chowkit import identities, motives
from chowkit.cli import main
from chowkit.fileio import parse_ring
from chowkit.motives import fiber_projectors
from chowkit.murre import cellular_ck

from corpus import collapsed_products, degenerate_surface_doc, flat_square, identity_added_to_block_00
from corpus import nonassociative, off_codim_image, perturbed_pi2, piece_doubled

FAILING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "failing")


def rendered(report):
    return {"lines": report.lines(), "data": report.to_dict()}


def raised(build):
    with pytest.raises(ValueError) as err:
        build()
    return {"error": str(err.value).splitlines()}


def cellular_p1_with(edit, name):
    p1 = projective_space(1)
    projs = dict(cellular_ck(p1).projectors)
    edit(projs)
    return CKDecomposition(p1, projs, name=name)


def duplicated(projs):
    projs[2] = projs[0]


def swapped(projs):
    projs[0], projs[2] = projs[2], projs[0]


def case_pairing(mp):
    return rendered(verify_pairing(parse_ring(degenerate_surface_doc())))


def case_fibration_model(mp):
    return {
        "flat square": rendered(validate_fibration(flat_square())),
        "nonassociative": rendered(validate_fibration(nonassociative())),
        "collapsed products": rendered(validate_fibration(collapsed_products())),
    }


def case_projector_family(mp):
    # the flat square fails fiberwise duality, so its family writes no operator
    model = flat_square()
    return {
        "family": raised(lambda: verify_projector_family(build_projector_family(model), samples=2)),
        "duality": rendered(duality_report(model, samples=2)),
    }


def case_ambient_battery(mp):
    battery = (point(), projective_space(1))
    return raised(lambda: manin_battery(flat_square(), battery=battery, samples=2))


def case_projector_system(mp):
    ps = fiber_projectors(projective_space(1))
    return rendered(verify_projector_system([ps[0], ps[0], ps[1]]))


def case_identity_battery(mp):
    compose = identities.compose
    mp.setattr(identities, "compose", lambda g, f: compose(g, f) * 2)
    return rendered(identities.run_identity_battery(samples=2, seed=1))


def case_oracle_battery(mp):
    compose = identities.compose
    mp.setattr(identities, "compose_oracle", lambda g, f: compose(g, f).cycle * 2)
    rings = (projective_space(1), projective_space(2))
    return rendered(identities.compose_oracle_battery(rings, samples=2, seed=1))


def case_block_diagonality(mp):
    model = hirzebruch(1)
    identity_added_to_block_00(mp, model)
    return rendered(verify_block_diagonality(model, samples=4, seed=3))


def case_chow_kunneth(mp):
    return {
        "duplicated": rendered(verify_ck(cellular_p1_with(duplicated, "broken"))),
        "swapped": rendered(verify_ck(cellular_p1_with(swapped, "swapped"))),
        "perturbed Pi_2": rendered(verify_ck(perturbed_pi2())),
        "off-codim image": rendered(verify_ck(off_codim_image())),
    }


def case_action_window(mp):
    return rendered(verify_action_window(cellular_p1_with(swapped, "swapped")))


def case_decompose_model(mp):
    model = piece_doubled(mp)
    return raised(lambda: decompose_model(model))


def case_decompose_motive(mp):
    mp.setattr(motives, "fiber_projectors", lambda ring: [fiber_projectors(ring)[0]] * 2)
    return raised(lambda: decompose_motive(projective_space(1)))


def case_cli_degenerate_surface(mp):
    # the projectors suite fails on this ring with the same degenerate-pairing
    # line as ck, motives and murre (test_cli checks every suite of one run);
    # this golden keeps the six suites it was recorded with
    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ring.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(degenerate_surface_doc(), fh)
        for suite in ("ck", "duality", "manin", "motives", "murre", "pairing"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["verify", "--ring-file", path, "--suite", suite, "--format", "json"])
            docs[suite] = {"exit": code, "report": json.loads(out.getvalue())}
    return docs


CASES = {
    name[len("case_"):]: fn for name, fn in sorted(globals().items()) if name.startswith("case_")
}


def document(name, mp):
    return json.dumps(CASES[name](mp), indent=2) + "\n"


def failing_path(name):
    return os.path.join(FAILING, name + ".json")


def test_failing_set_matches_cases():
    on_disk = sorted(f for f in os.listdir(FAILING) if f.endswith(".json"))
    assert on_disk == sorted(os.path.basename(failing_path(n)) for n in CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_failing_report_rendering(name, monkeypatch):
    got = document(name, monkeypatch)
    with open(failing_path(name), encoding="utf-8") as fh:
        assert got == fh.read()
    assert '"passed": false' in got or '"error"' in got


if __name__ == "__main__":
    import sys

    os.makedirs(FAILING, exist_ok=True)
    for name in sorted(CASES):
        with pytest.MonkeyPatch.context() as mp:
            doc = document(name, mp)
        with open(failing_path(name), "w", encoding="utf-8") as fh:
            fh.write(doc)
        print(name, file=sys.stderr)
