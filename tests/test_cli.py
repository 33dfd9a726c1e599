"""CLI surface: targets, suites, formats, exit codes 0/1/2/3."""

import json
import os
import subprocess
import sys
import time

import pytest

import chowkit
from chowkit import ChowRing, diagonal, point, save_fibration, save_ring
from chowkit.catalog import catalog_entries, hirzebruch, projective_space, resolve
from chowkit import cli, fibrations, motives, murre
from chowkit.cli import main, render_text
from chowkit.fileio import dump_fibration, dump_ring, parse_fibration, parse_ring
from chowkit.murre import cellular_ck

from checks import forget, spy
from corpus import degenerate_surface_doc


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_lists_entries(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "Gr(2,4)" in out and "hirzebruch:2" in out
    code, out, _ = run(capsys, "catalog", "--format", "json")
    doc = json.loads(out)
    assert doc["command"] == "catalog"
    names = [e["name"] for e in doc["entries"]]
    assert "point" in names and "pbundle:p2:h" in names
    byname = {e["name"]: e for e in doc["entries"]}
    assert byname["p2"]["ranks"] == [1, 1, 1]
    assert byname["product:p2,p1"]["ranks"] == [1, 2, 2, 1]


def test_catalog_reads_every_entry_through_dimension_and_rank(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    for entry, e in zip(catalog_entries(), json.loads(out)["entries"]):
        thing = entry.build()
        assert list(e) == ["name", "kind", "dimension", "ranks", "description"]
        assert e["name"] == entry.name and e["dimension"] == thing.dimension
        if isinstance(thing, ChowRing):
            assert e["ranks"] == list(thing.ranks)
        else:
            assert e["ranks"] == [thing.rank(p) for p in range(thing.dimension + 1)]


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "gr24", "--suite", "pairing")
    assert code == 0
    assert "[pairing] pass" in out
    assert out.rstrip().splitlines()[-1].startswith("elapsed:")


def test_verify_all_suites_ordered(capsys):
    code, out, _ = run(
        capsys, "verify", "--catalog", "hirzebruch:1", "--suite", "all",
        "--samples", "10", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert [s["suite"] for s in doc["suites"]] == [
        "ck", "duality", "identities", "manin", "motives", "murre", "pairing", "projectors",
    ]
    assert doc["passed"] and doc["seed"] == 0 and doc["samples"] == 10


def test_verify_ring_skips_manin(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "p2", "--suite", "manin")
    assert code == 0
    assert "[manin] skipped" in out


def test_target_flag_validation(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--suite", "pairing")
    assert code == 2 and "exactly one of" in err
    rp = tmp_path / "r.json"
    save_ring(projective_space(1), rp)
    code, _, err = run(capsys, "verify", "--catalog", "p1", "--ring-file", str(rp))
    assert code == 2 and "exactly one of" in err


def test_unknown_catalog_name_is_a_parse_error(capsys):
    code, _, err = run(capsys, "verify", "--catalog", "p1x", "--suite", "pairing")
    assert code == 2
    assert "unknown catalog name 'p1x'" in err


def test_malformed_json_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 1, "cells": [}')
    code, _, err = run(capsys, "verify", "--ring-file", str(bad), "--suite", "pairing")
    assert code == 2
    assert "invalid JSON at line 1" in err


@pytest.mark.parametrize(
    "field, value, flag",
    [
        ("products", 5, "--ring-file"),
        ("name", ["x"], "--ring-file"),
        ("name", ["x"], "--fibration-file"),
    ],
)
def test_malformed_optional_field_is_a_parse_error(capsys, tmp_path, field, value, flag):
    if flag == "--ring-file":
        doc, where = degenerate_surface_doc(), "ring"
    else:
        doc, where = {"base": "p1", "fiber": "p1", "kind": "trivial"}, "fibration"
    doc[field] = value
    bad = tmp_path / "doc.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", flag, str(bad), "--suite", "pairing")
    assert code == 2 and out == ""
    assert f"{where}.{field}: expected" in err and "Traceback" not in err


def p1_doc():
    return {
        "dimension": 1,
        "cells": [
            {"codim": 0, "index": 1, "label": "1"},
            {"codim": 1, "index": 1, "label": "h"},
        ],
    }


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda doc: doc.update(dimension=True), "ring.dimension"),
        (lambda doc: doc["cells"][1].update(codim=True), "cells[1].codim"),
        (lambda doc: doc["cells"][0].update(index=True), "cells[0].index"),
    ],
    ids=["dimension", "codim", "index"],
)
def test_boolean_integer_field_is_a_parse_error(capsys, tmp_path, edit, where):
    # true == 1 in Python, so each edit would otherwise load as P^1
    doc = p1_doc()
    edit(doc)
    bad = tmp_path / "ring.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--ring-file", str(bad), "--suite", "pairing")
    assert code == 2 and out == ""
    assert f"{where}: expected <class 'int'>, got bool" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--ring-file", "--fibration-file"])
def test_dimension_beyond_the_cells_is_a_parse_error(capsys, tmp_path, flag):
    # refused before any per-codim structure is built
    ring = dict(p1_doc(), dimension=10**6)
    doc = ring if flag == "--ring-file" else {"base": ring, "fiber": "p1", "kind": "trivial"}
    bad = tmp_path / "doc.json"
    bad.write_text(json.dumps(doc))
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", flag, str(bad), "--suite", "pairing")
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert "ring.dimension: 1000000 needs a cell in each codim 0..1000000, got 2 cell(s)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("side", ["base", "fiber"])
def test_inline_ring_errors_name_their_side(capsys, tmp_path, side):
    ring = p1_doc()
    del ring["cells"][1]["label"]
    ring["products"] = [{"left_label": "h", "right_label": "x", "result": []}]
    doc = {"base": "p1", "fiber": "p1", "kind": "trivial"}
    doc[side] = ring
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--fibration-file", str(bad), "--suite", "pairing")
    assert code == 2 and out == ""
    assert f"fibration.{side}.cells[1]: missing field 'label'" in err and "Traceback" not in err
    ring["cells"][1]["label"] = "h"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--fibration-file", str(bad), "--suite", "pairing")
    assert code == 2 and out == ""
    assert f"fibration.{side}.products[0].right_label: unknown cell 'x'" in err


def test_invalid_ring_math_is_a_validation_error(capsys, tmp_path):
    doc = {
        "dimension": 1,
        "cells": [
            {"codim": 0, "index": 1, "label": "1"},
            {"codim": 1, "index": 1, "label": "e"},
        ],
        "products": [
            {"left_label": "e", "right_label": "e", "result": [{"label": "e", "coeff": 1}]}
        ],
    }
    bad = tmp_path / "ring.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--ring-file", str(bad), "--suite", "pairing")
    assert code == 3
    assert "grading" in err


def test_fibration_file_target(capsys, tmp_path):
    fp = tmp_path / "model.json"
    save_fibration(hirzebruch(1), fp, base_ref="p1", fiber_ref="p1")
    code, out, _ = run(capsys, "verify", "--fibration-file", str(fp), "--suite", "projectors",
                       "--samples", "5")
    assert code == 0
    assert "[projectors] pass" in out


def test_invalid_fibration_is_a_validation_error(capsys, tmp_path):
    # a legal ring document whose middle pairing vanishes (e*e = 0)
    fiber = degenerate_surface_doc()
    doc = {"base": "p1", "fiber": fiber, "kind": "trivial"}
    fp = tmp_path / "model.json"
    fp.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--fibration-file", str(fp), "--suite", "projectors")
    assert code == 3
    assert "delta" in err or "duality" in err


def test_failed_suite_exits_one(capsys, tmp_path):
    # the degenerate surface parses and constructs, so the pairing suite
    # runs and honestly fails
    rp = tmp_path / "ring.json"
    rp.write_text(json.dumps(degenerate_surface_doc()))
    code, out, _ = run(capsys, "verify", "--ring-file", str(rp), "--suite", "pairing")
    assert code == 1
    assert "[pairing] FAIL" in out
    assert out.rstrip().splitlines()[-2] == "result: FAIL"


@pytest.mark.parametrize("suite", ["projectors", "all"])
def test_degenerate_ring_fails_projectors_without_traceback(capsys, tmp_path, suite):
    # fiber_projectors needs dual bases, which a degenerate pairing lacks
    rp = tmp_path / "ring.json"
    rp.write_text(json.dumps(degenerate_surface_doc()))
    code, out, err = run(capsys, "verify", "--ring-file", str(rp), "--suite", suite)
    assert code == 1
    lines = out.splitlines()
    at = lines.index("[projectors] FAIL")
    assert "pairing at codim 1 is degenerate" in lines[at + 1]
    assert "Traceback" not in out + err


def test_projective_space_guard_refuses_fast(capsys):
    started = time.perf_counter()
    code, _, err = run(capsys, "verify", "--catalog", "p400", "--suite", "pairing")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "P^400 has dimension 400, beyond the guard 100" in err


def test_battery_must_name_rings(capsys):
    code, _, err = run(capsys, "verify", "--catalog", "hirzebruch:1", "--suite", "manin",
                       "--battery", "point,hirzebruch:1")
    assert code == 2
    assert "is a model, not a ring" in err
    assert err.startswith("--battery entry 2 ('hirzebruch:1'): ")
    # an empty list, an empty entry, and a product cut in two by the list's own commas
    for battery, where, message in (
        ("", "--battery entry 1 (''): ", "unknown catalog name ''"),
        ("p1,,p2", "--battery entry 2 (''): ", "unknown catalog name ''"),
        ("point,product:p1,p1", "--battery entry 2 ('product:p1'): ", "product takes exactly two factor names"),
    ):
        for command, suite in (("verify", ["--suite", "manin"]), ("ck", [])):
            code, _, err = run(capsys, command, "--catalog", "p2", *suite, "--battery", battery)
            assert code == 2 and err.startswith(where + message), (command, battery)


def test_decompose_text_and_json(capsys):
    code, out, _ = run(capsys, "decompose", "--catalog", "hirzebruch:2")
    assert code == 0
    assert "motive decomposition of hirzebruch(2): 4 piece(s)" in out
    code, out, _ = run(capsys, "decompose", "--catalog", "hirzebruch:2", "--format", "json")
    doc = json.loads(out)
    assert doc["suites"][0]["data"]["rank_profile"] == [1, 2, 1]
    code, out, _ = run(capsys, "decompose", "--catalog", "point")
    assert code == 0 and "1 piece(s)" in out


def test_ck_command(capsys):
    code, out, _ = run(capsys, "ck", "--catalog", "hirzebruch:1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    conditions = doc["suites"][0]["data"]["conditions"]
    assert all(c["status"] != "FAIL" for c in conditions)
    ranks = doc["suites"][0]["data"]["action"]["table"]
    by_degree = {}
    for row in ranks:
        by_degree[row["degree"]] = by_degree.get(row["degree"], 0) + row["rank"]
    assert [by_degree[k] for k in range(5)] == [1, 0, 2, 0, 1]


def test_ck_command_prints_the_ck_suite(capsys, monkeypatch):
    # the README's battery example; each command verifies each CK once: the
    # suite reports the battery's first entry, the model's own lift
    flags = ("--catalog", "product:p2,p1", "--battery", "point,p1,p2", "--format", "json")
    verified = []
    for module in (cli, murre):
        spy(monkeypatch, module, "verify_ck", verified)
    model = resolve("product:p2,p1")
    docs = []
    for command in (["ck"], ["verify", "--suite", "ck"]):
        # the model keeps its lifted blocks and its extensions: drop them, so
        # every base CK is checked again
        forget(monkeypatch, model)
        del verified[:]
        code, out, _ = run(capsys, *command, *flags)
        names = [ck.name for ck, in verified]
        assert code == 0 and len(names) == 8 == len(set(names))
        assert "lifted CK of P^2 x P^1" in names
        docs.append(json.loads(out))
    ck_doc, suite_doc = docs
    assert [s["suite"] for s in ck_doc["suites"]] == ["ck"]
    assert ck_doc["suites"] == suite_doc["suites"] and ck_doc["passed"] is True
    assert len(ck_doc["suites"][0]["data"]) == 2  # the model's lift, then the battery


def test_ck_point_projector_is_the_diagonal(capsys):
    code, out, _ = run(capsys, "ck", "--catalog", "point")
    assert code == 0
    # the single projector is the diagonal class itself
    assert cellular_ck(point()).projectors[0] == diagonal(point())


def test_ck_degenerate_ring_is_a_validation_error(capsys, tmp_path):
    rp = tmp_path / "ring.json"
    rp.write_text(json.dumps(degenerate_surface_doc()))
    code, _, err = run(capsys, "ck", "--ring-file", str(rp))
    assert code == 3
    assert "pairing at codim 1 is degenerate" in err


def test_verify_all_on_the_degenerate_ring_fails_suite_by_suite(capsys, tmp_path):
    # a suite whose hypothesis fails (dual bases need perfect pairings) is
    # that suite's FAIL document, and the run goes on to the next suite
    rp = tmp_path / "ring.json"
    rp.write_text(json.dumps(degenerate_surface_doc()))
    code, out, err = run(capsys, "verify", "--ring-file", str(rp), "--suite", "all", "--format", "json")
    assert code == 1 and err == ""
    suites = json.loads(out)["suites"]
    assert [s["suite"] for s in suites] == list(cli._SUITES)
    by_name = {s["suite"]: s for s in suites}
    for name in ("ck", "motives", "murre", "projectors"):
        assert by_name[name]["passed"] is False
        assert by_name[name]["lines"] == ["ring(dim=2): pairing at codim 1 is degenerate"]
    assert by_name["manin"]["skipped"] == "needs a fibration model"


# -- one CK and one action-window table per target, for one run only ----------------


def count_builds_and_tables(monkeypatch):
    """({builder: [(target,) per CK the cli builds with it]}, [populated
    (degree, codim) blocks of each action-window table that murre ranks])."""
    builds, tables = {name: spy(monkeypatch, cli, name) for name in ("cellular_ck", "lift_ck")}, []
    real_blocks = murre.codim_blocks

    def ranked(space, columns):
        codim_of, blocks = real_blocks(space, columns)
        tables.append(sum(map(len, blocks.values())))
        return codim_of, blocks

    monkeypatch.setattr(murre, "codim_blocks", ranked)
    return builds, tables


def built(builds):
    """The builder of each CK build, cellular ones first."""
    return [name for name, calls in builds.items() for _ in calls]


@pytest.mark.parametrize("flag, save, build, tables", [
    ("--ring-file", lambda path: save_ring(projective_space(3), path), "cellular_ck", [4]),
    # the base's table (P^1: degrees 0 and 2 on codims 0 and 1), then the lift's
    ("--fibration-file", lambda path: save_fibration(hirzebruch(1), path), "lift_ck", [2, 3]),
], ids=["ring", "fibration"])
def test_verify_all_builds_and_ranks_each_ck_once(capsys, tmp_path, monkeypatch, flag, save, build, tables):
    path = tmp_path / "target.json"
    save(path)
    builds, got = count_builds_and_tables(monkeypatch)
    code, _, _ = run(capsys, "verify", flag, str(path), "--suite", "all", "--samples", "3", "--format", "json")
    assert code == 0
    assert (built(builds), got) == ([build], tables)


@pytest.mark.parametrize("make, build, table", [
    (lambda: parse_ring(dump_ring(projective_space(3))), "cellular_ck", 4),
    # the lifted blocks stay on the model, so a later run ranks only the lift's table
    (lambda: parse_fibration(dump_fibration(hirzebruch(1))), "lift_ck", 3),
], ids=["ring", "fibration"])
def test_no_ck_state_outlives_its_run(monkeypatch, make, build, table):
    target = make()
    cli._run(target, ["ck", "murre"], cli.RunConfig(samples=3))
    builds, tables = count_builds_and_tables(monkeypatch)
    docs = [cli._run(target, ["ck", "murre"], cli.RunConfig(samples=3)) for _ in range(2)]
    assert built(builds) == [build] * 2 and tables == [table] * 2
    assert docs[0] == docs[1] and all(doc["passed"] for doc in docs[0])


@pytest.mark.parametrize("target, build", [("p3", "cellular_ck"), ("hirzebruch:1", "lift_ck")])
def test_ck_command_builds_the_ck_once(capsys, monkeypatch, target, build):
    builds, _ = count_builds_and_tables(monkeypatch)
    code, _, _ = run(capsys, "ck", "--catalog", target, "--format", "json")
    assert code == 0 and built(builds) == [build]


def test_verify_all_runs_the_manin_battery_once(capsys, monkeypatch):
    # the projectors suite renders, under --battery, the manin suite's report
    manins, extensions = spy(monkeypatch, cli, "manin_battery"), spy(monkeypatch, fibrations, "ambient_extend")
    # the model keeps its extensions, so an earlier run would have built them
    forget(monkeypatch, resolve("hirzebruch:1"))
    code, out, _ = run(capsys, "verify", "--catalog", "hirzebruch:1", "--suite", "all",
                       "--battery", "point,p1,p2", "--samples", "3", "--format", "json")
    assert code == 0
    # three extensions, which the CK battery and the manin battery share
    assert len(manins) == 1 and len(extensions) == 3
    suites = {s["suite"]: s for s in json.loads(out)["suites"]}
    projectors, manin = suites["projectors"], suites["manin"]
    assert projectors["data"][1] == manin["data"]
    assert [e["ambient"] for e in manin["data"]["entries"]] == ["point", "P^1", "P^2"]
    assert projectors["lines"][-len(manin["lines"]):] == manin["lines"]


# each module binding of the builds a model keeps, and of the CK check
KEPT_BUILDS = [
    *((module, "build_projector_family") for module in (cli, fibrations, motives, murre)),
    (murre, "lifted_blocks"),
    (fibrations, "ambient_extend"),
    *((module, "verify_ck") for module in (cli, murre)),
]


def test_a_forgotten_catalog_model_runs_as_a_fresh_one(capsys, tmp_path, monkeypatch):
    # the cached hirzebruch:1, with all it keeps dropped, is built and checked
    # as often as a fresh copy, and reports the same suites
    calls = {}
    for module, name in KEPT_BUILDS:
        spy(monkeypatch, module, name, calls.setdefault(name, []))
    path = tmp_path / "h1.json"
    save_fibration(hirzebruch(1), path)
    flags = ("--suite", "all", "--battery", "point,p1,p2", "--samples", "3", "--format", "json")
    run(capsys, "verify", "--catalog", "hirzebruch:1", *flags)  # what it keeps, forget drops
    counts, docs = [], []
    for target in (("--catalog", "hirzebruch:1"), ("--fibration-file", str(path))):
        forget(monkeypatch, resolve("hirzebruch:1"))
        for c in calls.values():
            del c[:]
        code, out, _ = run(capsys, "verify", *target, *flags)
        assert code == 0
        counts.append({name: len(c) for name, c in calls.items()})
        docs.append(json.loads(out)["suites"])
    assert counts[0] == counts[1] and all(counts[0].values())
    assert counts[0]["ambient_extend"] == 3
    assert docs[0] == docs[1]


def test_identities_command_deterministic(capsys):
    code, out1, _ = run(capsys, "identities", "--samples", "5", "--seed", "4", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "identities", "--samples", "5", "--seed", "4", "--format", "json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["target"] == "(P^1, P^2)"


def test_json_report_rerenders_to_text(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "p2", "--suite", "motives",
                       "--format", "json")
    doc = json.loads(out)
    code, out, _ = run(capsys, "verify", "--catalog", "p2", "--suite", "motives")
    text_lines = out.rstrip().splitlines()
    assert text_lines[-1].startswith("elapsed:")
    assert render_text(doc) == text_lines[:-1]


def test_argparse_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--catalog", "p1", "--suite", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--catalog", "p2", "--suite", "identities", "--samples", "-5"),
        ("identities", "--samples", "-1"),
        ("ck", "--catalog", "p2", "--samples", "-5"),  # ck has no --samples at all
    ],
)
def test_negative_samples_is_a_parse_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("identities", "--samples", "0"),
        ("verify", "--catalog", "p2", "--suite", "identities", "--samples", "0"),
    ],
)
def test_zero_samples_is_a_parse_error(capsys, argv):
    # a battery that checks nothing must not pass
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "expected a positive integer, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("ck", "--catalog", "p100", "--format", "json"), id="json"),
        pytest.param(("verify", "--catalog", "p100", "--suite", "all", "--format", "text"), id="text"),
    ],
)
def test_a_reader_closing_the_pipe_early_exits_141_quietly(argv):
    # each report is at least twice a 64 KiB pipe buffer (2.2 MB of JSON,
    # 139 kB of text), so the writer is still writing when the reader stops
    # after one line (as ``| head -1``), even after the reader's buffered
    # readline has drained up to 8 KiB of it
    src = os.path.dirname(os.path.dirname(os.path.abspath(chowkit.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "chowkit", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first in (b"{\n", b"chowkit verify: p100\n")
    assert err == b""
