"""Start-up and shutdown cost: the modules one CLI process imports, the
plain classes that replaced the generated ones, and the cyclic collector,
paused while main runs and kept off the heap at interpreter exit."""

import contextlib
import gc
import json
import os
import subprocess
import sys

import pytest

import chowkit
from chowkit import BasisCell, Report, cli, save_fibration, save_ring
from chowkit.catalog import hirzebruch, projective_space
from chowkit.cli import build_parser, main
from chowkit.schubert import lr_product, partitions_in_box

from corpus import degenerate_surface_doc

HEAVY = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")


def test_cli_import_loads_no_heavy_module():
    # -S -I: no site, no environment, no user path; only the package's own imports
    src = os.path.dirname(os.path.dirname(os.path.abspath(chowkit.__file__)))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import chowkit.cli; "
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []


def test_reports_never_share_their_lists():
    a, b = Report("pairing", "x"), Report("pairing", "y")
    a.add("one", [])
    a.children.append(("over z", Report("pairing", "z")))
    assert a.checks is not b.checks and a.children is not b.children
    assert b.checks == [] and b.children == []
    assert Report("pairing", "w", a.checks).checks is a.checks


def test_basis_cell_equality_and_hash_follow_all_three_fields():
    cell = BasisCell(1, 2, "h")
    assert cell.key == (1, 2)
    assert cell == BasisCell(1, 2, "h") and hash(cell) == hash(BasisCell(1, 2, "h"))
    assert cell != BasisCell(1, 2, "k")  # same key, other label
    assert cell != BasisCell(1, 1, "h") and cell != BasisCell(2, 2, "h")
    assert cell != (1, 2, "h")
    assert len({cell, BasisCell(1, 2, "h"), BasisCell(1, 2, "k")}) == 2
    with pytest.raises(AttributeError):
        cell.extra = 1  # slotted


# -- the cyclic collector ----------------------------------------------------------


@contextlib.contextmanager
def collector(enabled):
    """The cyclic collector switched on or off for the block, then as it was."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_restores_the_collector_setting(capsys, tmp_path, enabled):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(degenerate_surface_doc()))
    cases = [  # (argv, exit code): one of each code main returns
        (["verify", "--catalog", "p1", "--suite", "pairing"], 0),
        (["verify", "--ring-file", str(ring), "--suite", "pairing"], 1),
        (["verify", "--catalog", "nosuch"], 2),
        (["ck", "--ring-file", str(ring)], 3),
    ]
    with collector(enabled):
        frozen = gc.get_freeze_count()
        for argv, code in cases:
            assert main(argv) == code
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen), argv
        with pytest.raises(SystemExit):
            main(["frobnicate"])
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    capsys.readouterr()


def test_no_collection_runs_while_main_runs(capsys):
    seen = []

    def hook(phase, info):
        # only a collection with main on the stack counts, not the young
        # one that the first allocation after main's return may start
        frame = sys._getframe()
        while frame is not None and frame.f_code is not main.__code__:
            frame = frame.f_back
        if frame is not None:
            seen.append((phase, info["generation"]))

    with collector(True):
        gc.collect()  # the allocation counters start at zero
        gc.callbacks.append(hook)
        try:
            code = main(["verify", "--catalog", "hirzebruch:1", "--suite", "all"])
        finally:
            gc.callbacks.remove(hook)
    assert code == 0 and "result: pass" in capsys.readouterr().out
    assert seen == []


def test_a_passing_run_leaves_no_cyclic_garbage_but_the_parsers(capsys, tmp_path, monkeypatch):
    """The premise of the pause.  argparse's parsers are cyclic (each action
    refers to its parser), so a run leaves exactly what build_parser alone
    leaves; nothing of chowkit's dies in a cycle while main runs.  A target
    loaded from a file is cyclic too (its kept values refer to it), and it
    lives until main returns, so the test keeps it alive while it counts."""
    save_ring(projective_space(3), tmp_path / "ring.json")
    save_fibration(hirzebruch(1), tmp_path / "model.json", base_ref="p1", fiber_ref="p1")
    targets = []
    load = cli.load_target
    monkeypatch.setattr(cli, "load_target", lambda args: targets.append(load(args)) or targets[-1])
    runs = [
        ["verify", "--catalog", "hirzebruch:1", "--suite", "all", "--samples", "5"],
        ["verify", "--catalog", "gr25", "--suite", "all", "--samples", "5", "--format", "json"],
        ["verify", "--ring-file", str(tmp_path / "ring.json"), "--samples", "5"],
        ["verify", "--fibration-file", str(tmp_path / "model.json"), "--samples", "5"],
        ["ck", "--catalog", "product:p2,p1", "--battery", "point,p1"],
        ["decompose", "--catalog", "hirzebruch:2"],
        ["identities", "--samples", "20"],
        ["catalog", "--format", "json"],
    ]
    with collector(False):  # so that nothing is collected between a run and its count
        gc.collect()
        build_parser()
        parser = gc.collect()
        left = {}
        for argv in runs:
            gc.collect()
            assert main(argv) == 0, argv
            left[" ".join(argv)] = gc.collect() - parser
        targets.clear()
    capsys.readouterr()
    assert parser > 0 and set(left.values()) == {0}, left


def test_the_schubert_recursions_leave_no_cyclic_garbage():
    # what a cold Grassmannian build runs; a warm catalog never shows it
    with collector(False):
        gc.collect()
        assert partitions_in_box(3, 4) and lr_product((2, 1), (2, 1), 3, 4)
        assert gc.collect() == 0


def test_the_exit_hook_freezes_the_heap_after_main():
    # atexit runs its hooks last in, first out: a probe registered before
    # chowkit.cli is imported runs after the module's hook
    src = os.path.dirname(os.path.dirname(os.path.abspath(chowkit.__file__)))
    code = (
        "import atexit, gc, sys; "
        "atexit.register(lambda: print('frozen', gc.get_freeze_count())); "
        f"sys.path.insert(0, {src!r}); from chowkit.cli import main; "
        "print('before', gc.get_freeze_count()); "
        "sys.exit(main(['verify', '--catalog', 'p1', '--suite', 'pairing']))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0 and out.stderr == ""
    (before, at), *_, (after, count) = (line.split() for line in out.stdout.splitlines())
    assert (before, after) == ("before", "frozen") and int(count) > int(at)
