"""Start-up cost: the modules one CLI process imports, and the plain classes
that replaced the generated ones."""

import os
import subprocess
import sys

import pytest

import chowkit
from chowkit import BasisCell, Report

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

