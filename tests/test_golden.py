"""Golden reports: fixed-seed ``--format json`` output, locked byte for byte.

Each file under ``tests/golden/`` is the exact stdout of one CLI run.  The
set covers ``verify --suite all`` on every catalog entry plus one ``ck`` and
one ``decompose`` run, and ``verify --suite all`` on the two files under
``tests/data/``: a plane whose h * h is twice the point, so its middle dual
is h/2 and its cycles carry Fraction coefficients, and the trivial P^1
fibration over it.  A deliberate change to a report regenerates the files
with ``PYTHONPATH=src python tests/test_golden.py`` and says so in
CHANGES.md; a speed-up must leave them untouched.
"""

import json
import os
import sys

import pytest

from chowkit.catalog import catalog_entries
from chowkit.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
VERIFY = ("--suite", "all", "--seed", "0", "--samples", "20", "--format", "json")


def cases():
    out = {
        f"verify-{entry.name}": ["verify", "--catalog", entry.name, *VERIFY]
        for entry in catalog_entries()
    }
    out["ck-p30"] = ["ck", "--catalog", "p30", "--format", "json"]
    out["decompose-hirzebruch:2"] = ["decompose", "--catalog", "hirzebruch:2", "--format", "json"]
    for flag, name in (("--ring-file", "doubled_plane"), ("--fibration-file", "doubled_plane_p1")):
        out[f"verify-file-{name}"] = ["verify", flag, os.path.join(HERE, "data", f"{name}.json"), *VERIFY]
    return out


def golden_path(name):
    return os.path.join(GOLDEN, name.replace(":", "_").replace(",", "_") + ".json")


CASES = cases()


def test_golden_set_matches_catalog():
    on_disk = sorted(f for f in os.listdir(GOLDEN) if f.endswith(".json"))
    assert on_disk == sorted(os.path.basename(golden_path(n)) for n in CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    with open(golden_path(name), encoding="utf-8") as fh:
        want = fh.read()
    assert out == want
    assert code == (0 if json.loads(out)["passed"] else 1)


if __name__ == "__main__":
    import contextlib
    import io

    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(argv)
        with open(golden_path(name), "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        print(name, file=sys.stderr)
