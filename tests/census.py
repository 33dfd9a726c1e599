"""The reach census: every function and method in src/ that the command line
reaches, and the ones it does not.

    python tests/census.py

Runs ``chowkit.cli.main`` in this process under ``sys.setprofile``, once
per subcommand and format (text and JSON):

- catalog and identities;
- verify, decompose and ck on every catalog entry, and verify and ck again
  with --battery;
- the same on both files of tests/data and on the ring and bundle documents
  the benchmark generates (perfbench/inputs.py, seed 0);
- verify --suite murre alone on every target, which builds the CK that the
  ck suite hands it in a full run.

A definition is reached when a call runs its code.  A decorated one's code
starts at its first decorator, so it is matched by that line.  Each
function and method of src/chowkit, nested ones included, that no run
reaches and that ALLOWED does not name is printed, and the exit status is
1; so is it for a name on ALLOWED that names no definition.  Standard
library only; it takes no options.
"""

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "chowkit"
SAMPLES = ("--samples", "2")
BATTERY = ("--battery", "point,p1")

# public API that only users and tests reach: no run of the command line
# calls it, and that is no fault
ALLOWED = {
    "correspondences.act",
    "correspondences.action_matrix",
    "correspondences.correspondence_from_action.lookup",
    "fileio.dump_fibration",
    "fileio.dump_ring",
    "fileio.save_fibration",
    "fileio.save_ring",
    "fibrations.FibrationModel.is_trivial",  # read by dump_fibration alone
    "motives.Motive.__init__",
    "murre.verify_motive_isomorphism",
    "murre.verify_motive_isomorphism.intertwines",
    "rings.ChowRing.partners",  # act and compose read the kept index itself
    "rings.Cycle.coefficient",
    "rings.Cycle.component",
    # failure paths that no valid input takes
    "cli.CliError.__init__",
    "cli._fail",
    "murre._first_difference",
    # operators, representations and hashes
    *(f"rings.Cycle.{name}" for name in ("__hash__", "__neg__", "__repr__", "__rmul__")),
    *(f"rings.BasisCell.{name}" for name in ("__eq__", "__hash__", "__repr__")),
    "rings.ChowRing.__repr__",
    *(f"correspondences.Correspondence.{name}" for name in ("__hash__", "__mul__", "__neg__", "__repr__", "__sub__")),
    "correspondences.MorphismData.__repr__",
    *(f"fibrations.FiberedCycle.{name}" for name in ("__mul__", "__neg__", "__repr__", "__rmul__", "__sub__")),
    "fibrations.FibrationModel.__repr__",
    "motives.Motive.__repr__",
}


def definitions():
    """{(file name, first line of its code): module.qualified.name} of every
    function and method of src/chowkit, nested ones included."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    found[path.name, min([child.lineno] + [d.lineno for d in child.decorator_list])] = name
                visit(child, name, path)
            else:
                visit(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, path)
    return found


def invocations(work):
    """The argument lists of the census runs; writes their input files to work."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    from chowkit.catalog import catalog_entries

    documents = {"ring.json": inputs.product_ring_document(0), "bundle.json": inputs.bundle_document(0)}
    for name, document in documents.items():
        (work / name).write_text(json.dumps(document))
    data = ROOT / "tests" / "data"
    targets = [("--catalog", entry.name) for entry in catalog_entries()] + [
        ("--ring-file", str(data / "doubled_plane.json")),
        ("--fibration-file", str(data / "doubled_plane_p1.json")),
        ("--ring-file", str(work / "ring.json")),
        ("--fibration-file", str(work / "bundle.json")),
    ]
    runs = [["catalog"], ["identities", *SAMPLES]]
    for target in targets:
        runs += [
            ["verify", *target, *SAMPLES],
            ["verify", *target, *SAMPLES, *BATTERY],
            ["verify", *target, "--suite", "murre", *SAMPLES],
            ["decompose", *target],
            ["ck", *target],
            ["ck", *target, *BATTERY],
        ]
    return [[*run, "--format", fmt] for run in runs for fmt in ("text", "json")]


def main():
    sys.path.insert(0, str(ROOT / "src"))
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            import chowkit
            from chowkit.cli import main as cli

            if Path(chowkit.__file__).parent != SRC:
                raise SystemExit(f"chowkit was imported from {chowkit.__file__}, not from {SRC}")
            runs = invocations(Path(tmp))
            for argv in runs:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    cli(argv)
        finally:
            sys.setprofile(None)
    reached = {(Path(f).name, line) for f, line in reached if Path(f).parent == SRC}
    defined = definitions()
    unreached = [name for place, name in sorted(defined.items()) if place not in reached]
    faults = [f"unreached: {name}" for name in unreached if name not in ALLOWED]
    faults += [f"ALLOWED names no definition: {name}" for name in sorted(ALLOWED - set(defined.values()))]
    print(f"{len(runs)} runs, {len(defined)} definitions, {len(unreached)} unreached, "
          f"{len(unreached) - len(ALLOWED & set(unreached))} of them not allowed")
    print("\n".join(faults) or "every unreached definition is allowed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
