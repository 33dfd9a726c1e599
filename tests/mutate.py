"""The mutation sweep: run every mutant of mutants.py against its killer.

    python tests/mutate.py

Copies the repository's src/, tests/ and perfbench/ (with README.md and
pyproject.toml) to a temporary directory, and checks there that each named
killer passes on the unmutated tree.  Then, one mutant at a time, it
replaces the mutant's old text there (it must occur exactly once) and runs
its killer.  Only a FAILED line of the named killer is a kill: a killer
that cannot be collected or set up under the mutant (an ERROR line) is a
collection error, reported as such.  A killer that passes, or a known gap,
is followed by tier-1 with -x, which names the first failing test if any.
One line per mutant; the exit status is 1 when an expected kill survives
or is a collection error, a known gap dies, or an entry's old text is not
found exactly once or its mutant does not compile.  Standard library and
pytest only; it takes no options.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
GAP = "known gap: "
RESULT = re.compile(r"^(FAILED|ERROR) (.+?)(?: - .*)?$", re.M)


def first_failure(tree, args):
    """None when pytest -x on args in tree passes, else (kind, where): kind
    FAILED for a test that ran and failed, ERROR for a file or test that
    could not be collected or set up, where the node id or file its line
    names; ("exit", status) when no line names one."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
            cwd=tree, env=env, capture_output=True, text=True, timeout=300,
        )
    except subprocess.TimeoutExpired:
        return "exit", "a run past 300 s"
    if done.returncode == 0:
        return None
    found = RESULT.search(done.stdout)
    return (found[1], found[2]) if found else ("exit", f"pytest exit {done.returncode}")


def described(result):
    """A first_failure result as a line names it."""
    kind, where = result
    return {"FAILED": where, "ERROR": f"a collection error at {where}"}.get(kind, where)


def killed_by(result, killer):
    """Whether result is a FAILED line of the killer, or of one of its
    parameters when the killer names a parametrized test without one."""
    return result is not None and result[0] == "FAILED" and (
        result[1] == killer or result[1].startswith(killer + "["))


def sweep(tree):
    """Print one line per mutant; return the number of unexpected outcomes."""
    killers = sorted({k for *_, k in MUTANTS if not k.startswith(GAP)})
    broken = first_failure(tree, killers)
    if broken:
        print(f"a killer fails on the unmutated tree: {described(broken)}")
        return 1
    bad = 0
    for name, path, old, new, killer in MUTANTS:
        started = time.perf_counter()
        target = tree / path
        text = target.read_text()
        if text.count(old) != 1:
            print(f"{name}: the old text occurs {text.count(old)} times in {path}")
            bad += 1
            continue
        try:  # a mutant that does not compile would fail every test
            compile(text.replace(old, new), path, "exec")
        except SyntaxError as e:
            print(f"{name}: does not compile: {e}")
            bad += 1
            continue
        target.write_text(text.replace(old, new))
        try:
            gap = killer.startswith(GAP)
            result = None if gap else first_failure(tree, [killer])
            if killed_by(result, killer):
                outcome = f"killed by {killer}"
            elif result:
                bad += 1
                outcome = f"not a kill by {killer}: {described(result)}"
            elif not (other := first_failure(tree, [])) and gap:
                outcome = killer
            else:
                bad += 1
                other = described(other) if other else None
                outcome = f"a known gap, but {other} kills it" if gap else (
                    f"survived {killer}" + (f"; tier-1 kills it at {other}" if other else ""))
        finally:
            target.write_text(text)
        print(f"{name}: {outcome} ({time.perf_counter() - started:.1f} s)", flush=True)
    return bad


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, tree / name)
        bad = sweep(tree)
    print(f"{len(MUTANTS)} mutants, {bad} unexpected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
