"""Benchmark of the chowkit command line, stdlib only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE.jsonl CHANGE.jsonl
    python3 perfbench/run.py --record-digests

One client in a closed loop: each invocation is a fresh interpreter running
``chowkit.cli.main`` (so every lru_cache and the Kunneth cache start cold,
as they do for a CLI user), and the next starts only after it exits.  A
pass runs the workload's invocations once; passes repeat while another
still ends within ``--seconds``, and each metric is the median over passes.
After each untraced pass every target is also set up twice more by a child
that exits once the target is ready, and setup_s sums over the targets the
median of all their set-ups in the run.

Times are normalised for the speed of the core.  On a shared host the core
runs at about half speed while its hardware sibling is busy with another
tenant's work, switching every second or so, which the guest cannot see
(probe.py says more).  The runner pins itself, its children and a speed
probe to one core; the probe runs at nice 12 and times a fixed unit of
pure-Python work through every invocation.  Each time (an invocation's
wall, set-up and verdict) is divided by the probe's mean slowdown over the
same interval, so wall_s, setup_s and verdict_s, and the per-layer times,
are seconds at the probe's reference speed.  The unadjusted
times are printed beside them and kept in ``--out`` records.

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; pass_ratio is the share of invocations that passed every
check (1 - failed / attempted).  With ``--trace 1`` it alternates untraced and traced passes
and reports the per-layer metrics, taken from the traced passes, plus the
tracing overhead (traced minus untraced pass time).

Every invocation is checked: exit code 0, ``"passed": true``, a report whose
SHA-256 matches the digest recorded at the seed commit (digests.json), and
an independent check computed here without chowkit (inputs.py).  The last
line of stdout is the result as one JSON object (correct, attempted, failed,
metrics); ``--out FILE`` also appends it, with run metadata and pass times,
to a result set that ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import inputs
from probe import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORK = os.path.join(ROOT, ".perfbench_work")

# program seeds with recorded digests: a workload seed maps to seed % SEEDS,
# so that every seed has a reference report to compare with
SEEDS = 16
SAMPLES = "20"
IDENTITY_SAMPLES = 300
# set-up-only invocations per target after each untraced pass, so that setup_s
# is a median over several set-ups even when a run holds only two passes
SETUP_REPEATS = 2
# a hung invocation is killed, so that a run still ends within three minutes
INVOCATION_TIMEOUT_S = 60


class Invocation:
    """One CLI call of a workload and the independent checks on its report."""

    def __init__(self, key, args, betti=None, checks=()):
        self.key = key
        self.args = args + ["--format", "json"]
        self.betti = betti
        self.checks = checks


def workload_invocations(name, seed, work):
    """The invocations of one workload pass, with generated input files."""
    s = str(seed)
    gr24, p2 = inputs.betti_grassmannian(2, 4), inputs.betti_projective(2)
    verify = ["verify", "--suite", "all", "--samples", SAMPLES, "--seed", s]
    if name == "fibered":
        # product:gr24,gr24 (about 11 s a call) is left out so that one run
        # of the benchmark holds several passes
        bundle = os.path.join(work, "bundle.json")
        _write_json(bundle, inputs.bundle_document(seed))
        return [
            Invocation(
                "product:gr25,p2",
                verify + ["--catalog", "product:gr25,p2"],
                inputs.convolve(inputs.betti_grassmannian(2, 5), p2),
                ("ranks",),
            ),
            Invocation(
                "hirzebruch:1",
                verify + ["--catalog", "hirzebruch:1"],
                inputs.convolve(inputs.betti_projective(1), inputs.betti_projective(1)),
                ("ranks",),
            ),
            Invocation(
                "bundle-file", verify + ["--fibration-file", bundle], inputs.convolve(gr24, p2), ("ranks",)
            ),
        ]
    if name == "cellular":
        ring = os.path.join(work, "ring.json")
        _write_json(ring, inputs.product_ring_document(seed))
        return [
            Invocation("ck:p30", ["ck", "--catalog", "p30"], inputs.betti_projective(30), ("ranks",)),
            Invocation(
                "pairing:p80",
                ["verify", "--suite", "pairing", "--catalog", "p80"],
                inputs.betti_projective(80),
                ("pairing",),
            ),
            Invocation(
                "gr26", verify + ["--catalog", "gr26"], inputs.betti_grassmannian(2, 6), ("ranks", "pairing")
            ),
            Invocation(
                "ring-file",
                verify + ["--ring-file", ring],
                inputs.convolve(gr24, inputs.betti_projective(3)),
                ("ranks", "pairing"),
            ),
        ]
    if name == "identities":
        return [
            Invocation(
                "identities",
                ["identities", "--seed", s, "--samples", str(IDENTITY_SAMPLES)],
                checks=("identity-counts",),
            )
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fibered", "cellular", "identities")


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


# -- per-layer metrics: (source, names summed) ---------------------------------
# calls / time read the tracer's per-function counters and outermost inclusive
# times; self reads a layer's self time; cells reads rings.kunneth_cells.
# The comment above each group says which end-to-end metric the layer should
# move, and on which workload.

PER_LAYER = {
    # rings: kunneth builds move verdict_s and peak_rss_mb on cellular (p30);
    # ring builds move setup_s on cellular (p80); multiplies and cycle
    # constructions move verdict_s everywhere
    "rings.kunneth_build_s": ("time", ["rings.KunnethRing.__init__"]),
    "rings.kunneth_builds": ("calls", ["rings.KunnethRing.__init__"]),
    "rings.kunneth_cells": ("cells", ["rings.kunneth_cells"]),
    "rings.ring_build_s": ("time", ["rings.ChowRing.__init__"]),
    "rings.multiply_calls": ("calls", ["rings.ChowRing.multiply"]),
    "rings.cycle_constructions": ("calls", ["rings.Cycle.__init__"]),
    "rings.pairing_matrix_calls": ("calls", ["rings.ChowRing.pairing_matrix"]),
    "rings.self_s": ("self", ["rings"]),
    # correspondences: verdict_s on identities and cellular; act also on
    # fibered, inside the lift
    "correspondences.compose_calls": ("calls", ["correspondences.compose"]),
    "correspondences.compose_s": ("time", ["correspondences.compose"]),
    "correspondences.act_calls": ("calls", ["correspondences.act"]),
    "correspondences.act_s": ("time", ["correspondences.act"]),
    "correspondences.dual_basis_calls": ("calls", ["correspondences.dual_basis_cycles"]),
    "correspondences.dual_basis_s": ("time", ["correspondences.dual_basis_cycles"]),
    "correspondences.from_action_s": ("time", ["correspondences.correspondence_from_action"]),
    "correspondences.self_s": ("self", ["correspondences"]),
    # fibrations: verdict_s on fibered only; validation moves setup_s there
    "fibrations.sweeps": ("calls", ["fibrations.ProjectorFamily.apply_all_with_coefficients"]),
    "fibrations.sweep_s": ("time", ["fibrations.ProjectorFamily.apply_all_with_coefficients"]),
    "fibrations.model_multiply_calls": ("calls", ["fibrations.FibrationModel.multiply"]),
    "fibrations.fibered_cycle_constructions": ("calls", ["fibrations.FiberedCycle.__init__"]),
    "fibrations.validate_s": ("time", ["fibrations.validate_fibration"]),
    "fibrations.verify_family_s": ("time", ["fibrations.verify_projector_family"]),
    "fibrations.manin_s": ("time", ["fibrations.manin_battery"]),
    "fibrations.duality_s": ("time", ["fibrations.duality_report"]),
    "fibrations.self_s": ("self", ["fibrations"]),
    # motives: decomposition moves verdict_s on fibered, the projector
    # system check on cellular
    "motives.decompose_s": ("time", ["motives.decompose_model", "motives.decompose_motive"]),
    "motives.verify_system_s": ("time", ["motives.verify_projector_system"]),
    "motives.self_s": ("self", ["motives"]),
    # murre: verdict_s on fibered; cellular_ck and verify_ck also on cellular
    "murre.lift_ck_calls": ("calls", ["murre.lift_ck"]),
    "murre.lift_ck_s": ("time", ["murre.lift_ck"]),
    "murre.cellular_ck_s": ("time", ["murre.cellular_ck"]),
    "murre.verify_ck_s": ("time", ["murre.verify_ck"]),
    "murre.action_window_s": ("time", ["murre.verify_action_window"]),
    "murre.block_diagonality_s": ("time", ["murre.verify_block_diagonality"]),
    "murre.self_s": ("self", ["murre"]),
    # identities: verdict_s on identities, and inside every --suite all
    "identities.identity_battery_s": ("time", ["identities.run_identity_battery"]),
    "identities.oracle_battery_s": ("time", ["identities.compose_oracle_battery"]),
    "identities.self_s": ("self", ["identities"]),
    # linalg: verdict_s on fibered (action-window ranks) and cellular
    "linalg.rank_calls": ("calls", ["linalg.rank"]),
    "linalg.rank_s": ("time", ["linalg.rank"]),
    "linalg.mat_mul_calls": ("calls", ["linalg.mat_mul"]),
    "linalg.invert_calls": ("calls", ["linalg.invert"]),
    "linalg.self_s": ("self", ["linalg"]),
    # schubert: setup_s on cellular (gr26) and fibered
    "schubert.lr_product_calls": ("calls", ["schubert.lr_product"]),
    "schubert.lr_product_s": ("time", ["schubert.lr_product"]),
    "schubert.self_s": ("self", ["schubert"]),
    # catalog, fileio: setup_s
    "catalog.resolve_s": ("time", ["catalog.resolve"]),
    "catalog.self_s": ("self", ["catalog"]),
    "fileio.load_s": ("time", ["fileio.load_ring", "fileio.load_fibration"]),
    "fileio.self_s": ("self", ["fileio"]),
    # cli: each suite moves verdict_s on the workloads that run it; rendering
    # moves wall_s everywhere
    **{f"cli.{suite}_s": ("time", [f"cli._suite_{suite}"]) for suite in (
        "ck", "duality", "identities", "manin", "motives", "murre", "pairing", "projectors"
    )},
    "cli.emit_s": ("time", ["cli._emit"]),
    "cli.self_s": ("self", ["cli"]),
}
# measured by the runner itself: median traced pass time, and its excess
# over the median untraced pass of the same run
TRACING = ("tracing.wall_s", "tracing.overhead_s")


# -- running invocations -------------------------------------------------------


class Runner:
    """Runs passes of one workload's invocations from a private work directory."""

    def __init__(self, workload, seed, work, digests):
        self.workload = workload
        self.seed = seed % SEEDS
        self.work = work
        self.digests = digests
        self.invocations = workload_invocations(workload, self.seed, work)
        self.env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("PYTHON")
        }
        # fixed hashing keeps set orders, and so the traced counts, repeatable
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(work, "pycache")

    def warm_up(self):
        """Compile bytecode once so that no measured pass pays for it."""
        done = subprocess.run(
            [sys.executable, CHILD, SRC, "-", os.path.join(self.work, "warm.json"), "done"],
            env=self.env,
            cwd=self.work,
            capture_output=True,
            timeout=INVOCATION_TIMEOUT_S,
        )
        if done.returncode:
            raise SystemExit(f"cannot import chowkit from {SRC}:\n{done.stderr.decode()}")

    def invoke(self, inv, trace=False, setup_only=False):
        """Run one invocation to the end, or with ``setup_only`` until its
        target is ready; return its times, resources and failed checks."""
        marks_path = os.path.join(self.work, "marks.json")
        trace_path = os.path.join(self.work, "trace.json") if trace else "-"
        for path in (marks_path, trace_path):
            if os.path.exists(path):
                os.remove(path)
        with open(os.path.join(self.work, "stderr.txt"), "w+b") as err:
            spawned = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, CHILD, SRC, marks_path, trace_path, "ready" if setup_only else "done"]
                + inv.args,
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env,
                cwd=self.work,
            )
            killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            exited = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        result = {
            "key": inv.key,
            "exit": proc.returncode,
            "start": spawned,
            "wall": exited - spawned,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "digest": hashlib.sha256(out).hexdigest(),
            "misses": [],
        }
        marks = _read_json(marks_path) or {}
        if setup_only:
            if proc.returncode != 0:
                result["misses"].append(f"set-up alone: exit code {proc.returncode}: {stderr.strip()[-400:]}")
            elif "ready" not in marks:
                result["misses"].append("set-up alone: no ready mark")
            else:
                result["setup"] = marks["ready"] - spawned
            return result
        if "ready" in marks and "done" in marks:
            result["setup"] = marks["ready"] - spawned
            result["verdict"] = marks["done"] - marks["ready"]
        else:
            result["misses"].append("no ready/done marks: the CLI never loaded a target or emitted a report")
        if trace:
            result["trace"] = _read_json(trace_path)
            if result["trace"] is None:
                result["misses"].append("no trace written")
        result["misses"] += self.check(inv, proc.returncode, out, stderr, result["digest"])
        return result

    def check(self, inv, code, out, stderr, digest):
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-400:]}"]
        try:
            report = json.loads(out)
        except ValueError:
            return ["stdout is not a JSON report"]
        misses = []
        if report.get("passed") is not True:
            misses.append('"passed" is not true')
        if self.digests is not None:
            want = self.digests.get(self.workload, {}).get(inv.key, {}).get(str(self.seed))
            if digest != want:
                misses.append(f"report digest {digest[:12]} differs from the recorded {str(want)[:12]}")
        try:
            misses += self.independent_checks(inv, report)
        except (KeyError, TypeError, ValueError) as e:
            misses.append(f"report shape not as expected: {e!r}")
        return misses

    @staticmethod
    def independent_checks(inv, report):
        misses = []
        if "ranks" in inv.checks:
            found, windows = inputs.check_ranks(report, inv.betti)
            misses += found
            if not windows:
                misses.append("no action-window table in the report")
        if "pairing" in inv.checks:
            found, count = inputs.check_pairing(report, inv.betti)
            misses += found
            if not count:
                misses.append("no pairing report")
        if "identity-counts" in inv.checks:
            misses += inputs.check_identity_counts(report, IDENTITY_SAMPLES)
        return misses

    def run_pass(self, trace=False):
        """Every invocation once; after an untraced pass, and outside its
        wall time, each target is also set up SETUP_REPEATS more times."""
        started = time.perf_counter()
        results = [self.invoke(inv, trace) for inv in self.invocations]
        wall = time.perf_counter() - started
        setups = []
        if not trace:
            setups = [self.invoke(inv, setup_only=True) for inv in self.invocations for _ in range(SETUP_REPEATS)]
        return {"wall": wall, "trace": trace, "invocations": results, "setups": setups}


def normalise(passes, probe):
    """Scale each invocation's times by the probe's speed over the same
    interval (the whole invocation, its set-up, its verdict), and give
    every pass its scaled wall time (the pass's own wall, scaled by the
    invocation-time-weighted mean of its invocations' scales)."""
    for p in passes:
        for r in p["setups"]:
            if "setup" in r:
                r["scaled_setup"] = r["setup"] / probe.slowdown(r["start"], r["start"] + r["setup"])
        for r in p["invocations"]:
            start, end = r["start"], r["start"] + r["wall"]
            r["scale"] = 1.0 / probe.slowdown(start, end)
            if "setup" in r:
                ready = start + r["setup"]
                r["scaled_setup"] = r["setup"] / probe.slowdown(start, ready)
                r["scaled_verdict"] = r["verdict"] / probe.slowdown(ready, ready + r["verdict"])
        raw = sum(r["wall"] for r in p["invocations"])
        scaled = sum(r["wall"] * r["scale"] for r in p["invocations"])
        p["scaled_wall"] = p["wall"] * scaled / raw


def _remove(work):
    """Delete a run's work directory, and the parent once it is empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:
        pass


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# -- metrics -------------------------------------------------------------------


def end_to_end(passes, scaled=True):
    """Medians over the passes whose every invocation was timed; setup_s
    sums, over the targets, the median of every set-up of that target in
    those passes.  With ``scaled`` false, the unadjusted times."""
    ok = [p for p in passes if all("setup" in r for r in p["invocations"] + p["setups"])]
    if not ok:
        return {}
    prefix = "scaled_" if scaled else ""
    setups = {}
    for p in ok:
        for r in p["invocations"] + p["setups"]:
            setups.setdefault(r["key"], []).append(r[prefix + "setup"])
    return {
        "wall_s": statistics.median(p[prefix + "wall"] for p in ok),
        "setup_s": sum(statistics.median(values) for values in setups.values()),
        "verdict_s": statistics.median(sum(r[prefix + "verdict"] for r in p["invocations"]) for p in ok),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p["invocations"]) for p in ok),
    }


def layer_values(traced_pass):
    """Per-layer metric values of one traced pass, summed over invocations;
    times are scaled like the end-to-end ones."""
    totals = {"calls": {}, "time": {}, "self": {}, "cells": {}}
    fields = {"calls": "calls", "time": "inclusive", "self": "self", "cells": "cells"}
    for result in traced_pass["invocations"]:
        summary = result.get("trace") or {}
        for source, field in fields.items():
            scale = result["scale"] if source in ("time", "self") else 1
            for name, value in summary.get(field, {}).items():
                totals[source][name] = totals[source].get(name, 0) + value * scale
    return {
        metric: sum(totals[source].get(name, 0) for name in names)
        for metric, (source, names) in PER_LAYER.items()
    }


def per_layer(passes):
    """Medians of the traced passes; counts must repeat exactly across them."""
    traced = [layer_values(p) for p in passes if p["trace"]]
    untraced = [p["scaled_wall"] for p in passes if not p["trace"]]
    misses = []
    metrics = {}
    for metric, (source, _) in PER_LAYER.items():
        values = [t[metric] for t in traced]
        if source in ("time", "self"):
            metrics[metric] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            misses.append(f"{metric} differs between traced passes: {values}")
        metrics[metric] = values[0]
    traced_wall = statistics.median(p["scaled_wall"] for p in passes if p["trace"])
    metrics["tracing.wall_s"] = traced_wall
    metrics["tracing.overhead_s"] = traced_wall - statistics.median(untraced)
    return metrics, misses


def span_tree(result, depth=3, share=0.02):
    """Indented lines of the invocation's spans above ``share`` of its wall time."""
    spans = (result.get("trace") or {}).get("spans", [])
    children = {}
    for sid, parent, name, start, end in spans:
        children.setdefault(parent, []).append((start, sid, name, end - start))
    lines = []

    def walk(parent, level):
        for _, sid, name, elapsed in sorted(children.get(parent, [])):
            if elapsed >= share * result["wall"]:
                lines.append(f"{'  ' * level}{name} {elapsed:.3f} s")
                if level < depth:
                    walk(sid, level + 1)

    walk(0, 1)
    return lines


# -- one benchmark run ---------------------------------------------------------


def bench(args, spec, digests):
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    # one core for the runner, its children and the probe, so that the probe
    # sees the speed the children get
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe(work)
    try:
        runner = Runner(args.workload, args.seed, work, digests)
        probe.start()
        runner.warm_up()
        passes = []
        started = now = time.perf_counter()
        # start another round only while one as long as the last still ends
        # within --seconds
        while True:
            passes.append(runner.run_pass())
            if args.trace:
                passes.append(runner.run_pass(trace=True))
            last, now = time.perf_counter() - now, time.perf_counter()
            if now - started + last >= args.seconds:
                break
    finally:
        probe.stop()
        _remove(work)
    normalise(passes, probe)

    children = [r for p in passes for r in p["invocations"] + p["setups"]]
    misses = [(r["key"], m) for r in children for m in r["misses"]]
    attempted = len(children)
    failed = sum(1 for r in children if r["misses"])
    if args.trace:
        metrics, trace_misses = per_layer(passes)
        misses += [("trace", m) for m in trace_misses]
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(passes)
        if metrics:
            metrics["pass_ratio"] = (attempted - failed) / attempted
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    for key, miss in misses[:20]:
        print(f"FAIL {args.workload} {key}: {miss}")
    print(f"{args.workload}: seed {args.seed} (program seed {runner.seed}), "
          f"{len(passes)} passes, {attempted} invocations, {failed} failed")
    if args.trace:
        first = next(p for p in passes if p["trace"])
        for result in first["invocations"]:
            print(f"  {result['key']}: {result['wall']:.3f} s traced")
            for line in span_tree(result):
                print("   " + line)
    for name in names:
        if name in metrics:
            print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    if not args.trace:
        raw = end_to_end(passes, scaled=False)
        slowdowns = [1 / r["scale"] for p in passes for r in p["invocations"]]
        print("  unadjusted: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items() if k.endswith("_s"))
              + f"; probe slowdown per invocation {min(slowdowns):.3f}-{max(slowdowns):.3f}")
    result = {
        "correct": not misses and set(names) <= set(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names if n in metrics},
    }
    return result, passes


def metadata():
    src_lines = 0
    package = os.path.join(SRC, "chowkit")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _git_head(),
        "src_lines": src_lines,
    }


def _git_head():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- recording digests at the seed commit -------------------------------------


def record_digests():
    """Run one pass of every workload for every program seed and store the
    report digests.  Only meaningful on the commit whose reports are the
    reference; refuses to record a report that fails any other check."""
    digests = {}
    os.makedirs(WORK, exist_ok=True)
    for workload in WORKLOADS:
        for seed in range(SEEDS):
            work = tempfile.mkdtemp(prefix="record-", dir=WORK)
            try:
                runner = Runner(workload, seed, work, None)
                runner.warm_up()
                results = runner.run_pass()["invocations"]
            finally:
                _remove(work)
            for r in results:
                if r["misses"]:
                    raise SystemExit(f"{workload} {r['key']} seed {seed}: {r['misses']}")
                digests.setdefault(workload, {}).setdefault(r["key"], {})[str(seed)] = r["digest"]
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    _write_json(DIGESTS, digests)


# -- comparing two result sets -------------------------------------------------


def _load_results(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare(base_path, change_path, spec):
    """Per workload and metric: each side's median and quartiles, the ratio
    to the base, and whether the change exceeds the metric's bound."""
    base, change = _load_results(base_path), _load_results(change_path)
    metrics = [(m, True) for m in spec["end_to_end"]] + [(m, False) for m in spec["per_layer"]]
    for workload in [w["name"] for w in spec["workloads"]]:
        print(f"== {workload}")
        for metric, gated in metrics:
            name = metric["name"]
            sides = []
            for records in (base, change):
                sides.append([
                    r["result"]["metrics"][name]["value"]
                    for r in records
                    if r["workload"] == workload and name in r["result"]["metrics"]
                ])
            if not all(sides):
                continue
            (bm, bq1, bq3), (cm, cq1, cq3) = _stats(sides[0]), _stats(sides[1])
            ratio = cm / bm if bm else float("nan")
            verdict = ""
            if gated:
                verdict = _verdict(metric, sides[0], sides[1])
            print(
                f"  {name:<40} base {bm:.4g} [{bq1:.4g}, {bq3:.4g}] n={len(sides[0])}"
                f"  change {cm:.4g} [{cq1:.4g}, {cq3:.4g}] n={len(sides[1])}"
                f"  ratio {ratio:.3f} (base {bm:.4g})  {verdict}"
            )


def _verdict(metric, base, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    (bm, bq1, bq3), (cm, cq1, cq3) = _stats(base), _stats(change)
    spread = max((bq3 - bq1) / bm if bm else 0.0, (cq3 - cq1) / cm if cm else 0.0)
    worse = (cm - bm) / bm if lower else (bm - cm) / bm
    all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
    if spread > bound:
        return "better (every run)" if all_better else f"unresolved (spread {spread:.3f} > bound {bound})"
    if worse > bound:
        return f"WORSE by {worse:.3f} > bound {bound}"
    if -worse > bound:
        return f"better by {-worse:.3f}"
    return f"within bound {bound}"


# -- entry point ----------------------------------------------------------------


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE", help="append the result, with metadata, to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    # a terminated run still stops its child and probe on the way out
    signal.signal(signal.SIGTERM, _terminate)

    with open(SPEC) as fh:
        spec = json.load(fh)
    if args.compare:
        compare(args.compare[0], args.compare[1], spec)
        return 0
    if not os.path.isfile(os.path.join(SRC, "chowkit", "cli.py")):
        print(f"no chowkit sources under {SRC}", file=sys.stderr)
        return 2
    declared = {m["name"] for m in spec["per_layer"]}
    if declared != set(PER_LAYER) | set(TRACING):
        print("BENCHMARK.json per_layer does not match the runner's table", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if not args.workload:
        parser.error("--workload is required")
    digests = _read_json(DIGESTS)
    if digests is None:
        print(f"cannot read {DIGESTS}", file=sys.stderr)
        return 2
    result, passes = bench(args, spec, digests)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "result": result, "meta": metadata(),
                  "passes": [{"trace": p["trace"], "wall": p["wall"], "scaled_wall": p["scaled_wall"],
                              "invocations": {r["key"]: r["wall"] for r in p["invocations"]},
                              "scales": {r["key"]: r["scale"] for r in p["invocations"]},
                              "setups": [[r["key"], r.get("setup"), r.get("scaled_setup")]
                                         for r in p["invocations"] + p["setups"]]}
                             for p in passes]}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
