"""Batch interface: load a catalog entry or data files, run verification
suites, print reports.

Exit codes: 0 all checks pass, 1 a suite failed, 2 the input did not parse,
3 the input parsed but failed validation, 141 (128 + SIGPIPE) the reader
closed stdout early, as ``chowkit ... | head`` does; nothing is printed for
it.  With --format json the report is
a single document whose "lines" fields reproduce the text rendering, so a
saved report re-summarizes identically.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import chain
from json.encoder import encode_basestring_ascii

from .fibrations import (
    build_projector_family,
    duality_report,
    manin_battery,
    validate_fibration,
    verify_projector_family,
    FibrationModel,
)
from .fileio import FileFormatError, load_fibration, load_ring
from .motives import (
    decompose_model,
    decompose_motive,
    fiber_projectors,
    verify_projector_system,
)
from .murre import (
    cellular_ck,
    ck_battery,
    lift_ck,
    verify_action_window,
    verify_block_diagonality,
    verify_ck,
)
from .report import Report
from .rings import ChowRing, verify_pairing

EXIT_PASS = 0
EXIT_SUITE_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_FAILURE = 3
EXIT_BROKEN_PIPE = 141


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


# -- target loading ------------------------------------------------------------


def _resolve_catalog(name):
    from .catalog import resolve

    try:
        return resolve(name)
    except ValueError as e:
        raise CliError(str(e), EXIT_PARSE_ERROR) from e


def load_target(args):
    """The ring or model named by --catalog / --ring-file / --fibration-file."""
    given = [
        flag
        for flag, value in (
            ("--catalog", args.catalog),
            ("--ring-file", args.ring_file),
            ("--fibration-file", args.fibration_file),
        )
        if value
    ]
    if len(given) != 1:
        raise CliError(
            "need exactly one of --catalog, --ring-file, --fibration-file", EXIT_PARSE_ERROR
        )
    if args.catalog:
        return args.catalog, _resolve_catalog(args.catalog)
    path = args.ring_file or args.fibration_file
    loader = load_ring if args.ring_file else load_fibration
    try:
        target = loader(path)
    except FileFormatError as e:
        raise CliError(str(e), EXIT_PARSE_ERROR) from e
    except ValueError as e:
        raise CliError(str(e), EXIT_VALIDATION_FAILURE) from e
    if isinstance(target, FibrationModel):
        report = validate_fibration(target)
        if not report.passed:
            raise CliError("\n".join(report.lines()), EXIT_VALIDATION_FAILURE)
    return target.name, target


def _parse_battery(spec):
    """The rings of a --battery list; a refusal names the entry's place and name."""
    if spec is None:
        return None
    rings = []
    for n, name in enumerate(spec.split(","), start=1):
        where = f"--battery entry {n} ({name.strip()!r}): "
        try:
            thing = _resolve_catalog(name.strip())
        except CliError as e:
            raise CliError(where + str(e), e.code) from e
        if not isinstance(thing, ChowRing):
            raise CliError(where + "it is a model, not a ring", EXIT_PARSE_ERROR)
        rings.append(thing)
    return tuple(rings)


# -- suites --------------------------------------------------------------------


def _wrap(suite, *reports):
    lines = []
    data = []
    for rep in reports:
        lines.extend(rep.lines())
        data.append(rep.to_dict())
    return {
        "suite": suite,
        "passed": all(rep.passed for rep in reports),
        "lines": lines,
        "data": data[0] if len(data) == 1 else data,
    }


def _skip(suite, why):
    return {"suite": suite, "passed": True, "skipped": why, "lines": [f"skipped: {why}"], "data": None}


def _fail(suite, message):
    return {"suite": suite, "passed": False, "lines": message.splitlines(), "data": None}


def _suite_pairing(target, config):
    if isinstance(target, ChowRing):
        return _wrap("pairing", verify_pairing(target))
    # the delta pattern lives on the factors; product bases cannot satisfy it
    # in the middle degree, and the model-level pattern is the duality suite
    return _wrap("pairing", verify_pairing(target.base), verify_pairing(target.fiber))


def _suite_duality(target, config):
    if isinstance(target, ChowRing):
        from .correspondences import dual_basis_cycles

        report = Report("projector-system", target.name)
        fails = []
        for p in range(target.dimension + 1):
            try:
                dual_basis_cycles(target, p)
            except ValueError as e:
                fails.append(f"codim {p}: {e}")
        report.add("perfect degree pairings (dual bases exist)", fails)
        return _wrap("duality", report)
    return _wrap("duality", duality_report(target, samples=config.samples, seed=config.seed))


def _suite_projectors(target, config):
    if isinstance(target, ChowRing):
        return _wrap("projectors", verify_projector_system(fiber_projectors(target)))
    family = build_projector_family(target)
    reports = [verify_projector_family(family, samples=config.samples, seed=config.seed)]
    if config.battery:
        reports.append(config.manin(target))
    return _wrap("projectors", *reports)


def _suite_manin(target, config):
    if isinstance(target, ChowRing):
        return _skip("manin", "needs a fibration model")
    return _wrap("manin", config.manin(target))


def _suite_motives(target, config):
    dec = decompose_motive(target) if isinstance(target, ChowRing) else decompose_model(target)
    return _wrap("motives", dec.report)


def _suite_ck(target, config):
    if config.battery and isinstance(target, FibrationModel):
        # the battery's first entry is the model's own verified lift
        battery = ck_battery(target, battery=config.battery)
        reports = battery.children[0][1], battery
    else:
        reports = (verify_ck(config.ck(target)),)
    config.windows[target] = dict(reports[0].children)["action"]
    return _wrap("ck", *reports)


def _suite_murre(target, config):
    reports = [config.windows.get(target) or verify_action_window(config.ck(target))]
    if isinstance(target, FibrationModel):
        reports.append(
            verify_block_diagonality(target, samples=min(config.samples, 20), seed=config.seed)
        )
    return _wrap("murre", *reports)


def _suite_identities(target, config):
    from .identities import compose_oracle_battery, run_identity_battery

    return _wrap(
        "identities",
        run_identity_battery(samples=config.samples, seed=config.seed),
        compose_oracle_battery(samples=config.samples, seed=config.seed),
    )


_SUITES = {
    "ck": _suite_ck,
    "duality": _suite_duality,
    "identities": _suite_identities,
    "manin": _suite_manin,
    "motives": _suite_motives,
    "murre": _suite_murre,
    "pairing": _suite_pairing,
    "projectors": _suite_projectors,
}


def _run(target, names, config):
    """The documents of the named suites on target, in order; a suite whose
    hypothesis fails (a ValueError) is that suite's failure."""
    docs = []
    for name in names:
        try:
            docs.append(_SUITES[name](target, config))
        except ValueError as e:
            docs.append(_fail(name, str(e)))
    return docs


class RunConfig:
    """Run parameters; the seed fully determines every randomized check.

    A run also keeps, per target and for itself only, the target's CK and
    the action window its ck suite verified, which the murre suite renders,
    and its manin battery, which the projectors suite renders under --battery.
    """

    def __init__(self, battery=None, seed=0, samples=100):
        self.battery = battery
        self.seed = seed
        self.samples = samples
        self.cks = {}  # target -> its CK, built unverified
        self.windows = {}  # target -> the action window its ck suite verified
        self.manins = {}  # target -> its manin battery report

    def ck(self, target):
        """The target's CK, built once per run; a failed hypothesis raises."""
        if target not in self.cks:
            build = cellular_ck if isinstance(target, ChowRing) else lift_ck
            self.cks[target] = build(target)
        return self.cks[target]

    def manin(self, target):
        """The target's manin battery report, run once per run."""
        if target not in self.manins:
            self.manins[target] = manin_battery(
                target, battery=self.battery, samples=self.samples, seed=self.seed
            )
        return self.manins[target]


# -- report rendering ----------------------------------------------------------


def render_text(report):
    """The text rendering of a report document; pure, so a saved JSON
    report re-renders identically."""
    out = [f"chowkit {report['command']}: {report.get('target', '-')}"]
    if "seed" in report:
        out.append(f"seed {report['seed']}, samples {report['samples']}")
    for suite in report.get("suites", ()):
        verdict = "pass" if suite["passed"] else "FAIL"
        if suite.get("skipped"):
            verdict = "skipped"
        out.append(f"[{suite['suite']}] {verdict}")
        out.extend("  " + line for line in suite["lines"])
    out.append("result: " + ("pass" if report["passed"] else "FAIL"))
    return out


# the exact leaf types json writes through one C call; any other leaf,
# a subclass included, goes to json.dumps
_JSON_LEAVES = {str: encode_basestring_ascii, int: int.__repr__,
                bool: ("false", "true").__getitem__, type(None): {None: "null"}.__getitem__}


def render_json(obj, _indent="\n"):
    """json.dumps(obj, indent=2), byte for byte, with each container built in
    one join: json's indented encoder is pure Python and takes a large
    report two to three times as long."""
    leaf = _JSON_LEAVES.get(type(obj))
    if leaf:
        return leaf(obj)
    inner, get = _indent + "  ", _JSON_LEAVES.get
    if isinstance(obj, dict):
        # json coerces (or refuses) a key that is not a string: '{"<key>": 0}'
        ends, items = "{}", [
            f"{encode_basestring_ascii(k if isinstance(k, str) else json.dumps({k: 0})[2:-5])}: "
            f"{leaf(v) if (leaf := get(type(v))) else render_json(v, inner)}"
            for k, v in obj.items()
        ]
    elif isinstance(obj, (list, tuple)):
        if records := _records(obj, inner):
            row, values = records
            return f"[{inner}" + f",{inner}".join([row] * len(obj)) % values + f"{_indent}]"
        ends, items = "[]", [leaf(v) if (leaf := get(type(v))) else render_json(v, inner) for v in obj]
    else:
        return json.dumps(obj)
    if not items:
        return ends
    return f"{ends[0]}{inner}" + f",{inner}".join(items) + f"{_indent}{ends[1]}"


def _records(rows, indent):
    """(template of one row rendered at indent, every row's values in order)
    when rows are exact dicts with one non-empty sequence of exact str keys
    and exact int values, as the rank tables' records are, or None.  Each
    key is encoded once, and each value goes in with %d, which writes an
    exact int as repr does."""
    if not rows or type(first := rows[0]) is not dict or not first:
        return None
    keys = list(first)
    if {*map(type, keys)} != {str} or {*map(type, rows)} != {dict}:
        return None
    values = tuple(chain.from_iterable(map(dict.values, rows)))
    if {*map(type, values)} != {int} or list(chain.from_iterable(rows)) != keys * len(rows):
        return None
    inner = indent + "  "
    fields = f",{inner}".join(encode_basestring_ascii(k).replace("%", "%%") + ": %d" for k in keys)
    return f"{{{inner}{fields}{indent}}}", values


def _emit(report, fmt, started):
    if fmt == "json":
        print(render_json(report))
    else:
        for line in render_text(report):
            print(line)
        print(f"elapsed: {time.perf_counter() - started:.2f}s")


# -- subcommands ----------------------------------------------------------------


def _finish(args, started, target, suites, **run):
    """Print the report document of a run and map its verdict to an exit
    code; ``run`` holds the seed and sample count of a randomized run."""
    report = {
        "command": args.command,
        "target": target,
        **run,
        "suites": suites,
        "passed": all(s["passed"] for s in suites),
    }
    _emit(report, args.format, started)
    return EXIT_PASS if report["passed"] else EXIT_SUITE_FAILURE


def _cmd_catalog(args, started):
    from .catalog import catalog_entries

    entries = []
    for entry in catalog_entries():
        thing = entry.build()
        entries.append(
            {
                "name": entry.name,
                "kind": entry.kind,
                "dimension": thing.dimension,
                "ranks": [thing.rank(p) for p in range(thing.dimension + 1)],
                "description": entry.description,
            }
        )
    report = {
        "command": "catalog",
        "passed": True,
        "suites": [],
        "entries": entries,
    }
    if args.format == "json":
        print(render_json(report))
    else:
        width = max(len(e["name"]) for e in entries)
        for e in entries:
            ranks = ",".join(str(r) for r in e["ranks"])
            print(f"{e['name']:<{width}}  dim {e['dimension']}  ranks ({ranks})  {e['description']}")
    return EXIT_PASS


def _cmd_verify(args, started):
    name, target = load_target(args)
    config = RunConfig(
        battery=_parse_battery(args.battery), seed=args.seed, samples=args.samples
    )
    wanted = _SUITES if args.suite == "all" else (args.suite,)
    suites = _run(target, sorted(wanted), config)
    return _finish(args, started, name, suites, seed=config.seed, samples=config.samples)


def _cmd_decompose(args, started):
    name, target = load_target(args)
    return _finish(args, started, name, _run(target, ["motives"], RunConfig()))


def _cmd_ck(args, started):
    name, target = load_target(args)
    config = RunConfig(battery=_parse_battery(args.battery))
    # a failure before the lifted projectors exist is a hypothesis failure
    try:
        config.ck(target)
    except ValueError as e:
        raise CliError(str(e), EXIT_VALIDATION_FAILURE) from e
    return _finish(args, started, name, _run(target, ["ck"], config))


def _cmd_identities(args, started):
    config = RunConfig(seed=args.seed, samples=args.samples)
    suites = [_suite_identities(None, config)]
    return _finish(args, started, "(P^1, P^2)", suites, seed=config.seed, samples=config.samples)


# -- argument parsing ------------------------------------------------------------


def _add_target_flags(parser):
    parser.add_argument("--catalog", metavar="NAME", help="catalog entry name")
    parser.add_argument("--ring-file", metavar="PATH", help="ring document")
    parser.add_argument("--fibration-file", metavar="PATH", help="fibration document")


def _add_format_flag(parser):
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chowkit",
        description="Exact verification of cellular Chow rings, fibration projectors and Chow-Kunneth lifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list catalog entries with dimensions and ranks")
    _add_format_flag(p)

    p = sub.add_parser("verify", help="run verification suites on a ring or model")
    _add_target_flags(p)
    p.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p.add_argument("--battery", metavar="NAMES", help="comma-separated ambient catalog rings")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_positive, default=100)
    _add_format_flag(p)

    p = sub.add_parser("decompose", help="print the motive decomposition")
    _add_target_flags(p)
    _add_format_flag(p)

    p = sub.add_parser("ck", help="build and verify the Chow-Kunneth decomposition")
    _add_target_flags(p)
    p.add_argument("--battery", metavar="NAMES", help="comma-separated ambient catalog rings")
    _add_format_flag(p)

    p = sub.add_parser("identities", help="run the composition identity batteries")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_positive, default=100)
    _add_format_flag(p)

    return parser


_COMMANDS = {
    "catalog": _cmd_catalog,
    "verify": _cmd_verify,
    "decompose": _cmd_decompose,
    "ck": _cmd_ck,
    "identities": _cmd_identities,
}


def main(argv=None):
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args, started)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except CliError as e:
        print(str(e), file=sys.stderr)
        return e.code
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull first
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
