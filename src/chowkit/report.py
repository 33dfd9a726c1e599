"""One report type for every check chowkit runs, and its one renderer.

A Report has a kind, a subject, a list of checks, child reports (the
entries of an ambient battery, the action window of a Chow-Kunneth
report) and an optional table payload (pairing matrices, the action-window
rank table, decomposition pieces).  A check carries a label, a status,
failure details and an optional instance count.  A check that ran on 0
instances is skipped, never passed, and a skipped check leaves its report
not passed.

The text and JSON layout of each kind is frozen by the golden report files,
so it is kept here, in one table keyed by kind.
"""

from __future__ import annotations

from collections import namedtuple

PASS, FAIL, SKIPPED = "pass", "FAIL", "skipped"


class Check:
    def __init__(self, label, status, details, count=None):
        self.label = label
        self.status = status  # PASS, FAIL, SKIPPED, or a note on a condition left unchecked
        self.details = details
        self.count = count  # instances checked, or None

    @property
    def passed(self):
        return self.status not in (FAIL, SKIPPED)


class Report:
    def __init__(self, kind, subject, checks=None, children=None, table=None):
        self.kind = kind
        self.subject = subject
        self.checks = [] if checks is None else checks
        self.children = [] if children is None else children  # (label, Report)
        self.table = table

    def add(self, label, failures, count=None):
        """Record one check: each item of ``failures`` details one failure,
        and a ``count`` of 0 instances makes the check skipped."""
        status = FAIL if failures else SKIPPED if count == 0 else PASS
        self.checks.append(Check(label, status, list(failures), count))

    @property
    def passed(self):
        return (
            all(check.passed for check in self.checks)
            and all(child.passed for _, child in self.children)
            and not (self.table or {}).get("violations")
        )

    def lines(self):
        layout = _LAYOUTS[self.kind]
        out = [layout.header.format(
            subject=self.subject,
            verdict=PASS if self.passed else FAIL,
            size=len((self.table or {}).get("pieces", ())),
        )]
        for check in self.checks if layout.checks else ():
            out.append(f"  {_label(check, layout)}: {_status(check, layout)}")
            out.extend(f"    {d}" for d in check.details[:layout.details])
        for label, child in self.children:
            if layout.children == "entries":
                out.append(f"  over {label}:")
                out.extend("  " + line for line in child.lines())
            else:
                out.extend(child.lines())
        if layout.table_lines:
            out.extend(layout.table_lines(self.table))
        return out

    def to_dict(self):
        layout = _LAYOUTS[self.kind]
        out = {"check": layout.check, layout.subject: self.subject}
        if not layout.passed_last:
            out["passed"] = self.passed
        if layout.checks == "checks":
            out["checks"] = [
                {"name": _label(c, layout), "passed": c.passed, "details": list(c.details)}
                | ({"count": c.count} if layout.count == "status" else {})
                for c in self.checks
            ]
        elif layout.checks == "conditions":
            out["conditions"] = [
                {"name": c.label, "status": c.status, "details": list(c.details)}
                for c in self.checks
            ]
        if layout.children == "entries":
            out["entries"] = [
                {"ambient": label, "report": child.to_dict()} for label, child in self.children
            ]
        elif layout.children == "action":
            ((_, child),) = self.children
            out["action"] = child.to_dict()
        if layout.table_dict:
            out.update(layout.table_dict(self.table))
        if layout.passed_last:
            out["passed"] = self.passed
        return out


def _label(check, layout):
    if layout.count == "label" and check.count:
        return f"{check.label} ({check.count} instances)"
    return check.label


def _status(check, layout):
    if check.count == 0 or (layout.count == "status" and check.count is not None):
        return f"{check.status} ({check.count} instances)"
    return check.status


# -- table payloads ------------------------------------------------------------


def _pairing_lines(table):
    return [
        f"  P_{p}[{i},{j}] = {value} (expected {1 if i == j else 0})"
        for p, i, j, value in table["violations"]
    ]


def _pairing_dict(table):
    return {
        "matrices": {str(p): [list(row) for row in m] for p, m in table["matrices"].items()},
        "violations": [list(v) for v in table["violations"]],
    }


def _window_lines(table):
    ranks = table["ranks"]
    degrees = sorted({k for k, _ in ranks})
    codims = sorted({j for _, j in ranks})
    header = "   k\\j |" + "".join(f"{j:>3}" for j in codims)
    out = [header, "  " + "-" * (len(header) - 2)]
    for k in degrees:
        row = "".join(f"{ranks[(k, j)]:>3}" if ranks[(k, j)] else "  ." for j in codims)
        out.append(f"  {k:>4} |{row}")
    totals = dict.fromkeys(degrees, 0)
    for (k, _), r in ranks.items():
        totals[k] += r
    out.append("  projector ranks: " + ", ".join(f"deg {k}: {totals[k]}" for k in degrees))
    if not table["violations"]:
        return out + ["  window violations: none"]
    out.append("  window violations:")
    out.extend(f"    degree {k} acts with rank {r} on codim {j}" for k, j, r in table["violations"])
    return out


def _window_dict(table):
    return {
        "table": [
            {"degree": k, "codim": j, "rank": r} for (k, j), r in sorted(table["ranks"].items())
        ],
        "violations": [{"degree": k, "codim": j, "rank": r} for k, j, r in table["violations"]],
    }


def _pieces_lines(pieces, totals):
    out = [f"  {name}: rank 1 in codim {codim}" for name, codim in pieces]
    out.append("  per-codim rank totals: " + ", ".join(f"CH^{p}={r}" for p, r in totals))
    return out


def _ring_pieces_lines(table):
    totals = [(p, sum(ranks)) for p, ranks in sorted(table["rank_table"].items())]
    return _pieces_lines(table["pieces"], totals)


def _ring_pieces_dict(table):
    return {
        "pieces": [name for name, _ in table["pieces"]],
        "codim_profile": [codim for _, codim in table["pieces"]],
        "rank_table": {str(p): list(r) for p, r in table["rank_table"].items()},
    }


def _model_pieces_lines(table):
    totals = [(p, r) for p, r in enumerate(table["rank_profile"]) if r]
    return _pieces_lines(table["pieces"], totals)


def _model_pieces_dict(table):
    return {
        "pieces": [{"name": name, "codim": codim} for name, codim in table["pieces"]],
        "rank_profile": list(table["rank_profile"]),
    }


# -- the layout of each kind ---------------------------------------------------


# check: the document's "check" field; header: the first text line;
# subject: the document's key for the subject;
# checks: the document's key for the checks, or None to render none;
# count: where a nonzero count shows, "label", or "status" plus a field;
# details: failure details printed per check (None: all);
# children: "entries", each under "over <label>:", or "action", one, appended;
# table_lines, table_dict: the table payload's renderers
_Layout = namedtuple(
    "_Layout",
    "check header subject checks count details children table_lines table_dict passed_last",
    defaults=(None, None, 20, None, None, None, False),
)


_VERDICT = "{subject}: {verdict}"
_SYSTEM = "projector system on " + _VERDICT
_PIECES = "motive decomposition of {subject}: {size} piece(s)"

_LAYOUTS = {
    "pairing": _Layout(
        "pairing", "pairing delta-pattern on " + _VERDICT, "ring",
        table_lines=_pairing_lines, table_dict=_pairing_dict,
    ),
    "fibration-model": _Layout(
        "fibration-model", "fibration model " + _VERDICT, "model", "checks", details=None
    ),
    "projector-family": _Layout(
        "projector-family", "projector family on " + _VERDICT, "model", "checks", "status"
    ),
    "ambient-battery": _Layout(
        "ambient-battery", "ambient battery for " + _VERDICT, "model", children="entries"
    ),
    "projector-system": _Layout("projector-system", _SYSTEM, "name", "checks"),
    "identity-battery": _Layout("projector-system", _SYSTEM, "name", "checks", "label"),
    "chow-kunneth": _Layout(
        "chow-kunneth", "Chow-Kunneth conditions for " + _VERDICT, "name", "conditions",
        children="action",
    ),
    "action-window": _Layout(
        "action-window",
        "action support of {subject} (rows: degree, columns: codim, entries: rank)", "name",
        table_lines=_window_lines, table_dict=_window_dict,
    ),
    "ring-decomposition": _Layout(
        "motive-decomposition", _PIECES, "ring",
        table_lines=_ring_pieces_lines, table_dict=_ring_pieces_dict, passed_last=True,
    ),
    "model-decomposition": _Layout(
        "motive-decomposition", _PIECES, "model",
        table_lines=_model_pieces_lines, table_dict=_model_pieces_dict, passed_last=True,
    ),
}
