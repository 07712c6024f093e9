"""Verification reports: named checks that always carry both compared sides.

A report never reduces to a bare boolean.  Every check records its left and
right hand side so a failure is diagnosable from the report alone, and
unmet preconditions mark the whole report "inapplicable" rather than
"fail": an object outside a theorem's hypotheses is not a counterexample.
"""

from __future__ import annotations

import operator
from typing import Iterable

from ._record import _Record

__all__ = ["Precondition", "Check", "VerificationReport", "make_report", "format_report"]

_RELATIONS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge}


class Precondition(_Record):
    description: str
    ok: bool
    detail: str = ""


class Check(_Record):
    label: str
    lhs: int
    rhs: int
    relation: str = "=="
    context: str = ""

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    @property
    def ok(self) -> bool:
        return _RELATIONS[self.relation](self.lhs, self.rhs)


class VerificationReport(_Record):
    name: str
    status: str  # "pass" | "fail" | "inapplicable"
    preconditions: tuple[Precondition, ...] = ()
    checks: tuple[Check, ...] = ()
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "witness": self.witness,
            "preconditions": [
                {"description": p.description, "ok": p.ok, "detail": p.detail}
                for p in self.preconditions
            ],
            "checks": [
                {
                    "label": c.label,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "relation": c.relation,
                    "ok": c.ok,
                    "context": c.context,
                }
                for c in self.checks
            ],
        }


def make_report(
    name: str,
    preconditions: Iterable[Precondition],
    checks: Iterable[Check] = (),
) -> VerificationReport:
    pre = tuple(preconditions)
    cks = tuple(checks)
    unmet = [p for p in pre if not p.ok]
    if unmet:
        witness = unmet[0].description
        if unmet[0].detail:
            witness += f" ({unmet[0].detail})"
        return VerificationReport(name, "inapplicable", pre, cks, witness)
    bad = [c for c in cks if not c.ok]
    if bad:
        c = bad[0]
        witness = f"{c.label}: {c.lhs} {c.relation} {c.rhs} fails"
        if c.context:
            witness += f" [{c.context}]"
        return VerificationReport(name, "fail", pre, cks, witness)
    return VerificationReport(name, "pass", pre, cks, None)


def format_report(report: VerificationReport) -> str:
    """Stable plain-text rendering, one line per precondition and check."""
    lines = [f"check {report.name}: {report.status}"]
    for p in report.preconditions:
        mark = "ok" if p.ok else "UNMET"
        suffix = f" ({p.detail})" if p.detail else ""
        lines.append(f"  require {p.description}: {mark}{suffix}")
    for c in report.checks:
        mark = "ok" if c.ok else "FAIL"
        suffix = f" [{c.context}]" if c.context else ""
        lines.append(f"  {c.label}: {c.lhs} {c.relation} {c.rhs} {mark}{suffix}")
    if report.witness:
        lines.append(f"  witness: {report.witness}")
    return "\n".join(lines)
