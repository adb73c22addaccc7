"""Structured compiler diagnostics.

The plan verifier (:mod:`repro.compiler.verify`) — and, through it, the
compile pipeline, ``explain`` and the ``repro lint`` CLI — reports findings
as :class:`Diagnostic` records instead of bare strings.  Every diagnostic
carries a *stable* code (``ALDSP-E101``-style), so tests, dashboards and
editor integrations can match on the code while the wording evolves.

Code taxonomy (the letter encodes the severity, the block the pass):

========  =======================================================
``E0xx``  scope / binding errors (unbound variable, open template)
``1xx``   pushdown safety (capability-matrix violations, parameters)
``2xx``   static-type consistency (typematch justification)
``3xx``   plan-shape lints (PP-k block sizes, dead slots, QoS)
========  =======================================================

Severity semantics mirror section 4.1's two compiler modes: in *runtime*
mode, error-severity diagnostics abort compilation
(:class:`~repro.errors.PlanVerificationError`); in *design* mode — and
under ``repro lint`` — everything is collected and reported.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering allows ``>= Severity.WARNING`` filters."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_code(cls, code: str) -> "Severity":
        """Severity encoded in a diagnostic code (``ALDSP-E101`` -> ERROR)."""
        tail = code.split("-")[-1]
        letter = tail[:1]
        if letter == "C":
            # concurrency family: ERROR by default, per-code overrides
            return C_CODE_SEVERITY.get(code, cls.ERROR)
        try:
            return {"E": cls.ERROR, "W": cls.WARNING, "I": cls.INFO}[letter]
        except KeyError:
            raise ValueError(f"diagnostic code {code!r} has no severity letter")


#: registry of stable diagnostic codes -> one-line description.  Adding a
#: code here is the only way to emit it; renumbering is a breaking change.
CODE_REGISTRY: dict[str, str] = {
    # -- analysis-phase errors surfaced through the diagnostics framework --
    "ALDSP-E000": "static analysis error (parse / normalize / typecheck)",
    # -- scope & binding (verifier pass 1) --
    "ALDSP-E001": "variable used without a binding in scope",
    "ALDSP-E002": "plan root has free variables beyond the declared externals",
    "ALDSP-E003": "reconstruction template is not closed (contains variable refs)",
    "ALDSP-W004": "variable binding shadows an outer binding of the same name",
    # -- pushdown safety (verifier pass 2) --
    "ALDSP-E101": "pushed SQL uses a function the target dialect cannot push",
    "ALDSP-E102": "pushed SQL uses pagination the target dialect cannot express",
    "ALDSP-E103": "pushed SQL uses an outer join the target dialect cannot push",
    "ALDSP-E104": "pushed SQL uses CASE which the target dialect cannot push",
    "ALDSP-E105": "pushed SQL references a parameter with no middleware expression",
    "ALDSP-W106": "middleware parameter expression is never shipped to the source",
    "ALDSP-E107": "pushed region references a select alias that is not projected",
    "ALDSP-E108": "target dialect failed to render the pushed SQL statement",
    "ALDSP-W109": "unknown vendor: capabilities fell back to the base SQL92 dialect",
    "ALDSP-E110": "PP-k clause over a pushed region without a correlation predicate",
    "ALDSP-E111": "pushed SQL has an empty select list",
    # -- static-type consistency (verifier pass 3) --
    "ALDSP-W201": "redundant typematch: operand's static type already matches",
    "ALDSP-W202": "unsatisfiable typematch: operand type cannot match the target",
    "ALDSP-I203": "rewrites left expression nodes without static-type annotations",
    # -- plan-shape lints (verifier pass 4) --
    "ALDSP-E301": "PP-k block size must be at least 1",
    "ALDSP-I302": "PP-k block size 1 degenerates to an index nested-loop join",
    "ALDSP-W303": "PP-k block size is far beyond the useful range",
    "ALDSP-W304": "let-bound variable is never used (dead slot)",
    "ALDSP-W305": "pushed SQL projects a column no template or regroup consumes",
    "ALDSP-W306": "table scan left in the middleware although pushdown is enabled",
    "ALDSP-W307": "middleware join between regions of the same database",
    "ALDSP-I308": "source call has no timeout or fail-over configuration",
    "ALDSP-E309": "scatter group members are not data independent",
    # -- observability plane (O-OBS / O-CONT) --
    "ALDSP-E501": "tracing is administratively disabled on this platform",
    # -- concurrency lint (repro.analysis.static, ``repro lint --concurrency``) --
    "ALDSP-C401": "shared mutable attribute written without holding its lock",
    "ALDSP-C402": "guarded-by declaration names a lock the class does not define",
    "ALDSP-C403": "engine class mutates shared state but defines no lock",
    "ALDSP-C404": "mutation holds a different lock than the declared guard",
    "ALDSP-C405": "guarded attribute read without the lock (strict mode)",
    "ALDSP-C406": "concurrency finding suppressed by a race-ok justification",
    "ALDSP-C407": "counter mutated directly instead of through bump()",
}

#: severity of the ALDSP-C4xx concurrency family (default ERROR)
C_CODE_SEVERITY: dict[str, Severity] = {
    "ALDSP-C403": Severity.WARNING,
    "ALDSP-C405": Severity.WARNING,
    "ALDSP-C406": Severity.INFO,
}


@dataclass
class Diagnostic:
    """One verifier finding with a stable code and an operator location."""

    code: str
    severity: Severity
    message: str
    #: path through the operator tree, e.g. ``FLWOR/clause[2]/PushedSQL``
    location: str = ""
    #: source line, when the underlying AST node still carries one
    line: int | None = None
    #: machine-readable extras (vendor, alias, variable name, ...)
    detail: dict = field(default_factory=dict)

    def render(self) -> str:
        where = f" (at {self.location})" if self.location else ""
        line = f" [line {self.line}]" if self.line is not None else ""
        return f"{self.code} {self.severity.label}: {self.message}{where}{line}"

    def to_dict(self) -> dict:
        data = {
            "code": self.code,
            "severity": self.severity.label,
            "message": self.message,
        }
        if self.location:
            data["location"] = self.location
        if self.line is not None:
            data["line"] = self.line
        if self.detail:
            data["detail"] = self.detail
        return data


def make(code: str, message: str, location: str = "", line: int | None = None,
         **detail) -> Diagnostic:
    """Build a diagnostic for a registered code (unknown codes are a bug)."""
    if code not in CODE_REGISTRY:
        raise ValueError(f"unregistered diagnostic code {code!r}")
    return Diagnostic(code, Severity.from_code(code), message, location, line, detail)


class DiagnosticReport:
    """An ordered collection of diagnostics with rendering helpers."""

    def __init__(self, diagnostics: list[Diagnostic] | None = None):
        self.diagnostics: list[Diagnostic] = list(diagnostics or [])

    # -- collection ----------------------------------------------------------

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics) -> None:
        self.diagnostics.extend(diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    # -- queries ---------------------------------------------------------------

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def codes(self) -> list[str]:
        return [d.code for d in self.diagnostics]

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def at_least(self, severity: Severity) -> "DiagnosticReport":
        return DiagnosticReport([d for d in self.diagnostics if d.severity >= severity])

    def sorted(self) -> list[Diagnostic]:
        """Most severe first, then by code, preserving emission order."""
        return sorted(
            self.diagnostics,
            key=lambda d: (-int(d.severity), d.code),
        )

    def summary(self) -> str:
        return (f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
                f"{len(self.infos)} note(s)")

    # -- rendering -----------------------------------------------------------------

    def render_text(self, prefix: str = "") -> str:
        return "\n".join(prefix + d.render() for d in self.sorted())

    def render_json(self, indent: int | None = 2) -> str:
        return json.dumps(
            {
                "diagnostics": [d.to_dict() for d in self.sorted()],
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "notes": len(self.infos),
            },
            indent=indent,
        )

    def raise_if_errors(self, context: str = "") -> None:
        """Runtime-mode behaviour (section 4.1): the first error aborts."""
        if not self.has_errors:
            return
        from .errors import PlanVerificationError

        lines = [d.render() for d in self.sorted() if d.severity is Severity.ERROR]
        head = f"plan verification failed ({context}): " if context \
            else "plan verification failed: "
        raise PlanVerificationError(head + "; ".join(lines), report=self)
