"""Finding and severity model for the static-analysis engine.

A :class:`Finding` is one rule violation at one source location.  It is
deliberately a plain value object: rules produce findings, the engine
filters them (inline suppressions, baseline) and the reporters render
them — no stage mutates a finding after creation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict


class Severity(Enum):
    """How bad a finding is; ``ERROR`` findings fail the lint run."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at ``path:line``.

    ``module`` is the dotted module name the engine resolved for the
    file, so baselines stay valid when a checkout lives at a different
    absolute path.  ``line_content`` is the stripped source line, used
    for content-addressed baseline matching (robust to line drift).
    """

    rule: str
    severity: Severity
    path: str
    module: str
    line: int
    column: int
    message: str
    line_content: str = field(default="", compare=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def fingerprint(self) -> str:
        """Content-addressed identity used by the baseline file."""
        payload = "\x00".join((self.rule, self.module, self.line_content))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def baseline_key(self) -> "tuple[str, str, str]":
        return (self.rule, self.module, self.line_content)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (schema in docs/STATIC_ANALYSIS.md)."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }

    def render(self) -> str:
        return (
            f"{self.location()}: {self.rule} [{self.severity.value}] "
            f"{self.message}"
        )
