"""R6/R7/R8 — the whole-program dataflow rules.

These rules ride on the interprocedural taint analysis and only run
under ``repro lint --flow`` (or ``flow.enabled = true`` in the config):

* **R6 secret-leak** — a secret (genotype, phenotype, key material,
  sealed plaintext, per-SNP partial) reaches a leak sink (logging,
  metrics, tracer, run report, raw wire send, exception payload, CLI
  output) without passing a sanctioned sink or declassifier first.
* **R7 boundary-crossing** — a function inside the enclave scope
  returns or yields tainted data to a caller *outside* the boundary
  through something other than a declared ECALL result path or a
  declassifier.
* **R8 declassification-audit** — every declassifier call site must
  carry an inline ``# lint: declassify(<reason>)`` marker, and every
  marker in the program is inventoried in the JSON report so the
  release surface is reviewable as a single list.

Each rule collects the modules it sees during ``check`` and runs the
shared (memoized) analysis once in ``finalize`` — R6, R7 and R8 all
reuse the same :class:`~repro.lint.flow.analysis.FlowResult`.
"""

from __future__ import annotations

import re
from typing import Any, ClassVar, Dict, Iterable, List, Mapping, Optional, Tuple

from ..astutil import innermost_extent, statement_extents
from ..findings import Finding, Severity
from ..rules import ModuleInfo, Rule, register
from .model import TaintModel

#: ``# lint: declassify(retained SNP set is a protocol output)``.
DECLASSIFY_MARKER = re.compile(
    r"#\s*lint:\s*declassify\((?P<reason>[^)]*)\)"
)


def find_declassify_marker(text: str) -> Optional["re.Match[str]"]:
    """The declassify marker on ``text``, ignoring quoted mentions.

    Docstrings and messages that *describe* the marker syntax wrap it
    in quotes or backticks; a real marker's ``#`` is preceded only by
    code or whitespace.
    """
    match = DECLASSIFY_MARKER.search(text)
    if match is None:
        return None
    if match.start() > 0 and text[match.start() - 1] in "'\"`":
        return None
    return match


class _FlowRule(Rule):
    """Shared plumbing: module collection + lazy shared analysis."""

    requires_flow: ClassVar[bool] = True
    default_scopes: ClassVar[Tuple[str, ...]] = ("*",)

    def __init__(self, options: Mapping[str, Any]):
        super().__init__(options)
        self.modules: List[ModuleInfo] = []
        self.model = TaintModel.from_config(
            self.options.get("__flow__", {}) or {}
        )
        self._result: Optional[Any] = None

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        self.modules.append(module)
        return ()

    def flow_result(self):  # -> FlowResult (lazy import avoids a cycle)
        if self._result is None:
            from .analysis import analyze

            self._result = analyze(self.modules, self.model)
        return self._result

    def _site_finding(self, site, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            path=site.path,
            module=site.module,
            line=site.line,
            column=site.column,
            message=message,
            line_content=site.content,
        )


@register
class SecretLeakRule(_FlowRule):
    """R6: taint reaches a leak sink without a sanctioned sanitizer."""

    rule_id = "R6"
    name = "secret-leak"
    rationale = (
        "Genotype data, per-SNP counts and key material must only leave "
        "the program through authenticated-channel encryption or sealing "
        "(Pascoal et al., §5 — the enclave is the only trusted component)."
    )
    severity = Severity.ERROR

    def finalize(self) -> Iterable[Finding]:
        result = self.flow_result()
        for leak in result.leaks:
            kinds = ", ".join(sorted(leak.taints))
            message = (
                f"secret data ({kinds}) reaches {leak.sink_label} sink "
                f"'{leak.sink_name}' without a sanctioned sanitizer"
            )
            if leak.via:
                message += " via " + " -> ".join(leak.via)
            yield self._site_finding(leak.site, message)

    def artifacts(self) -> Mapping[str, Any]:
        result = self.flow_result()
        return {
            "callgraph": result.graph.as_dict(),
            "flow": {
                "rounds": result.rounds,
                "functions_analyzed": len(result.summaries),
                "source_calls": [
                    {
                        "kind": call.kind,
                        "caller": call.caller,
                        "path": call.site.path,
                        "line": call.site.line,
                    }
                    for call in result.source_calls
                ],
                "tainted_returns": result.tainted_functions(),
            },
        }


@register
class BoundaryCrossingRule(_FlowRule):
    """R7: enclave-scope taint returned to a non-enclave caller."""

    rule_id = "R7"
    name = "boundary-crossing"
    rationale = (
        "Only declared ECALL result paths and audited declassifiers may "
        "carry secret-derived values across the enclave trust boundary; "
        "any other crossing widens the attack surface the attestation "
        "argument depends on."
    )
    severity = Severity.ERROR

    def finalize(self) -> Iterable[Finding]:
        result = self.flow_result()
        for crossing in result.crossings:
            kinds = ", ".join(sorted(crossing.kinds))
            yield self._site_finding(
                crossing.site,
                f"'{crossing.caller}' (outside the "
                f"{self.model.boundary_scope} boundary) receives secret "
                f"data ({kinds}) from enclave function "
                f"'{crossing.callee}' outside declared ECALL result paths",
            )


@register
class DeclassificationAuditRule(_FlowRule):
    """R8: every declassifier call site carries an inline justification."""

    rule_id = "R8"
    name = "declassification-audit"
    rationale = (
        "Every release of secret-derived data must be an explicit, "
        "reviewable decision: a declassifier call without a "
        "'# lint: declassify(<reason>)' marker is an unaudited release."
    )
    severity = Severity.ERROR

    def __init__(self, options: Mapping[str, Any]):
        super().__init__(options)
        self._inventory: List[Dict[str, Any]] = []

    def _marker_for(
        self, module: ModuleInfo, line: int, extents
    ) -> Optional[str]:
        """The declassify reason of the call at ``line``.

        A marker on the call's own line wins, so two declassifier calls
        in one statement each keep their own reason; otherwise the first
        marker anywhere in the innermost statement applies.
        """
        extent = innermost_extent(extents, line) or (line, line)
        for lineno in (line, *range(extent[0], extent[1] + 1)):
            if 1 <= lineno <= len(module.lines):
                match = find_declassify_marker(module.lines[lineno - 1])
                if match is not None:
                    return match.group("reason").strip()
        return None

    def finalize(self) -> Iterable[Finding]:
        result = self.flow_result()
        modules = {module.module: module for module in self.modules}
        extents_by_module = {
            name: statement_extents(module.tree)
            for name, module in modules.items()
        }
        self._inventory = []
        anchored: Dict[Tuple[str, int], bool] = {}

        for call in result.declass_calls:
            module = modules.get(call.site.module)
            reason: Optional[str] = None
            if module is not None:
                extents = extents_by_module[module.module]
                reason = self._marker_for(module, call.site.line, extents)
                extent = innermost_extent(extents, call.site.line) or (
                    call.site.line,
                    call.site.line,
                )
                for lineno in range(extent[0], extent[1] + 1):
                    anchored[(module.module, lineno)] = True
            entry: Dict[str, Any] = {
                "target": call.target,
                "caller": call.caller,
                "module": call.site.module,
                "path": call.site.path,
                "line": call.site.line,
                "reason": reason,
                "marked": reason is not None and reason != "",
            }
            self._inventory.append(entry)
            if reason is None:
                yield self._site_finding(
                    call.site,
                    f"declassifier call '{call.target}' lacks a "
                    "'# lint: declassify(<reason>)' marker",
                )
            elif not reason:
                yield self._site_finding(
                    call.site,
                    f"declassify marker on '{call.target}' call has an "
                    "empty reason — state why this release is safe",
                )

        # Inventory orphan markers too: a declassify comment with no
        # declassifier call on its statement is stale documentation.
        for name, module in sorted(modules.items()):
            extents = extents_by_module[name]
            for lineno, text in enumerate(module.lines, start=1):
                match = find_declassify_marker(text)
                if match is None:
                    continue
                extent = innermost_extent(extents, lineno) or (lineno, lineno)
                covered = any(
                    anchored.get((name, line))
                    for line in range(extent[0], extent[1] + 1)
                )
                if covered:
                    continue
                self._inventory.append(
                    {
                        "target": None,
                        "caller": None,
                        "module": name,
                        "path": module.display_path,
                        "line": lineno,
                        "reason": match.group("reason").strip(),
                        "marked": True,
                        "orphan": True,
                    }
                )

        self._inventory.sort(
            key=lambda entry: (entry["path"], entry["line"])
        )

    def artifacts(self) -> Mapping[str, Any]:
        return {"declassifications": list(self._inventory)}
