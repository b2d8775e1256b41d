"""Shared AST plumbing for lint rules.

Rules need three recurring services:

* resolving what dotted name a call refers to, through ``import`` /
  ``from … import`` aliases (including relative imports),
* extracting the "terminal" identifier of an expression (``self._lock``
  → ``_lock``; ``locks[k]`` → ``locks``), and
* mapping a file path to the dotted module name the scope map matches
  against.

Everything here is purely syntactic — no code is imported or executed,
so linting untrusted or broken sources is safe.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple


def module_name_for_path(path: Path) -> str:
    """Derive the dotted module name by walking up through packages.

    ``src/repro/tee/channel.py`` → ``repro.tee.channel`` (the walk stops
    at the first directory without ``__init__.py``).  Standalone files
    (e.g. test fixtures) resolve to their stem.
    """
    path = path.resolve()
    parts: List[str] = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    if parts[0] == "__init__":
        parts = parts[1:] or [path.parent.name]
    return ".".join(reversed(parts))


@dataclass
class ImportTable:
    """Alias → dotted-name mapping built from a module's import statements."""

    #: e.g. ``{"np": "numpy", "now": "datetime.datetime.now"}``
    aliases: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def collect(cls, tree: ast.AST, module: str) -> "ImportTable":
        table = cls()
        package_parts = module.split(".")[:-1]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    table.aliases[name] = target
            elif isinstance(node, ast.ImportFrom):
                base = cls._resolve_from(node, package_parts)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name
                    table.aliases[name] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        return table

    @staticmethod
    def _resolve_from(node: ast.ImportFrom, package_parts: List[str]) -> str:
        if node.level == 0:
            return node.module or ""
        # Relative import: drop ``level`` trailing packages.
        kept = package_parts[: len(package_parts) - (node.level - 1)]
        if node.module:
            kept = kept + node.module.split(".")
        return ".".join(kept)

    def resolve(self, dotted: str) -> str:
        """Expand the leading alias of a dotted name, if known."""
        head, _, rest = dotted.partition(".")
        expanded = self.aliases.get(head)
        if expanded is None:
            return dotted
        return f"{expanded}.{rest}" if rest else expanded


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_identifier(node: ast.AST) -> Optional[str]:
    """The identifier a value expression is named by, if any.

    ``self._stats_lock`` → ``_stats_lock``; ``locks[key]`` → ``locks``;
    ``sig`` → ``sig``.  Calls, literals and operators have no terminal
    identifier.
    """
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):
        return terminal_identifier(node.value)
    return None


def identifier_parts(identifier: str) -> FrozenSet[str]:
    """Lower-cased snake_case words of an identifier (``MAC_TAG`` → {mac, tag})."""
    return frozenset(
        part for part in identifier.lower().strip("_").split("_") if part
    )


def call_name(node: ast.Call, imports: ImportTable) -> Optional[str]:
    """Fully-resolved dotted name of a call target, or ``None``."""
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    return imports.resolve(dotted)


def is_constant_bytes_like(node: ast.AST) -> bool:
    """A literal bytes/str value, possibly repeated (``b"k" * 16``)."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (bytes, str)) and len(str(node.value)) > 0
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return is_constant_bytes_like(node.left) or is_constant_bytes_like(
            node.right
        )
    return False


def statement_extents(tree: ast.AST) -> "List[Tuple[int, int]]":
    """Physical-line extents of every statement, headers only.

    Simple statements span ``lineno..end_lineno`` (a parenthesized call
    spanning four lines is one extent).  Compound statements (defs,
    ``if``/``for``/``with``/``try``) contribute only their *header* —
    from the first decorator line to the line before the body starts —
    so an extent never swallows the statement's nested body.  Used to
    anchor inline suppressions and ``declassify`` markers to the whole
    logical line a finding sits on.
    """
    extents: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        end = getattr(node, "end_lineno", None) or node.lineno
        for decorator in getattr(node, "decorator_list", None) or []:
            start = min(start, decorator.lineno)
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = max(node.lineno, body[0].lineno - 1)
        extents.append((start, end))
    return extents


def innermost_extent(
    extents: "List[Tuple[int, int]]", line: int
) -> "Optional[Tuple[int, int]]":
    """The smallest statement extent containing ``line``, if any."""
    best: Optional[Tuple[int, int]] = None
    for start, end in extents:
        if start <= line <= end:
            if best is None or (end - start) < (best[1] - best[0]):
                best = (start, end)
    return best


def iter_function_defs(
    tree: ast.AST,
) -> "List[Tuple[ast.AST, Optional[str]]]":
    """Every function/method def paired with its enclosing class name."""
    found: List[Tuple[ast.AST, Optional[str]]] = []

    def visit(node: ast.AST, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((child, cls))
                visit(child, cls)
            else:
                visit(child, cls)

    visit(tree, None)
    return found
