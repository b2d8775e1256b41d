"""Function index, import graph and call graph over scanned modules.

Everything is purely syntactic: functions are indexed by qualified name
(``repro.tee.storage.ColumnReader.column``), and call sites resolve to
zero or more known targets through, in order,

* import-table resolution of the dotted call name (covers module-level
  functions and class constructors),
* ``self.method`` resolution inside a class (including bases defined in
  the program),
* one-step local type inference (``reader = ColumnReader(...)`` then
  ``reader.column(...)``),
* string-dispatched ECALLs (``enclave.ecall("lead_run_maf", ...)``
  resolves to the so-named method — the enclave boundary is a string
  dispatch in this codebase), and
* a unique-method fallback: an attribute call whose method name is
  defined by exactly one class in the whole program resolves to it.

Unresolved calls are not dropped — the taint analysis treats them
conservatively (taint in, taint out).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..astutil import dotted_name
from ..rules import ModuleInfo


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition, indexed for the analysis."""

    qualname: str
    module: ModuleInfo
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str]

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def params(self) -> Tuple[str, ...]:
        args = self.node.args
        names = [a.arg for a in getattr(args, "posonlyargs", [])]
        names += [a.arg for a in args.args]
        names += [a.arg for a in args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return tuple(names)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class FunctionIndex:
    """Qualname → function table plus the lookup maps resolution needs."""

    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: method name → qualnames of every class method with that name.
    by_method_name: Dict[str, List[str]] = field(default_factory=dict)
    #: ``module.Class`` → its base-class dotted names (import-resolved).
    class_bases: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: ``module.Class`` → method name → qualname.
    class_methods: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def add_module(self, module: ModuleInfo) -> None:
        self._visit(module, module.tree, class_path=None)

    def _visit(
        self, module: ModuleInfo, node: ast.AST, class_path: Optional[str]
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                cls_qual = f"{module.module}.{child.name}"
                bases = tuple(
                    module.imports.resolve(name)
                    for name in (dotted_name(b) for b in child.bases)
                    if name is not None
                )
                self.class_bases[cls_qual] = bases
                self.class_methods.setdefault(cls_qual, {})
                self._visit(module, child, class_path=child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if class_path:
                    qualname = f"{module.module}.{class_path}.{child.name}"
                    cls_qual = f"{module.module}.{class_path}"
                    self.class_methods.setdefault(cls_qual, {})[
                        child.name
                    ] = qualname
                    self.by_method_name.setdefault(child.name, []).append(
                        qualname
                    )
                else:
                    qualname = f"{module.module}.{child.name}"
                info = FunctionInfo(
                    qualname=qualname,
                    module=module,
                    node=child,
                    class_name=class_path,
                )
                self.functions.setdefault(qualname, info)
                # Nested defs are walked for completeness but calls to
                # them resolve only if their qualname is reachable.
                self._visit(module, child, class_path=class_path)
            else:
                self._visit(module, child, class_path=class_path)

    # -- lookups -------------------------------------------------------------

    def method_on(self, cls_qual: str, method: str) -> Optional[str]:
        """Resolve ``method`` on ``cls_qual``, walking program-known bases."""
        seen: Set[str] = set()
        queue = [cls_qual]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            qualname = self.class_methods.get(current, {}).get(method)
            if qualname is not None:
                return qualname
            queue.extend(self.class_bases.get(current, ()))
        return None

    def unique_method(self, method: str) -> Optional[str]:
        owners = self.by_method_name.get(method, [])
        if len(owners) == 1:
            return owners[0]
        return None

    def constructor(self, cls_qual: str) -> Optional[str]:
        return self.method_on(cls_qual, "__init__")

    def is_class(self, dotted: str) -> bool:
        return dotted in self.class_methods


#: Method names too generic for the unique-method fallback: resolving
#: ``path.open(...)`` to ``ChannelEndpoint.open`` just because only one
#: program class defines ``open`` would fabricate edges through stdlib
#: objects.  Distinctive names (``column_sums``, ``lead_run_maf``) stay
#: eligible.  ``digest``/``hexdigest``/``to_json``/``from_json`` are
#: here because hashlib/hmac objects and serialisation protocols use
#: them pervasively: resolving ``hashlib.sha256(x).digest()`` to
#: whichever program class happens to uniquely define ``digest``
#: fabricates an edge whose summary silently replaces the hash call's
#: real dataflow.
GENERIC_METHOD_NAMES = frozenset(
    {
        "open", "close", "read", "write", "send", "recv", "get", "set",
        "put", "pop", "push", "add", "remove", "update", "append",
        "extend", "insert", "clear", "copy", "keys", "values", "items",
        "encode", "decode", "seek", "flush", "run", "start", "stop",
        "reset", "join", "split", "strip", "format", "sort", "count",
        "index", "next", "submit", "result", "wait", "notify", "apply",
        "digest", "hexdigest", "to_json", "from_json",
    }
)


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function, with resolution results."""

    caller: str
    node: ast.Call
    #: Names the model's patterns match against: the import-resolved
    #: dotted call name plus every resolved target qualname.
    names: Tuple[str, ...]
    #: Qualnames of known target functions (empty → unknown call).
    targets: Tuple[str, ...]
    #: For dispatcher calls, the positional offset of real arguments
    #: (``ecall("name", a, b)`` maps a→param 1, b→param 2 of the target).
    arg_offset: int = 0


@dataclass
class CallGraph:
    """Call edges between known functions, plus per-module imports."""

    index: FunctionIndex
    #: caller qualname → callee qualnames (known targets only).
    edges: Dict[str, Set[str]] = field(default_factory=dict)
    #: module name → imported module names (the import graph).
    imports: Dict[str, Set[str]] = field(default_factory=dict)

    def add_edge(self, caller: str, callee: str) -> None:
        self.edges.setdefault(caller, set()).add(callee)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (the CI call-graph artifact)."""
        return {
            "functions": len(self.index.functions),
            "edges": sorted(
                (caller, callee)
                for caller, callees in self.edges.items()
                for callee in callees
            ),
            "imports": {
                module: sorted(targets)
                for module, targets in sorted(self.imports.items())
            },
        }


def _literal_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _local_constructions(fn: FunctionInfo) -> Dict[str, str]:
    """``name -> module.Class`` for ``name = Class(...)`` assignments."""
    bindings: Dict[str, str] = {}
    module = fn.module
    for stmt in ast.walk(fn.node):
        if not isinstance(stmt, ast.Assign) or not isinstance(
            stmt.value, ast.Call
        ):
            continue
        callee = dotted_name(stmt.value.func)
        if callee is None:
            continue
        resolved = module.imports.resolve(callee)
        if resolved.split(".")[0] != module.module.split(".")[0]:
            # Heuristic scope: same top-level package only.
            candidate = f"{module.module}.{callee}"
        else:
            candidate = resolved
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                for option in (resolved, candidate):
                    if option is not None:
                        bindings.setdefault(target.id, option)
    return bindings


def resolve_call(
    fn: FunctionInfo,
    node: ast.Call,
    index: FunctionIndex,
    dispatchers: Sequence[str],
    local_types: Dict[str, str],
) -> CallSite:
    """Resolve one call expression to model names and known targets."""
    module = fn.module
    names: List[str] = []
    targets: List[str] = []
    arg_offset = 0

    raw = dotted_name(node.func)
    resolved = module.imports.resolve(raw) if raw else None
    if resolved:
        names.append(resolved)

    def add_target(qualname: Optional[str]) -> None:
        if qualname is not None and qualname in index.functions:
            if qualname not in targets:
                targets.append(qualname)
            if qualname not in names:
                names.append(qualname)

    if resolved:
        # Module-level function or class in the program?
        add_target(resolved)
        if index.is_class(resolved):
            add_target(index.constructor(resolved))
            if resolved not in names:
                names.append(resolved)
        # Same-module shorthand: ``helper()`` inside ``repro.x.y``.
        if raw and "." not in raw:
            local = f"{module.module}.{raw}"
            add_target(local)
            if index.is_class(local):
                add_target(index.constructor(local))
                names.append(local)

    if isinstance(node.func, ast.Attribute):
        method = node.func.attr
        base = node.func.value
        base_name = dotted_name(base)
        if isinstance(base, ast.Name) and base.id == "self" and fn.class_name:
            cls_qual = f"{module.module}.{fn.class_name}"
            add_target(index.method_on(cls_qual, method))
        elif base_name is not None:
            receiver = local_types.get(base_name)
            if receiver is None and base_name.startswith("self."):
                receiver = local_types.get(base_name)
            if receiver is not None:
                add_target(index.method_on(receiver, method))
        if not targets and method not in GENERIC_METHOD_NAMES:
            add_target(index.unique_method(method))

    # String-dispatched ECALL boundary: resolve the literal to a method.
    site_names = tuple(names)
    is_dispatch = any(
        (n == d or n.endswith("." + d)) if not d.endswith("*") else False
        for n in site_names
        for d in dispatchers
    ) or (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in {d for d in dispatchers if "." not in d}
    )
    if is_dispatch and node.args:
        literal = _literal_str(node.args[0])
        if literal is not None:
            dispatched = index.unique_method(literal)
            if dispatched is not None:
                targets = [dispatched]
                names = list(site_names) + [dispatched]
                arg_offset = 1

    return CallSite(
        caller=fn.qualname,
        node=node,
        names=tuple(dict.fromkeys(names)),
        targets=tuple(targets),
        arg_offset=arg_offset,
    )


def build_callgraph(
    modules: Iterable[ModuleInfo], dispatchers: Sequence[str] = ()
) -> Tuple[CallGraph, Dict[str, List[CallSite]]]:
    """Index every module and resolve every call site.

    Returns the call graph and a map ``caller qualname → call sites``
    (the analysis consumes the sites; the graph is the CI artifact).
    """
    index = FunctionIndex()
    module_list = list(modules)
    for module in module_list:
        index.add_module(module)

    graph = CallGraph(index=index)
    sites: Dict[str, List[CallSite]] = {}
    known_modules = {module.module for module in module_list}
    for module in module_list:
        imported = {
            target.split(".")[0] for target in module.imports.aliases.values()
        }
        graph.imports[module.module] = {
            name
            for name in (
                target
                for target in module.imports.aliases.values()
            )
            if name.rsplit(".", 1)[0] in known_modules or name in known_modules
        } or set(imported & known_modules)

    for qualname in sorted(index.functions):
        fn = index.functions[qualname]
        local_types = _local_constructions(fn)
        fn_sites: List[CallSite] = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                site = resolve_call(fn, node, index, dispatchers, local_types)
                fn_sites.append(site)
                for target in site.targets:
                    graph.add_edge(qualname, target)
        sites[qualname] = fn_sites
    return graph, sites
