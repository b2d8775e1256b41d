"""Per-function def-use summaries and interprocedural taint propagation.

The propagator is a classic summary-based worklist analysis, tuned for
tractability over precision where the two conflict:

* **Labels.**  A taint set is a small ``frozenset`` of labels: concrete
  secret kinds (``genotype``, ``key``, …) minted at source calls, and
  symbolic ``param:<i>`` placeholders inside a summary.  At a call
  site, the callee's summary is *substituted* — ``param:<i>`` labels
  are replaced by the taints of the actual arguments — which is what
  makes the analysis interprocedural without reanalyzing callees per
  call site.
* **Intra-function.**  Flow-insensitive fixpoint over the statement
  list (assignments only ever *add* taint), so loops converge without
  a CFG.  Comparisons are treated as clean: one-bit decision flows
  (``count > threshold``) are the protocol's *outputs* and are audited
  at the declassification layer instead.
* **Interprocedural.**  Summaries are recomputed in deterministic
  order until a global fixpoint (callee summaries and class-attribute
  taints only ever grow, so termination is by height of the lattice,
  with a hard round cap as a backstop).
* **Objects.**  ``self.attr`` writes merge into a per-class attribute
  map shared across methods; containers are tainted wholesale.

Leaks recorded inside a summary may be *conditional* (taints are param
symbols — they fire only when a caller passes secrets in) or
*concrete* (a source reaches the sink inside the function).  Concrete
leaks anywhere in the final summaries become R6 findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..astutil import dotted_name
from ..rules import ModuleInfo
from .callgraph import CallGraph, CallSite, FunctionInfo, build_callgraph
from .model import TaintModel

Taint = FrozenSet[str]

EMPTY: Taint = frozenset()
PARAM_PREFIX = "param:"

#: Hard caps keeping pathological programs from blowing up the run.
MAX_GLOBAL_ROUNDS = 12
MAX_LOCAL_PASSES = 5
MAX_VIA = 6


def param_label(index: int) -> str:
    return f"{PARAM_PREFIX}{index}"


def concrete_kinds(taints: Taint) -> Taint:
    return frozenset(t for t in taints if not t.startswith(PARAM_PREFIX))


def symbolic_params(taints: Taint) -> Taint:
    return frozenset(t for t in taints if t.startswith(PARAM_PREFIX))


@dataclass(frozen=True)
class Site:
    """A source location the rules can turn into a finding."""

    module: str
    path: str
    line: int
    column: int
    content: str


def _site(module: ModuleInfo, node: ast.AST) -> Site:
    lineno = getattr(node, "lineno", 1)
    return Site(
        module=module.module,
        path=module.display_path,
        line=lineno,
        column=getattr(node, "col_offset", 0) + 1,
        content=module.line_content(lineno),
    )


@dataclass(frozen=True)
class LeakFlow:
    """Taint reaching a leak sink, possibly conditional on parameters."""

    sink_label: str
    sink_name: str
    site: Site
    taints: Taint
    #: Call chain from the summarized function down to the sink
    #: (qualnames), empty for a direct flow.
    via: Tuple[str, ...] = ()


@dataclass(frozen=True)
class SourceCall:
    """A call site that mints a secret."""

    kind: str
    caller: str
    site: Site


@dataclass(frozen=True)
class DeclassCall:
    """A declassifier call site (audited by R8)."""

    target: str
    caller: str
    site: Site


@dataclass(frozen=True)
class BoundaryCrossing:
    """Tainted data returned across the enclave boundary (R7)."""

    callee: str
    caller: str
    kinds: Taint
    site: Site


@dataclass(frozen=True)
class FunctionSummary:
    """What one function does with taint, in terms of its parameters."""

    returns: Taint = EMPTY
    leaks: Tuple[LeakFlow, ...] = ()
    #: ``(class_qualname, attr)`` → taints written via ``self.attr``.
    attr_writes: Tuple[Tuple[Tuple[str, str], Taint], ...] = ()


@dataclass
class FlowResult:
    """Everything the flow rules and artifacts consume."""

    graph: CallGraph
    summaries: Dict[str, FunctionSummary]
    leaks: List[LeakFlow]
    source_calls: List[SourceCall]
    declass_calls: List[DeclassCall]
    crossings: List[BoundaryCrossing]
    rounds: int

    def tainted_functions(self) -> List[str]:
        return sorted(
            qualname
            for qualname, summary in self.summaries.items()
            if concrete_kinds(summary.returns)
        )


class _FunctionAnalyzer:
    """One intra-function pass: produces a fresh summary."""

    def __init__(
        self,
        fn: FunctionInfo,
        sites: List[CallSite],
        analysis: "FlowAnalysis",
    ):
        self.fn = fn
        self.analysis = analysis
        self.model = analysis.model
        self.env: Dict[str, Taint] = {}
        self.returns: Taint = EMPTY
        self.leaks: Dict[Tuple[str, int, Taint], LeakFlow] = {}
        self.attr_writes: Dict[Tuple[str, str], Taint] = {}
        self.sources: List[SourceCall] = []
        self.declass: List[DeclassCall] = []
        self._sites = {id(s.node): s for s in sites}
        params = fn.params
        for index, name in enumerate(params):
            self.env[name] = frozenset({param_label(index)})

    # -- driver --------------------------------------------------------------

    def run(self) -> FunctionSummary:
        body = getattr(self.fn.node, "body", [])
        for _ in range(MAX_LOCAL_PASSES):
            before = (dict(self.env), self.returns, dict(self.attr_writes))
            self.sources.clear()
            self.declass.clear()
            self.leaks.clear()
            for stmt in body:
                self._exec(stmt)
            after = (self.env, self.returns, self.attr_writes)
            if before == (after[0], after[1], after[2]):
                break
        return FunctionSummary(
            returns=self.returns,
            leaks=tuple(
                sorted(
                    self.leaks.values(),
                    key=lambda l: (l.site.path, l.site.line, l.sink_label),
                )
            ),
            attr_writes=tuple(
                sorted(
                    (key, taints) for key, taints in self.attr_writes.items()
                )
            ),
        )

    # -- statements ----------------------------------------------------------

    def _exec(self, stmt: ast.AST) -> None:
        if isinstance(stmt, ast.Assign):
            taints = self._taint(stmt.value)
            for target in stmt.targets:
                self._bind(target, taints)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._taint(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taints = self._taint(stmt.value) | self._taint(stmt.target)
            self._bind(stmt.target, taints)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns |= self._taint(stmt.value)
        elif isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, (ast.Yield, ast.YieldFrom)):
                if value.value is not None:
                    self.returns |= self._taint(value.value)
            else:
                self._taint(value)
        elif isinstance(stmt, ast.Raise):
            self._exec_raise(stmt)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._taint(stmt.test)
            for child in (*stmt.body, *stmt.orelse):
                self._exec(child)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._taint(stmt.iter))
            for child in (*stmt.body, *stmt.orelse):
                self._exec(child)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self._taint(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taints)
            for child in stmt.body:
                self._exec(child)
        elif isinstance(stmt, ast.Try):
            bodies = [stmt.body, stmt.orelse, stmt.finalbody]
            bodies += [handler.body for handler in stmt.handlers]
            for body in bodies:
                for child in body:
                    self._exec(child)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs share the enclosing env (closure capture).
            for child in stmt.body:
                self._exec(child)
        elif isinstance(stmt, ast.ClassDef):
            for child in stmt.body:
                self._exec(child)
        elif isinstance(stmt, (ast.Assert, ast.Delete)):
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    self._taint(value)

    def _exec_raise(self, stmt: ast.Raise) -> None:
        if stmt.exc is None:
            return
        taints = EMPTY
        if isinstance(stmt.exc, ast.Call):
            for arg in (*stmt.exc.args, *stmt.exc.keywords):
                value = arg.value if isinstance(arg, ast.keyword) else arg
                taints |= self._taint(value)
        else:
            taints = self._taint(stmt.exc)
        if taints and self.model.exception_sink:
            name = dotted_name(
                stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            )
            self._record_leak(
                "exception", name or "<raise>", stmt, taints, via=()
            )

    def _bind(self, target: ast.AST, taints: Taint) -> None:
        if not taints:
            return
        if isinstance(target, ast.Name):
            self.env[target.id] = self.env.get(target.id, EMPTY) | taints
        elif isinstance(target, ast.Attribute):
            base = target.value
            if (
                isinstance(base, ast.Name)
                and base.id == "self"
                and self.fn.class_name
            ):
                key = (
                    f"{self.fn.module.module}.{self.fn.class_name}",
                    target.attr,
                )
                self.attr_writes[key] = (
                    self.attr_writes.get(key, EMPTY) | taints
                )
                local = f"self.{target.attr}"
                self.env[local] = self.env.get(local, EMPTY) | taints
            else:
                self._bind(base, taints)
        elif isinstance(target, ast.Subscript):
            self._bind(target.value, taints)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, taints)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taints)

    # -- expressions ---------------------------------------------------------

    def _taint(self, node: ast.AST) -> Taint:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, EMPTY)
        if isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Attribute):
            if self.model.is_metadata_attr(node.attr):
                return EMPTY
            base = node.value
            if (
                isinstance(base, ast.Name)
                and base.id == "self"
                and self.fn.class_name
            ):
                cls = f"{self.fn.module.module}.{self.fn.class_name}"
                global_taint = self.analysis.attr_taint(cls, node.attr)
                return (
                    self.env.get(f"self.{node.attr}", EMPTY) | global_taint
                )
            return self._taint(base)
        if isinstance(node, ast.Subscript):
            return self._taint(node.value) | self._taint(node.slice)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Compare):
            # Decision bits are audited at the declassification layer.
            self._taint(node.left)
            for comparator in node.comparators:
                self._taint(comparator)
            return EMPTY
        if isinstance(node, ast.BoolOp):
            result = EMPTY
            for value in node.values:
                result |= self._taint(value)
            return result
        if isinstance(node, ast.BinOp):
            return self._taint(node.left) | self._taint(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._taint(node.operand)
        if isinstance(node, ast.IfExp):
            self._taint(node.test)
            return self._taint(node.body) | self._taint(node.orelse)
        if isinstance(node, (ast.JoinedStr, ast.List, ast.Tuple, ast.Set)):
            result = EMPTY
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    result |= self._taint(child)
            return result
        if isinstance(node, ast.FormattedValue):
            return self._taint(node.value)
        if isinstance(node, ast.Dict):
            result = EMPTY
            for key in node.keys:
                if key is not None:
                    result |= self._taint(key)
            for value in node.values:
                result |= self._taint(value)
            return result
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            return self._comprehension(node)
        if isinstance(node, ast.NamedExpr):
            taints = self._taint(node.value)
            self._bind(node.target, taints)
            return taints
        if isinstance(node, ast.Starred):
            return self._taint(node.value)
        if isinstance(node, (ast.Await, ast.Yield, ast.YieldFrom)):
            if node.value is None:
                return EMPTY
            return self._taint(node.value)
        if isinstance(node, ast.Lambda):
            return EMPTY
        if isinstance(node, ast.Slice):
            result = EMPTY
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    result |= self._taint(part)
            return result
        # Generic fallback: union over child expressions.
        result = EMPTY
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                result |= self._taint(child)
        return result

    def _comprehension(self, node: ast.AST) -> Taint:
        for generator in node.generators:
            taints = self._taint(generator.iter)
            self._bind(generator.target, taints)
            for condition in generator.ifs:
                self._taint(condition)
        result = EMPTY
        if isinstance(node, ast.DictComp):
            result |= self._taint(node.key) | self._taint(node.value)
        else:
            result |= self._taint(node.elt)
        return result

    # -- calls ---------------------------------------------------------------

    def _call(self, node: ast.Call) -> Taint:
        site = self._sites.get(id(node))
        names: Tuple[str, ...] = site.names if site else ()
        model = self.model

        receiver = EMPTY
        if isinstance(node.func, ast.Attribute):
            receiver = self._taint(node.func.value)

        arg_taints: List[Taint] = [self._taint(arg) for arg in node.args]
        kw_taints: Dict[Optional[str], Taint] = {
            kw.arg: self._taint(kw.value) for kw in node.keywords
        }
        everything = receiver
        for taints in arg_taints:
            everything |= taints
        for taints in kw_taints.values():
            everything |= taints

        if names and model.is_clean_call(names):
            return EMPTY
        kind = model.source_kind(names) if names else None
        if kind is not None:
            self.sources.append(
                SourceCall(
                    kind=kind,
                    caller=self.fn.qualname,
                    site=_site(self.fn.module, node),
                )
            )
            return frozenset({kind})
        if names and model.is_declassifier(names):
            self.declass.append(
                DeclassCall(
                    target=names[-1],
                    caller=self.fn.qualname,
                    site=_site(self.fn.module, node),
                )
            )
            return EMPTY
        if names and model.is_sanctioned(names):
            return EMPTY
        label = model.leak_label(names) if names else None
        if label is not None:
            if everything:
                self._record_leak(label, names[0], node, everything, via=())
            return EMPTY

        if site and site.targets:
            return self._known_call(node, site, receiver, arg_taints, kw_taints)
        return everything

    def _known_call(
        self,
        node: ast.Call,
        site: CallSite,
        receiver: Taint,
        arg_taints: List[Taint],
        kw_taints: Dict[Optional[str], Taint],
    ) -> Taint:
        result = EMPTY
        unmapped = EMPTY
        for qualname in site.targets:
            info = self.analysis.graph.index.functions.get(qualname)
            summary = self.analysis.summaries.get(qualname)
            if info is None or summary is None:
                continue
            argmap, spill = self._argument_map(
                info, site, receiver, arg_taints, kw_taints
            )
            unmapped |= spill
            result |= self._substitute(summary.returns, argmap)
            # Lift the callee's conditional leaks into this summary.
            for leak in summary.leaks:
                params = symbolic_params(leak.taints)
                if not params:
                    continue  # already recorded globally by the callee
                lifted = self._substitute(params, argmap)
                lifted |= concrete_kinds(leak.taints)
                if lifted and len(leak.via) < MAX_VIA:
                    self._record_leak(
                        leak.sink_label,
                        leak.sink_name,
                        None,
                        lifted,
                        via=(qualname, *leak.via),
                        at=leak.site,
                    )
            # Lift constructor/method attribute writes into the class map.
            for (key, taints) in summary.attr_writes:
                written = self._substitute(taints, argmap)
                if concrete_kinds(written):
                    self.analysis.merge_attr(key, concrete_kinds(written))
        return result | unmapped

    def _argument_map(
        self,
        info: FunctionInfo,
        site: CallSite,
        receiver: Taint,
        arg_taints: List[Taint],
        kw_taints: Dict[Optional[str], Taint],
    ) -> Tuple[Dict[int, Taint], Taint]:
        """Map actual-argument taints onto callee parameter indices.

        Returns the map plus any tainted arguments that could not be
        mapped (starred args, ``**kwargs``) — the caller treats those
        conservatively as flowing straight to the result.
        """
        params = info.params
        argmap: Dict[int, Taint] = {}
        spill = EMPTY
        offset = 1 if info.binds_receiver else 0
        if offset and receiver and params:
            argmap[0] = receiver
        positional = arg_taints[site.arg_offset :]
        for position, taints in enumerate(positional):
            index = offset + position
            if index < len(params):
                argmap[index] = argmap.get(index, EMPTY) | taints
            else:
                spill |= taints
        for name, taints in kw_taints.items():
            if not taints:
                continue
            if name is not None and name in params:
                index = params.index(name)
                argmap[index] = argmap.get(index, EMPTY) | taints
            else:
                spill |= taints
        return argmap, spill

    @staticmethod
    def _substitute_one(
        label: str, argmap: Dict[int, Taint]
    ) -> Taint:
        if label.startswith(PARAM_PREFIX):
            index = int(label[len(PARAM_PREFIX) :])
            return argmap.get(index, EMPTY)
        return frozenset({label})

    def _substitute(self, taints: Taint, argmap: Dict[int, Taint]) -> Taint:
        result = EMPTY
        for label in taints:
            result |= self._substitute_one(label, argmap)
        return result

    def _record_leak(
        self,
        label: str,
        sink_name: str,
        node: Optional[ast.AST],
        taints: Taint,
        via: Tuple[str, ...],
        at: Optional[Site] = None,
    ) -> None:
        site = at if at is not None else _site(self.fn.module, node)
        key = (f"{site.path}:{site.line}:{label}", len(via), taints)
        existing = self.leaks.get(key)
        if existing is None or len(via) < len(existing.via):
            self.leaks[key] = LeakFlow(
                sink_label=label,
                sink_name=sink_name,
                site=site,
                taints=taints,
                via=via,
            )


class FlowAnalysis:
    """Whole-program driver: build the graph, iterate to fixpoint."""

    def __init__(self, modules: Iterable[ModuleInfo], model: TaintModel):
        self.modules = list(modules)
        self.model = model
        self.graph, self.call_sites = build_callgraph(
            self.modules, model.dispatchers
        )
        self.summaries: Dict[str, FunctionSummary] = {
            qualname: FunctionSummary()
            for qualname in self.graph.index.functions
        }
        self._class_attrs: Dict[Tuple[str, str], Taint] = {}
        self._attrs_changed = False
        self._sources: Dict[str, List[SourceCall]] = {}
        self._declass: Dict[str, List[DeclassCall]] = {}

    # -- shared state used by the per-function analyzers ---------------------

    def attr_taint(self, cls: str, attr: str) -> Taint:
        return self._class_attrs.get((cls, attr), EMPTY)

    def merge_attr(self, key: Tuple[str, str], taints: Taint) -> None:
        previous = self._class_attrs.get(key, EMPTY)
        merged = previous | taints
        if merged != previous:
            self._class_attrs[key] = merged
            self._attrs_changed = True

    # -- driver --------------------------------------------------------------

    def run(self) -> FlowResult:
        order = sorted(self.graph.index.functions)
        rounds = 0
        for rounds in range(1, MAX_GLOBAL_ROUNDS + 1):
            changed = False
            self._attrs_changed = False
            for qualname in order:
                fn = self.graph.index.functions[qualname]
                analyzer = _FunctionAnalyzer(
                    fn, self.call_sites.get(qualname, []), self
                )
                summary = analyzer.run()
                # Seed the class-attribute map from concrete writes.
                for key, taints in summary.attr_writes:
                    self.merge_attr(key, concrete_kinds(taints))
                self._sources[qualname] = list(analyzer.sources)
                self._declass[qualname] = list(analyzer.declass)
                if summary != self.summaries[qualname]:
                    self.summaries[qualname] = summary
                    changed = True
            if not changed and not self._attrs_changed:
                break
        return self._extract(rounds)

    # -- extraction ----------------------------------------------------------

    def _boundary_modules(self) -> Set[str]:
        return {
            module.module
            for module in self.modules
            if self.model.boundary_scope in module.scopes
        }

    def _extract(self, rounds: int) -> FlowResult:
        leaks: Dict[Tuple[str, int, str, Taint], LeakFlow] = {}
        for qualname in sorted(self.summaries):
            for leak in self.summaries[qualname].leaks:
                kinds = concrete_kinds(leak.taints)
                if not kinds:
                    continue
                key = (leak.site.path, leak.site.line, leak.sink_label, kinds)
                flow = replace(leak, taints=kinds)
                existing = leaks.get(key)
                if existing is None or len(flow.via) < len(existing.via):
                    leaks[key] = flow

        source_calls = [
            call
            for qualname in sorted(self._sources)
            for call in self._sources[qualname]
        ]
        declass_calls = [
            call
            for qualname in sorted(self._declass)
            for call in self._declass[qualname]
        ]

        crossings = self._find_crossings()
        return FlowResult(
            graph=self.graph,
            summaries=self.summaries,
            leaks=sorted(
                leaks.values(), key=lambda l: (l.site.path, l.site.line)
            ),
            source_calls=source_calls,
            declass_calls=declass_calls,
            crossings=crossings,
            rounds=rounds,
        )

    def _find_crossings(self) -> List[BoundaryCrossing]:
        boundary = self._boundary_modules()
        if not boundary:
            return []
        crossings: Dict[Tuple[str, int, str], BoundaryCrossing] = {}
        functions = self.graph.index.functions
        for caller_qualname in sorted(self.call_sites):
            caller = functions.get(caller_qualname)
            if caller is None or caller.module.module in boundary:
                continue
            for site in self.call_sites[caller_qualname]:
                if site.names and (
                    self.model.is_declassifier(site.names)
                    or self.model.is_sanctioned(site.names)
                ):
                    continue
                crossing_kinds = EMPTY
                callee_name = None
                for target in site.targets:
                    info = functions.get(target)
                    if info is None or info.module.module not in boundary:
                        continue
                    if self.model.is_declared_ecall_result(target):
                        continue
                    if self.model.is_sanctioned((target,)):
                        continue
                    summary = self.summaries.get(target)
                    if summary is None:
                        continue
                    kinds = concrete_kinds(summary.returns)
                    if kinds:
                        crossing_kinds |= kinds
                        callee_name = target
                if not crossing_kinds:
                    # Direct source calls from outside the boundary are
                    # crossings too (e.g. unsealing a checkpoint from
                    # untrusted orchestration code).
                    kind = self.model.source_kind(site.names)
                    if kind is not None and any(
                        pattern.startswith(module + ".")
                        for module in boundary
                        for pattern in self.model.sources
                        if self.model.source_kind((pattern,)) == kind
                        and any(
                            _matches_site(pattern, name)
                            for name in site.names
                        )
                    ):
                        crossing_kinds = frozenset({kind})
                        callee_name = site.names[-1]
                if crossing_kinds and callee_name is not None:
                    place = _site(caller.module, site.node)
                    key = (place.path, place.line, callee_name)
                    crossings[key] = BoundaryCrossing(
                        callee=callee_name,
                        caller=caller_qualname,
                        kinds=crossing_kinds,
                        site=place,
                    )
        return sorted(
            crossings.values(), key=lambda c: (c.site.path, c.site.line)
        )


def _matches_site(pattern: str, name: str) -> bool:
    if pattern.endswith("*"):
        return name.startswith(pattern[:-1])
    return name == pattern


#: Small per-process cache so R6/R7/R8 share one analysis per engine
#: run (keyed on module identity + model identity).
_CACHE: Dict[Tuple[Tuple[int, ...], Tuple[object, ...]], FlowResult] = {}
_CACHE_LIMIT = 8


def analyze(
    modules: Iterable[ModuleInfo], model: TaintModel
) -> FlowResult:
    """Run (or reuse) the whole-program analysis for these modules."""
    module_list = list(modules)
    key = (tuple(id(m) for m in module_list), model.cache_key())
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    result = FlowAnalysis(module_list, model).run()
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.clear()
    _CACHE[key] = result
    return result
