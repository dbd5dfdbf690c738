"""Spans around the calls into each layer, taken from the benchmark's side.

:func:`install` wraps the public entry points of each layer and rebinds
every name a caller looks them up by: a ``from m import f`` copy in any
loaded module is rebound too, because patching only the defining module
would miss it.  Spans stay in memory; :func:`attribute` turns one
request's spans into self times that, with an explicit ``unattributed``
remainder, add up to the request's wall time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: The request root; its self time is the wall time no layer span covers.
ROOT = "request"


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "attrs")

    def __init__(self, sid, name, start, end, parent, rid, attrs):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid
        self.attrs = attrs

    def to_dict(self) -> Dict[str, object]:
        return {
            "sid": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "rid": self.rid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        return cls(**data)


class SpanRecorder:
    """Collects spans; parents come from a per-thread stack of open spans.

    A thread with no open span (a pool thread a wrapped call fanned out
    to) takes as parent the innermost open span marked ``fans_out``.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fan: List[Tuple[int, object]] = []

    def _stack(self) -> List[Tuple[int, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, rid=None, fans_out: bool = False):
        stack = self._stack()
        parent = stack[-1] if stack else (self._fan[-1] if self._fan else None)
        sid = next(self._ids)
        if rid is None and parent is not None:
            rid = parent[1]
        attrs: Dict[str, object] = {}
        stack.append((sid, rid))
        if fans_out:
            self._fan.append((sid, rid))
        start = perf_counter()
        try:
            yield attrs
        finally:
            end = perf_counter()
            stack.pop()
            if fans_out:
                self._fan.remove((sid, rid))
            self.spans.append(
                Span(sid, name, start, end, parent[0] if parent else None, rid, attrs)
            )

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        describe: Optional[Callable] = None,
        fans_out: bool = False,
        request_id: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a span; ``describe(args, kwargs, result)`` adds attrs
        after the span has closed, so describing costs the span nothing."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = request_id(args, kwargs) if request_id is not None else None
            with self.span(name, rid=rid, fans_out=fans_out) as attrs:
                result = fn(*args, **kwargs)
            if describe is not None:
                attrs.update(describe(args, kwargs, result))
            return result

        return wrapper


def _rebind(original: Callable, replacement: Callable) -> None:
    """Rebind every module-level name bound to ``original``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _nodes(result) -> int:
    walk = getattr(result, "walk", None)
    return sum(1 for _ in walk()) if walk is not None else 0


def install(recorder: SpanRecorder, *, batch_ids: Optional[Callable] = None):
    """Wrap each layer's entry points; returns an ``uninstall`` callable.

    ``batch_ids`` (batch workloads) maps an ``execute_request`` call to
    its request id, making that call the request's root span.
    """
    # import_module, not attribute access: ``repro.tracing.record`` as an
    # attribute is the function the package re-exports, not the module.
    from importlib import import_module as mod

    analysis = mod("repro.analysis")
    batch = mod("repro.runtime.batch")
    cache = mod("repro.runtime.cache")
    codegen = mod("repro.partial_eval.codegen")
    compiled = mod("repro.semantics.compiled")
    analyze = mod("repro.tracing.analyze")
    session = mod("repro.replay.session")

    undo: List[Callable[[], None]] = []

    def function(module, attr, name, **options):
        original = getattr(module, attr)
        wrapped = recorder.wrap(name, original, **options)
        _rebind(original, wrapped)
        undo.append(lambda: _rebind(wrapped, original))

    def method(cls, attr, name, **options):
        original = cls.__dict__[attr]
        setattr(cls, attr, recorder.wrap(name, original, **options))
        undo.append(lambda: setattr(cls, attr, original))

    parsed = lambda a, k, r: {"nodes": _nodes(r)}  # noqa: E731
    function(mod("repro.syntax.parser"), "parse", "syntax.parse", describe=parsed)
    function(mod("repro.languages.imp_syntax"), "parse_imp", "syntax.parse", describe=parsed)
    function(analysis, "analyze", "analysis.lint")
    function(mod("repro.analysis.flow"), "analyze_flow", "analysis.flow")
    function(
        codegen,
        "generate_program",
        "partial_eval.codegen.generate",
        describe=lambda a, k, r: {"source_bytes": len(r.source)},
    )
    function(compiled, "compile_program", "semantics.compiled.compile")
    function(mod("repro.monitoring.derive"), "run_monitored", "monitoring.run_monitored")
    function(
        mod("repro.tracing.record"),
        "record",
        "tracing.record",
        describe=lambda a, k, r: {"events": r.events},
    )
    function(mod("repro.tracing.schema"), "read_trace", "tracing.read")
    function(
        analyze,
        "analyze_trace",
        "tracing.analyze_trace",
        describe=lambda a, k, r: {"events": r.events},
    )
    function(analyze, "analyze_many", "tracing.analyze_many", fans_out=True)
    if batch_ids is not None:
        function(batch, "execute_request", ROOT, request_id=batch_ids)
    method(cache.CompilationCache, "get_or_compile", "runtime.cache.get_or_compile")
    method(
        codegen.GeneratedProgram,
        "run",
        "exec.run",
        describe=lambda a, k, r: {"engine": "codegen"},
    )
    method(
        compiled.CompiledProgram,
        "run",
        "exec.run",
        describe=lambda a, k, r: {"engine": "compiled"},
    )
    method(batch.RunResult, "to_dict", "runtime.result.to_dict")
    method(session.ReplaySession, "seek", "replay.seek")

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall


# -- attribution ------------------------------------------------------------------


def by_request(spans: List[Span]) -> Dict[object, List[Span]]:
    grouped: Dict[object, List[Span]] = {}
    for span in spans:
        if span.rid is not None:
            grouped.setdefault(span.rid, []).append(span)
    return grouped


def attribute(spans: List[Span]) -> Tuple[float, Dict[str, float]]:
    """Split one request's wall time into self time per span name.

    The request's :data:`ROOT` span sets the wall time.  Every instant is
    charged to the innermost open spans, shared equally when several run
    at once on different threads; the root's own share is reported as
    ``unattributed``.  The parts sum to the wall time by construction.
    """
    roots = [s for s in spans if s.name == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT!r} span, found {len(roots)}")
    root = roots[0]
    live = [s for s in spans if s.end > root.start and s.start < root.end]
    times = sorted(
        {root.start, root.end}
        | {min(max(s.start, root.start), root.end) for s in live}
        | {min(max(s.end, root.start), root.end) for s in live}
    )
    parents = {s.sid: s.parent for s in live}
    selfs: Dict[str, float] = {}
    for lo, hi in zip(times, times[1:]):
        if hi <= lo:
            continue
        active = [s for s in live if s.start <= lo and s.end >= hi]
        busy = {parents[s.sid] for s in active}
        leaves = [s for s in active if s.sid not in busy]
        each = (hi - lo) / len(leaves)
        for s in leaves:
            name = "unattributed" if s is root else s.name
            selfs[name] = selfs.get(name, 0.0) + each
    return root.end - root.start, selfs


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time per span id (duration minus the union its children cover)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(span.sid, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = (span.end - span.start) - covered
    return out
