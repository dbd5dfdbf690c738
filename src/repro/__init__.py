"""Monitoring semantics — a reproduction of Kishon, Hudak & Consel (PLDI 1991).

A formal framework for specifying, implementing and reasoning about
execution monitors (debuggers, profilers, tracers, demons), built on
continuation semantics:

* write a language's standard semantics as a *functional*
  (:mod:`repro.semantics`, :mod:`repro.languages`);
* automatically derive a parameterized monitoring semantics from it
  (:mod:`repro.monitoring`);
* instantiate it with monitor specifications from the toolbox
  (:mod:`repro.monitors`) — soundness is a theorem: monitors cannot
  change program behavior;
* compose monitors with ``&`` and run them through the programming
  environment (:mod:`repro.toolbox`);
* remove the interpretive overhead with partial evaluation
  (:mod:`repro.partial_eval`), producing instrumented programs;
* serve batches of requests concurrently behind one
  :class:`~repro.runtime.RunConfig`, with a compiled-program cache
  (:mod:`repro.runtime` — ``run_batch``, ``Runtime``);
* statically analyze programs and monitor stacks before running them
  (:mod:`repro.analysis` — ``analyze``, ``repro check``, the
  ``RunConfig.lint`` gate).

Quickstart::

    from repro import parse, evaluate, strict
    from repro.monitors import ProfilerMonitor
    from repro.monitoring import run_monitored

    prog = parse(\"\"\"
        letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1)
        in fac 5
    \"\"\")
    result = run_monitored(strict, prog, ProfilerMonitor())
    result.answer      # 120 — always the standard answer
    result.report()    # {'fac': 6} — the monitoring information

``import repro`` loads this one module: every name below, and every
subpackage's exports, resolves on first use (PEP 562), so a script or
CLI command pays only for the subsystems it touches.
"""


def _lazy_exports(namespace, exports):
    """PEP 562 lazy exports for the package whose globals are ``namespace``.

    ``exports`` maps each exported name to the module defining it
    (``"module:attr"`` when the export renames).  Returns the package's
    ``__getattr__``, which imports the defining module on first use and
    caches the value in the package namespace, and its ``__dir__``,
    which lists ``__all__``.  ``import repro.x`` therefore costs only
    ``repro.x``'s own body; every export is a dictionary entry until
    something asks for it.

    A name that is also the name of one of the package's submodules
    cannot be lazy: importing the submodule binds the *module* under
    that name on the package, shadowing the export.  Such names are
    imported eagerly by the package instead of being listed here.

    The import goes through ``__import__`` (what an ``import`` statement
    runs), not ``importlib.import_module``, so ``python -X importtime``
    still reports the modules a lazy export loads.
    """
    package = namespace["__name__"]

    def __getattr__(name):
        try:
            module, _, attr = exports[name].partition(":")
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        attr = attr or name
        value = getattr(__import__(module, fromlist=[attr]), attr)
        namespace[name] = value
        return value

    def __dir__():
        return list(namespace["__all__"])

    return __getattr__, __dir__


__version__ = "1.0.0"

__all__ = [
    "AnalysisReport",
    "BatchRunner",
    "CompilationCache",
    "Diagnostic",
    "EvalError",
    "LexError",
    "MonitorError",
    "MonitorSpec",
    "ParseError",
    "ProcessPoolRunner",
    "ReplayDebugger",
    "ReplaySession",
    "ReproError",
    "RunConfig",
    "RunRequest",
    "RunResult",
    "Runtime",
    "Server",
    "Session",
    "SpecializationError",
    "StaticAnalysisError",
    "TraceAnalysis",
    "TraceError",
    "TraceFormatError",
    "TraceVersionError",
    "analyze",
    "analyze_many",
    "analyze_trace",
    "assert_sound",
    "assert_valid_monitor",
    "check_soundness",
    "compile_program",
    "compose",
    "evaluate",
    "exceptions_language",
    "generate_program",
    "imperative",
    "lazy",
    "lazy_data",
    "parse",
    "parse_exc",
    "parse_imp",
    "prelude_session",
    "pretty",
    "read_trace",
    "record",
    "run_batch",
    "run_monitored",
    "simplify",
    "specialize",
    "specialize_and_simplify",
    "strict",
    "validate_monitor",
    "with_prelude",
    "__version__",
]

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "AnalysisReport": "repro.analysis.diagnostics",
        "Diagnostic": "repro.analysis.diagnostics",
        "StaticAnalysisError": "repro.analysis.diagnostics",
        "analyze": "repro.analysis",
        "EvalError": "repro.errors",
        "LexError": "repro.errors",
        "MonitorError": "repro.errors",
        "ParseError": "repro.errors",
        "ReproError": "repro.errors",
        "SpecializationError": "repro.errors",
        "exceptions_language": "repro.languages.exceptions",
        "imperative": "repro.languages.imperative",
        "lazy": "repro.languages.lazy",
        "lazy_data": "repro.languages.lazy",
        "parse_exc": "repro.languages.exceptions",
        "parse_imp": "repro.languages.imp_syntax",
        "strict": "repro.languages.strict",
        "MonitorSpec": "repro.monitoring.spec",
        "compose": "repro.monitoring.compose",
        "run_monitored": "repro.monitoring.derive",
        "assert_sound": "repro.monitoring.soundness",
        "check_soundness": "repro.monitoring.soundness",
        "assert_valid_monitor": "repro.monitoring.validate",
        "validate_monitor": "repro.monitoring.validate",
        "compile_program": "repro.partial_eval.compile",
        "simplify": "repro.partial_eval.postprocess",
        "specialize": "repro.partial_eval.online",
        "specialize_and_simplify": "repro.partial_eval.postprocess",
        "generate_program": "repro.partial_eval.codegen",
        "prelude_session": "repro.prelude",
        "with_prelude": "repro.prelude",
        "BatchRunner": "repro.runtime.batch",
        "CompilationCache": "repro.runtime.cache",
        "ProcessPoolRunner": "repro.runtime.process_pool",
        "RunConfig": "repro.runtime.config",
        "RunRequest": "repro.runtime.batch",
        "RunResult": "repro.runtime.batch",
        "Runtime": "repro.runtime.batch",
        "Server": "repro.runtime.serve",
        "run_batch": "repro.runtime.batch",
        "ReplayDebugger": "repro.replay.debugger",
        "ReplaySession": "repro.replay.session",
        "parse": "repro.syntax.parser",
        "pretty": "repro.syntax.pretty",
        "Session": "repro.toolbox.session",
        "evaluate": "repro.toolbox.registry",
        "TraceAnalysis": "repro.tracing.analyze",
        "TraceError": "repro.tracing.schema",
        "TraceFormatError": "repro.tracing.schema",
        "TraceVersionError": "repro.tracing.schema",
        "analyze_many": "repro.tracing.analyze",
        "analyze_trace": "repro.tracing.analyze",
        "read_trace": "repro.tracing.schema",
        "record": "repro.tracing.record",
    },
)
