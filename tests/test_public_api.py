"""Release-sanity checks on the public API surface."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.cli",
    "repro.errors",
    "repro.languages",
    "repro.languages.exceptions",
    "repro.languages.imp_syntax",
    "repro.languages.imperative",
    "repro.languages.lazy",
    "repro.languages.strict",
    "repro.monitoring",
    "repro.monitoring.transformers",
    "repro.monitoring.validate",
    "repro.monitors",
    "repro.monitors.interactive",
    "repro.monitors.statistics",
    "repro.monitors.unwind",
    "repro.observability",
    "repro.observability.events",
    "repro.observability.instrument",
    "repro.observability.metrics",
    "repro.observability.sinks",
    "repro.partial_eval",
    "repro.partial_eval.bta",
    "repro.partial_eval.codegen",
    "repro.partial_eval.compile",
    "repro.partial_eval.exc_codegen",
    "repro.partial_eval.imp_codegen",
    "repro.partial_eval.lazy_codegen",
    "repro.partial_eval.online",
    "repro.partial_eval.postprocess",
    "repro.prelude",
    "repro.runtime",
    "repro.runtime.batch",
    "repro.runtime.cache",
    "repro.runtime.config",
    "repro.runtime.process_pool",
    "repro.runtime.serve",
    "repro.semantics",
    "repro.semantics.denotational",
    "repro.semantics.monadic",
    "repro.syntax",
    "repro.testing",
    "repro.toolbox",
]


@pytest.mark.parametrize("module_name", PACKAGES)
def test_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module is not None


def test_top_level_all_resolvable():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.monitors",
        "repro.monitoring",
        "repro.languages",
        "repro.observability",
        "repro.runtime",
        "repro.syntax",
        "repro",
        "repro.analysis",
        "repro.partial_eval",
        "repro.replay",
        "repro.semantics",
        "repro.toolbox",
        "repro.tracing",
    ],
)
def test_package_all_resolvable(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists {name!r}"
    assert set(dir(module)) >= set(module.__all__)


def test_runtime_exports_at_top_level():
    """The serving runtime's facade is part of the one-import surface."""
    for name in (
        "RunConfig",
        "RunRequest",
        "RunResult",
        "Runtime",
        "BatchRunner",
        "CompilationCache",
        "run_batch",
    ):
        assert hasattr(repro, name), f"repro.{name} missing"
        assert name in repro.__all__, f"repro.__all__ misses {name!r}"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_every_module_has_docstring():
    for module_name in PACKAGES:
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
