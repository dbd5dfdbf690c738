"""Import hygiene for the lazy package layout.

Every ``repro`` package resolves its exports on first use (PEP 562), so
the order modules load in is no longer fixed by one eager
``import repro``.  These tests pin the properties that makes necessary:
any module can be the first one a fresh interpreter imports, exports
that share a submodule's name still resolve to the exported object,
and unknown names fail the way attribute lookups do.  (Every
``__all__`` name resolving is pinned in ``test_public_api.py``.)
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The library's packages, in dotted form.
PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)

#: Exports whose names are also submodule names, per package.  Importing
#: the submodule binds the module under that name on the package, so the
#: package imports these eagerly instead of resolving them lazily.
SHADOWING = {
    "repro.languages": ("imperative", "lazy", "strict"),
    "repro.monitoring": ("compose",),
    "repro.syntax": ("pretty",),
    "repro.tracing": ("record",),
}


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def _all_modules():
    names = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name != "repro.__main__":
            names.append(info.name)
    return sorted(names)


def test_every_module_imports_first():
    """Each module imports cleanly as the first ``repro`` import.

    One child process purges ``repro*`` from ``sys.modules`` before each
    import, which is equivalent to a fresh interpreter for this purpose
    and catches import cycles the eager seed order used to hide.
    """
    code = (
        "import importlib, json, sys\n"
        f"names = {_all_modules()!r}\n"
        "failures = {}\n"
        "for name in names:\n"
        "    for loaded in [m for m in sys.modules if m == 'repro' or m.startswith('repro.')]:\n"
        "        del sys.modules[loaded]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception as exc:\n"
        "        failures[name] = f'{type(exc).__name__}: {exc}'\n"
        "print(json.dumps(failures))\n"
    )
    done = _run(code)
    assert done.returncode == 0, done.stderr
    failures = json.loads(done.stdout.strip().splitlines()[-1])
    assert failures == {}


def test_shadowing_table_matches_the_tree():
    found = {}
    for name in PACKAGES:
        package = importlib.import_module(name)
        submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
        shared = tuple(sorted(set(package.__all__) & submodules))
        if shared:
            found[name] = shared
    assert found == SHADOWING


@pytest.mark.parametrize(
    "package,name",
    [(package, name) for package, names in SHADOWING.items() for name in names],
)
def test_shadowing_name_resolves_to_the_export(package, name):
    """Importing the submodule first must not shadow the export."""
    code = (
        "import types\n"
        f"import {package}.{name}\n"
        f"from {package} import {name} as value\n"
        "assert not isinstance(value, types.ModuleType), value\n"
        f"import {package}\n"
        f"assert getattr({package}, {name!r}) is value\n"
        "print(type(value).__name__)\n"
    )
    done = _run(code)
    assert done.returncode == 0, done.stderr


def test_unknown_name_is_an_attribute_error():
    import repro.runtime

    with pytest.raises(AttributeError, match="no_such_export"):
        repro.runtime.no_such_export  # noqa: B018
    assert not hasattr(repro, "no_such_export")


FIRST_USE = '''
import json, sys, repro

sys.setswitchinterval(1e-5)  # interleave the threads' first imports finely

FIB = "letrec fib = lambda n. {fib}: if n < 2 then n else fib (n - 1) + fib (n - 2) in fib 9"
IMP = "i := 0; s := 0; while i < 12 do begin {acc}: s := s + i; i := i + 1 end; emit s"

def request(program, engine, tools, language=None, metrics=False):
    from repro.observability import RunMetrics
    config = repro.RunConfig(engine=engine, metrics=RunMetrics() if metrics else None)
    return repro.RunRequest(program=program, tools=tools, language=language, config=config)

def requests():
    return [
        {"program": FIB, "engine": "codegen", "tools": "profile"},
        request(FIB, "codegen", "count", metrics=True),
        {"program": FIB, "engine": "compiled", "tools": "count"},
        request(FIB, "compiled", "profile", metrics=True),
        {"program": FIB, "engine": "reference", "tools": "callgraph"},
        request(FIB, "reference", "coverage", metrics=True),
        {"program": IMP, "language": "imperative", "tools": "count"},
        request(IMP, "reference", "count", language=repro.imperative, metrics=True),
    ]

def view(result):
    record = result.to_dict()
    record.pop("duration")
    record["metrics"] = result.metrics.to_dict() if result.metrics else None
    if record["metrics"]:
        for timing in ("wall_time", "monitor_time", "eval_time"):
            record["metrics"].pop(timing, None)
    return record

pooled = [view(r) for r in repro.run_batch(requests(), workers=8)]
sequential = [view(r) for r in repro.run_batch(requests(), workers=1)]
print(json.dumps({"pooled": pooled, "sequential": sequential}, default=str))
'''


def test_first_use_under_threads():
    """An 8-thread batch as a fresh interpreter's first work.

    Engines, monitors and the toolbox all load lazily inside the pool's
    threads; the results must match the same requests run sequentially
    afterwards, with no partially-initialized-module ``ImportError``.
    """
    done = _run(FIRST_USE)
    assert done.returncode == 0, done.stderr
    runs = json.loads(done.stdout.strip().splitlines()[-1])
    errors = [r.get("error") for r in runs["pooled"] if not r["ok"]]
    assert errors == []
    assert runs["pooled"] == runs["sequential"]
