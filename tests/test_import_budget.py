"""Cold-start module budget: a cold ``repro`` command loads only what it runs.

Each case runs one CLI invocation in a fresh interpreter (``python -m
repro`` via :mod:`runpy`) and reads ``sys.modules`` at exit.  Module
counts do not depend on core count or machine load, so this gate is
deterministic where a wall-clock one would not be.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

FIB = "letrec fib = lambda n. {fib}: if n < 2 then n else fib (n - 1) + fib (n - 2) in fib 8"
PLAIN_FIB = "letrec fib = lambda n. if n < 2 then n else fib (n - 1) + fib (n - 2) in fib 7"
IMP = "i := 0; s := 0; while i < 10 do begin {acc}: s := s + i; i := i + 1 end; emit s"

#: The four subcommand shapes of the cold-CLI benchmark mix.
SHAPES = {
    "run-codegen": ["run", "--engine", "codegen", "--tools", "profile", "-e", FIB],
    "run-imperative": ["run", "--language", "imperative", "-e", IMP],
    "profile": ["profile", "-e", PLAIN_FIB],
    "check-flow": ["check", "--flow", "-e", FIB],
}

#: The most ``repro`` modules any shape may load (each loaded 91 before
#: lazy exports).
BUDGET = 50

#: Subsystems no cold run/profile/check needs.
NEVER = (
    "multiprocessing",
    "concurrent.futures",
    "socket",
    "repro.runtime.batch",
    "repro.runtime.process_pool",
    "repro.runtime.serve",
    "repro.tracing",
    "repro.replay",
    "repro.prelude",
    "repro.toolbox.session",
    "repro.partial_eval.online",
    "repro.partial_eval.compile",
    "repro.monitors.debugger",
    "repro.monitors.commands",
    "repro.monitors.interactive",
)

MARKER = "--loaded-modules--"


def _loaded(code: str) -> set:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    payload = done.stdout.rsplit(MARKER, 1)[1]
    return set(json.loads(payload))


def _cli_modules(argv) -> set:
    code = (
        "import json, runpy, sys\n"
        f"sys.argv = ['repro'] + {argv!r}\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n"
        f"print({MARKER!r} + json.dumps(sorted(sys.modules)))\n"
    )
    return _loaded(code)


def _repro(modules: set) -> set:
    return {name for name in modules if name == "repro" or name.startswith("repro.")}


def _under(modules: set, prefix: str) -> set:
    return {name for name in modules if name == prefix or name.startswith(prefix + ".")}


@pytest.fixture(scope="module")
def loaded():
    return {shape: _cli_modules(argv) for shape, argv in SHAPES.items()}


def test_import_repro_loads_only_the_package():
    modules = _loaded(f"import json, repro\nprint({MARKER!r} + json.dumps(sorted(__import__('sys').modules)))\n")
    assert _repro(modules) == {"repro"}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_within_budget(loaded, shape):
    count = len(_repro(loaded[shape]))
    assert count <= BUDGET, f"{shape} loads {count} repro modules (budget {BUDGET})"


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_never_loads_unused_subsystems(loaded, shape):
    modules = loaded[shape]
    pulled = sorted(name for prefix in NEVER for name in _under(modules, prefix))
    assert pulled == []


@pytest.mark.parametrize("shape", ["run-codegen", "run-imperative", "profile"])
def test_lint_off_runs_skip_the_analyzer(loaded, shape):
    assert _under(loaded[shape], "repro.analysis") == set()


@pytest.mark.parametrize("shape", ["profile", "check-flow"])
def test_reference_shapes_skip_codegen(loaded, shape):
    assert "repro.partial_eval.codegen" not in loaded[shape]


def test_codegen_flag_loads_its_engine(loaded):
    assert "repro.partial_eval.codegen" in loaded["run-codegen"]
