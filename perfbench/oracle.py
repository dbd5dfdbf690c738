"""Expected answers and reports, computed on the reference engine.

The oracle runs before any timing starts.  Every request a workload
generates maps to a key here; :class:`Oracle` holds the expected outcome
per key and :meth:`Oracle.check` compares an observed outcome against
it, recording each mismatch with its request.
"""

from __future__ import annotations

import ast
import re
import sys
from typing import Dict, List, Optional

#: The parts of a rendered ``RunResult`` every engine must agree on.
OUTCOME_KEYS = ("ok", "answer", "reports", "faults", "error_type")


_SET_RENDERING = re.compile(r"^(?:frozenset\()?(\{.*\})\)?$", re.S)


def canonical(value: object) -> object:
    """A rendered value with set renderings put in a fixed element order.

    The wire format renders a set-valued report with ``str()``, whose
    element order follows string hashing and so differs between
    processes; a set's elements, not their order, are the report.
    """
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    if isinstance(value, list):
        return [canonical(item) for item in value]
    if isinstance(value, str):
        match = _SET_RENDERING.match(value)
        if match:
            try:
                elements = ast.literal_eval(match.group(1))
            except (ValueError, SyntaxError):
                return value
            if isinstance(elements, set):
                return ("set", sorted(repr(element) for element in elements))
    return value


def outcome(record: Dict[str, object], metrics=None) -> Dict[str, object]:
    """The comparable projection of a rendered result (and its counters)."""
    out = {key: record.get(key) for key in OUTCOME_KEYS}
    out["reports"] = canonical(out["reports"])
    if metrics is not None:
        out["steps"] = metrics.steps
        out["applications"] = metrics.applications
    return out


def reference_outcome(source, tools, *, language=None, metrics=False):
    """Run one request on the reference engine and project its outcome."""
    from repro.observability.metrics import RunMetrics
    from repro.runtime import RunConfig, RunRequest, execute_request, language_by_name

    from programs import program_for

    config = RunConfig(engine="reference", metrics=RunMetrics() if metrics else None)
    result = execute_request(
        0,
        RunRequest(
            program_for(source, language),
            tools,
            language=language_by_name(language),
            config=config,
        ),
        config=config,
    )
    return outcome(result.to_dict(), result.metrics)


class Oracle:
    def __init__(self) -> None:
        self.expected: Dict[object, object] = {}
        self.mismatches: List[str] = []
        self.checked = 0

    def __contains__(self, key) -> bool:
        return key in self.expected

    def expect(self, key, value) -> None:
        self.expected[key] = value

    def check(self, key, observed, *, request: Optional[object] = None) -> bool:
        """Compare ``observed`` with the expectation stored for ``key``."""
        return self.compare(
            self.expected.get(key, _MISSING),
            observed,
            request=request if request is not None else key,
        )

    def compare(self, expected, observed, *, request: object) -> bool:
        """Compare ``observed`` with ``expected``, recording any mismatch."""
        self.checked += 1
        if expected == observed:
            return True
        self.mismatches.append(
            f"request {request!r}:\n  expected {expected!r}\n  observed {observed!r}"
        )
        return False

    def report(self, limit: int = 5) -> None:
        for line in self.mismatches[:limit]:
            print(f"oracle mismatch: {line}", file=sys.stderr)
        if len(self.mismatches) > limit:
            print(
                f"oracle: {len(self.mismatches) - limit} more mismatches",
                file=sys.stderr,
            )


class _Missing:
    def __repr__(self) -> str:
        return "<no expectation>"


_MISSING = _Missing()
