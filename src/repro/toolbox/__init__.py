"""The programming environment (Section 9.2).

"The implementation provides a generic programming environment which
allows automatic integration of monitoring tools with several language
modules ... the user simply types::

    evaluate (profile & debug & strict) prog

where & is a composition operator defined for monitors."

This package reproduces that surface:

* :mod:`repro.toolbox.registry` — the toolbox of predefined monitors and
  the :func:`~repro.toolbox.registry.evaluate` entry point;
* :mod:`repro.toolbox.compose_op` — the ``&`` operator, extended to attach
  a language module at the end of a monitor stack;
* :mod:`repro.toolbox.autoannotate` — the "suitably engineered programming
  environment" of Section 4.1 that adds annotations on the user's behalf
  ("a user may invoke a command to trace calls to the function f, and the
  system would then virtually ... add the appropriate annotation");
* :mod:`repro.toolbox.session` — persistent sessions holding definitions,
  with tools requested by name.
"""

from repro import _lazy_exports

__all__ = [
    "Session",
    "TOOLBOX",
    "Toolchain",
    "annotate_function_bodies",
    "evaluate",
    "make_tool",
]

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "annotate_function_bodies": "repro.toolbox.autoannotate",
        "Toolchain": "repro.toolbox.compose_op",
        "TOOLBOX": "repro.toolbox.registry",
        "evaluate": "repro.toolbox.registry",
        "make_tool": "repro.toolbox.registry",
        "Session": "repro.toolbox.session",
    },
)
