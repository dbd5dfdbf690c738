"""Abstract and concrete syntax for the object languages.

This package implements the paper's ``Syn`` component (Section 3) together
with the *annotated* syntax of Section 4.1: every syntactic category may be
tagged with monitoring annotations, written ``{annotation}: expr`` in the
surface syntax.

Public entry points:

* :func:`repro.syntax.parser.parse` — parse surface text to an
  :class:`repro.syntax.ast.Expr`.
* :func:`repro.syntax.pretty.pretty` — render an expression back to text.
* :mod:`repro.syntax.annotations` — annotation values and auto-annotators.
* :mod:`repro.syntax.transform` — generic folds, substitution, free
  variables, alpha renaming.
"""

from repro import _lazy_exports
# Eager: ``pretty`` is also a submodule name (see _lazy_exports).
from repro.syntax.pretty import pretty

__all__ = [
    "Annotated",
    "App",
    "Const",
    "Expr",
    "If",
    "Lam",
    "Let",
    "Letrec",
    "Var",
    "parse",
    "pretty",
]

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "Annotated": "repro.syntax.ast",
        "App": "repro.syntax.ast",
        "Const": "repro.syntax.ast",
        "Expr": "repro.syntax.ast",
        "If": "repro.syntax.ast",
        "Lam": "repro.syntax.ast",
        "Let": "repro.syntax.ast",
        "Letrec": "repro.syntax.ast",
        "Var": "repro.syntax.ast",
        "parse": "repro.syntax.parser",
    },
)
