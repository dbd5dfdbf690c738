"""Language modules (Section 9.2).

The Haskell implementation the paper describes "allows automatic
integration of monitoring tools with several language modules (lazy,
strict and imperative languages)".  We reproduce all three:

* :mod:`repro.languages.strict` — call-by-value ``L_lambda`` (Figure 2).
* :mod:`repro.languages.lazy` — call-by-need ``L_lambda``; same syntax,
  thunks in the environment, monitors observe forced values.
* :mod:`repro.languages.imperative` — ``L_imp``: a small imperative
  language (assignment, sequencing, while) with a store threaded through
  expression and command continuations.

Each module exposes a ``Language`` object whose ``functional`` is a
standard continuation semantics in the shape the monitoring derivation
expects, so ``run_monitored(language, program, monitors)`` works uniformly.
"""

from repro import _lazy_exports
# Eager: these three exports share their names with submodules, so
# importing the submodule would shadow a lazy export (see _lazy_exports).
from repro.languages.imperative import imperative
from repro.languages.lazy import lazy
from repro.languages.strict import strict

__all__ = [
    "BaseLanguage",
    "ExceptionsLanguage",
    "ImperativeLanguage",
    "LazyLanguage",
    "StrictLanguage",
    "exceptions_language",
    "imperative",
    "lazy",
    "lazy_data",
    "parse_exc",
    "parse_imp",
    "pretty_imp",
    "strict",
]

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "BaseLanguage": "repro.languages.base",
        "StrictLanguage": "repro.languages.strict",
        "LazyLanguage": "repro.languages.lazy",
        "lazy_data": "repro.languages.lazy",
        "ImperativeLanguage": "repro.languages.imperative",
        "parse_imp": "repro.languages.imp_syntax",
        "pretty_imp": "repro.languages.imp_syntax",
        "ExceptionsLanguage": "repro.languages.exceptions",
        "exceptions_language": "repro.languages.exceptions",
        "parse_exc": "repro.languages.exceptions",
    },
)
