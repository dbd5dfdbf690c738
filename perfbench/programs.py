"""The program pool and the seeded request generators.

Every generator takes a :class:`random.Random` built from ``--seed`` and
returns plain data (source text, tool strings, engine names), so the
system under test receives only generated inputs.  Mixes are built as
*decks*: each pass holds every request class in its exact proportion and
the seed only shuffles the order, so two seeds load the system alike.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: fib with a call-header and a label annotation on one site, so every
#: stack below finds something to claim and none claims twice.
FIB = (
    "letrec fib = lambda n. {fib(n)}: {fib}: if n < 2 then n "
    "else fib (n - 1) + fib (n - 2) in fib %d"
)

#: Figure 11: fixed work (``%d`` iterations), of which the first ``%d``
#: pass through the traced helper.
LOOP = (
    "letrec traced = lambda x. {traced(x)}: {traced}: (x + 1) "
    "and plain = lambda x. x + 1 "
    "and loop = lambda i. lambda acc. if i = 0 then acc "
    "else if i <= %d then loop (i - 1) (traced acc) else loop (i - 1) (plain acc) "
    "in loop %d 0"
)


def loop(total: int, traced: int) -> str:
    return LOOP % (traced, total)


#: The paper's Section 8 programs, each with the stacks it is written for.
SECTION8: List[Tuple[str, Tuple[str, ...]]] = [
    (
        "letrec mul = lambda x. lambda y. {mul}:(x*y) in "
        "letrec fac = lambda x. {fac}:if (x=0) then 1 else mul x (fac (x-1)) in fac 3",
        ("profile", "count"),
    ),
    (
        "letrec mul = lambda x. lambda y. {mul(x, y)}:(x*y) in "
        "letrec fac = lambda x. {fac(x)}:if (x=0) then 1 else mul x (fac (x-1)) in fac 3",
        ("trace",),
    ),
    (
        "letrec inclist = lambda l. lambda acc. "
        "if (l = []) then acc else inclist (tl l) (((hd l) + 1) :: acc) in "
        "let l1 = {l1}:(inclist [1, 10, 100] []) in "
        "let l2 = {l2}:(inclist l1 []) in "
        "let l3 = {l3}:(inclist l2 []) in l3",
        ("demon",),
    ),
    (
        "letrec fac = lambda n. if {test}:(n = 0) then 1 else {n}: n * (fac (n - 1)) in fac 3",
        ("collect",),
    ),
    (
        "letrec fac = lambda x. if (x = 0) then {A}: 1 else {B}: (x * fac (x - 1)) in fac 5",
        ("count", "profile"),
    ),
]

#: Stacks for the fib and loop programs: none, singles, and the valid
#: compositions (``profile & count`` would claim ``{fib}`` twice).
STACKS = ("", "profile", "trace", "count", "profile & trace", "trace & count")

#: Small ``L_imp`` programs (run on the reference engine).
IMP = [
    "i := 0; s := 0; while i < %d do begin {acc}: s := s + i; i := i + 1 end; emit s" % n
    for n in (10, 20, 30)
]
IMP_STACKS = ("", "count")


def program_for(source: str, language):
    """What a request carries: source text, or an ``L_imp`` AST.

    ``evaluate`` parses string programs with the ``L_lambda`` grammar
    whatever the request's language, so ``L_imp`` requests carry the
    program already parsed.
    """
    if language != "imperative":
        return source
    from repro.languages.imp_syntax import parse_imp

    return parse_imp(source)


def strict_pairs() -> List[Tuple[str, str]]:
    """Every (source, tools) pair of the strict pool."""
    pairs = [(FIB % n, tools) for n in range(10, 15) for tools in STACKS]
    pairs += [(loop(2000, k), tools) for k in (0, 50, 500) for tools in STACKS]
    pairs += [(src, tools) for src, stacks in SECTION8 for tools in stacks]
    return pairs


def _request(source, tools, engine, *, metrics=False, language=None) -> Dict[str, object]:
    return {
        "program": source,
        "tools": tools,
        "engine": engine,
        "metrics": metrics,
        "language": language,
    }


def batch_deck() -> List[Dict[str, object]]:
    """One pass of the batch-warm mix.

    Per strict pair: 8 codegen and 4 compiled requests (2:1), of which 2
    and 1 carry metrics (a quarter).  ``L_imp`` programs on the reference
    engine make up about 5% of the deck.
    """
    deck = []
    for source, tools in strict_pairs():
        for engine, plain, counted in (("codegen", 6, 2), ("compiled", 3, 1)):
            deck += [_request(source, tools, engine)] * plain
            deck += [_request(source, tools, engine, metrics=True)] * counted
    imp = [
        _request(source, tools, "reference", language="imperative")
        for source in IMP
        for tools in IMP_STACKS
    ]
    while len(imp) * 19 < len(deck):  # ~5% of the final deck
        imp += imp[: len(IMP) * len(IMP_STACKS)]
    return deck + imp


def dealt(deck: List, rng: random.Random):
    """Endless stream: shuffled passes over ``deck``."""
    while True:
        order = list(deck)
        rng.shuffle(order)
        yield from order


def salted(source: str, salt: int) -> str:
    """A program new to any cache, denoting exactly what ``source`` does."""
    return "let salt = %d in %s" % (salt, source)


def serve_deck() -> List[Tuple[str, str, bool]]:
    """One pass of the serve-lint mix: (source, tools, new), ~30% new.

    Every strict pair once, so the open loop's few hundred requests span
    whole passes; three pairs in ten (a fixed choice) arrive as salted
    variants, each drawn fresh, so always a program the daemon has not
    seen.
    """
    return [
        (source, tools, index % 10 < 3)
        for index, (source, tools) in enumerate(strict_pairs())
    ]


def cli_deck() -> List[List[str]]:
    """One pass of the cli-cold mix: argv lists, a quarter per subcommand."""
    label_fib = "letrec fib = lambda n. {fib}: if n < 2 then n else fib (n - 1) + fib (n - 2) in fib %d"
    plain_fib = "letrec fib = lambda n. if n < 2 then n else fib (n - 1) + fib (n - 2) in fib %d"
    runs = [["run", "--engine", "codegen", "--tools", "profile", "-e", label_fib % n] for n in (8, 9, 10)]
    runs.append(["run", "--engine", "codegen", "--tools", "profile", "-e", SECTION8[0][0]])
    imps = [["run", "--language", "imperative", "-e", source] for source in IMP]
    imps.append(["run", "--language", "imperative", "-e", IMP[0].replace("10", "15")])
    profiles = [["profile", "-e", plain_fib % n] for n in (6, 7, 8)]
    profiles.append(["profile", "-e", "letrec fac = lambda x. if x = 0 then 1 else x * fac (x - 1) in fac 6"])
    checks = [["check", "--flow", "-e", FIB % 9], ["check", "--flow", "-e", loop(200, 20)]]
    checks += [["check", "--flow", "-e", SECTION8[0][0]], ["check", "--flow", "-e", SECTION8[3][0]]]
    return runs + imps + profiles + checks


#: trace-replay programs: long enough for ~100 seeks to spread out.
TRACE_PROGRAMS = [loop(1000, k) for k in (200, 300, 400)] + [FIB % 11, FIB % 12]
#: The four stacks folded over every recorded trace.
FOLD_STACKS = ("profile", "trace", "count", "profile & trace")
