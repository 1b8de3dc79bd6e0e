"""Restricted temporal-pattern frontend.

The accepted language is a small set of shapes over boolean state formulas:

* ``b``                   -- a boolean constraint on the first letter
* ``G b``                 -- invariant
* ``G F b``               -- recurrence
* ``F G b``               -- persistence
* ``G (b1 -> X b2)``      -- one-step response
* ``G (b1 -> F b2)``      -- eventual response

Conjuncts may be joined with a top-level ``&`` (refused beside a top-level
``|``, ``->`` or ``<->``, as ambiguous); each piece is compiled to a
small deterministic automaton.  Anything outside these shapes (``U``, nested
temporal operators, ...) is rejected with a pointer to the automaton-based
input path, which accepts arbitrary Rabin-index-1 properties.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Union

from .automata import (
    Buchi,
    CoBuchi,
    CONJUNCT_KINDS,
    OmegaAutomaton,
    OnePairRabin,
    Safety,
    absorbing_states,
    decompose_rabin,
)
from .boolexpr import (
    And,
    ApTable,
    BoolExpr,
    Iff,
    Implies,
    Lit,
    Not,
    Or,
    Var,
    format_expr,
    letter_set,
    read_formula,
)


class LtlError(Exception):
    pass


class UnsupportedFragment(LtlError):
    def __init__(self, operator: str):
        self.operator = operator
        super().__init__(
            f"operator {operator!r} is outside the supported pattern fragment; "
            "supply this conjunct as an explicit automaton instead")


class UnsupportedAcceptance(LtlError):
    pass


@dataclass(frozen=True)
class StateInit:
    condition: BoolExpr


@dataclass(frozen=True)
class Always:
    condition: BoolExpr


@dataclass(frozen=True)
class Recurrence:
    condition: BoolExpr


@dataclass(frozen=True)
class Persistence:
    condition: BoolExpr


@dataclass(frozen=True)
class NextResponse:
    trigger: BoolExpr
    reaction: BoolExpr


@dataclass(frozen=True)
class Response:
    trigger: BoolExpr
    reaction: BoolExpr


PatternFormula = Union[
    StateInit, Always, Recurrence, Persistence, NextResponse, Response
]


# ---------------------------------------------------------------------------
# tokenizer / parser

_TEMPORAL = {"G", "F", "X", "U"}
_TEMPORAL_WORD = re.compile(r"[GFXU]+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KNOWN_TOKEN = re.compile(_NAME.pattern + r"|<->|->|[!&|()]")
_TOKEN = re.compile(_KNOWN_TOKEN.pattern + r"|\S")


def _tokenize(text: str) -> list[str]:
    tokens = []
    for tok in _TOKEN.findall(text):
        if _TEMPORAL_WORD.fullmatch(tok):
            tokens.extend(tok)  # allow the compact forms GF / FG
        elif _KNOWN_TOKEN.fullmatch(tok):
            tokens.append(tok)
        else:
            raise LtlError(f"unexpected character {tok!r}")
    return tokens


def unnameable(name: str) -> bool:
    """Whether pattern text cannot name the proposition ``name``: the
    tokenizer reads ``true`` and ``false`` as constants, and words of
    ``G F X U`` letters as temporal operators."""
    return name in ("true", "false") or _TEMPORAL_WORD.fullmatch(name) is not None


#: the boolean operators of pattern formulas, loosest first (see
#: :func:`~rabinsynth.boolexpr.read_formula`)
_OPERATORS = (("<->", Iff, "left"), ("->", Implies, "right"), ("|", Or, "flat"),
              ("&", And, "flat"))
_OR_LEVEL, _OPERAND = 2, len(_OPERATORS)


def _fail(why: str):
    raise LtlError(why)


def _atom(tok: str) -> BoolExpr:
    if tok == "true":
        return Lit(True)
    if tok == "false":
        return Lit(False)
    if tok in _TEMPORAL:
        raise UnsupportedFragment(tok)
    if _NAME.fullmatch(tok):
        return Var(tok)
    raise LtlError(f"unexpected token {tok!r}")


def _read_pattern(tokens: list[str]) -> PatternFormula:
    """Read one conjunct, a token list without a top-level ``&``."""
    def read(pos: int, first: int) -> tuple[BoolExpr, int]:
        return read_formula(tokens, _OPERATORS, _atom, Not, _fail, pos, first=first)

    head = tuple(tokens[:2])
    if head in (("G", "F"), ("F", "G")):
        condition, pos = read(2, _OPERAND)
        pattern: PatternFormula = (Recurrence if head[0] == "G" else Persistence)(condition)
    elif head == ("G", "("):
        # an invariant, unless the parenthesised formula is a top-level
        # implication whose consequent starts with X or F
        trigger, pos = read(2, _OR_LEVEL)
        if tokens[pos] == "->" and tokens[pos + 1] in ("X", "F"):
            kind = NextResponse if tokens[pos + 1] == "X" else Response
            reaction, pos = read(pos + 2, 0)
            pattern = kind(trigger, reaction)
        else:
            if tokens[pos] != ")":
                trigger, pos = read(2, 0)
            pattern = Always(trigger)
        if tokens[pos] != ")":
            raise LtlError(f"expected ')', got {tokens[pos]!r}")
        pos += 1
    elif head[0] == "G":
        condition, pos = read(1, _OPERAND)
        pattern = Always(condition)
    elif head[0] in _TEMPORAL:
        raise UnsupportedFragment(head[0])
    else:
        condition, pos = read(0, 0)
        pattern = StateInit(condition)
    if pos != len(tokens):
        leftover = tokens[pos]
        if leftover in _TEMPORAL:
            raise UnsupportedFragment(leftover)
        raise LtlError(f"unexpected token {leftover!r} after pattern")
    return pattern


def _split_top_level(tokens: list[str]) -> list[list[str]]:
    """Cut ``tokens`` at each top-level ``&``.  A top-level ``&`` next to a
    top-level ``|``, ``->`` or ``<->`` is refused: the cut would bind looser
    than the boolean grammar does."""
    segments: list[list[str]] = [[]]
    depth = 0
    mixed = False
    for tok in tokens:
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
            if depth < 0:
                raise LtlError("unbalanced parentheses")
        elif depth == 0:
            if tok == "&":
                segments.append([])
                continue
            mixed = mixed or tok in ("|", "->", "<->")
        segments[-1].append(tok)
    if depth != 0:
        raise LtlError("unbalanced parentheses")
    if mixed and len(segments) > 1:
        raise LtlError("a top-level '&' next to a top-level '|', '->' or '<->' is "
                       "ambiguous; parenthesise the boolean formula")
    return segments


def parse_ltl(text: str) -> list[PatternFormula]:
    """Parse a conjunction of patterns; a top-level ``&`` separates conjuncts."""
    tokens = _tokenize(text)
    if not tokens:
        raise LtlError("empty formula")
    conjuncts = []
    for segment in _split_top_level(tokens):
        if not segment:
            raise LtlError("empty conjunct")
        conjuncts.append(_read_pattern(segment))
    return conjuncts


def _amp_at_depth_zero(s: str) -> bool:
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "&" and depth == 0:
            return True
    return False


def format_pattern(pattern: PatternFormula) -> str:
    """Inverse of :func:`parse_ltl` on single conjuncts."""
    def atom(b: BoolExpr) -> str:
        s = format_expr(b)
        return s if isinstance(b, (Var, Lit, Not)) else "(" + s + ")"

    match pattern:
        case StateInit(b):
            s = format_expr(b)
            # an unparenthesised & would be read as a conjunct separator
            return "(" + s + ")" if _amp_at_depth_zero(s) else s
        case Always(b):
            return "G " + atom(b)
        case Recurrence(b):
            return "G F " + atom(b)
        case Persistence(b):
            return "F G " + atom(b)
        case NextResponse(t, r):
            left = format_expr(t)
            if isinstance(t, (Implies, Iff)):
                left = "(" + left + ")"
            return f"G ({left} -> X {format_expr(r)})"
        case Response(t, r):
            left = format_expr(t)
            if isinstance(t, (Implies, Iff)):
                left = "(" + left + ")"
            return f"G ({left} -> F {format_expr(r)})"
    raise TypeError(f"not a pattern formula: {pattern!r}")


# ---------------------------------------------------------------------------
# compilation to automata


def compile_pattern(pattern: PatternFormula, table: ApTable) -> OmegaAutomaton:
    """Compile a pattern into a deterministic total automaton over ``table``
    whose lasso language matches the pattern semantics.  Each condition is
    evaluated once, as a letter set; the edges follow by set algebra."""
    full = (1 << table.n_letters) - 1

    def automaton(acceptance, *rows):
        # state 0 is initial
        return OmegaAutomaton.from_edges(table, 0, rows, acceptance)

    match pattern:
        case StateInit(b):
            # 0: reads the first letter; 1: satisfied; 2: failed (both absorbing)
            b = letter_set(b, table)
            return automaton(
                Buchi(frozenset({1})),
                [(b, 1), (full ^ b, 2)],
                [(full, 1)],
                [(full, 2)])
        case Always(b):
            # 0: invariant holds so far; 1: failure sink
            b = letter_set(b, table)
            return automaton(
                Buchi(frozenset({0})),
                [(b, 0), (full ^ b, 1)],
                [(full, 1)])
        case Recurrence(b) | Persistence(b):
            # 1 is entered exactly on letters satisfying the condition
            b = letter_set(b, table)
            row = [(full ^ b, 0), (b, 1)]
            return automaton(Buchi(frozenset({1})) if isinstance(pattern, Recurrence)
                             else CoBuchi(frozenset({0})), row, row)
        case NextResponse(t, r):
            # 0: no obligation; 1: the previous letter raised one; 2: failure sink
            t, r = letter_set(t, table), letter_set(r, table)
            return automaton(
                Buchi(frozenset({0, 1})),
                [(full ^ t, 0), (t, 1)],
                [(r & ~t, 0), (r & t, 1), (full ^ r, 2)],
                [(full, 2)])
        case Response(t, r):
            # 0: idle; 1: waiting for the reaction
            t, r = letter_set(t, table), letter_set(r, table)
            return automaton(
                Buchi(frozenset({0})),
                [(full ^ t | r, 0), (t & ~r, 1)],
                [(r, 0), (full ^ r, 1)])
    raise TypeError(f"not a pattern formula: {pattern!r}")


# ---------------------------------------------------------------------------
# conjunct normalisation


def normalize(aut: OmegaAutomaton) -> list[OmegaAutomaton]:
    """Express one conjunct through Buchi/co-Buchi conjuncts of equal language,
    all sharing its letter table.

    Safety automata become Buchi automata accepting everywhere outside their
    failure sinks; one-pair Rabin automata split into a co-Buchi and a Buchi
    part; Buchi and co-Buchi conjuncts pass through unchanged.  A safety
    automaton's absorbing states are read as its failure sinks: one whose
    absorbing states mean something else has to be supplied with an explicit
    Buchi acceptance instead.
    """
    acc = aut.acceptance
    if isinstance(acc, Safety):
        return [replace(aut, acceptance=Buchi(
            frozenset(range(aut.n_states)) - absorbing_states(aut)))]
    if isinstance(acc, (Buchi, CoBuchi)):
        return [aut]
    if isinstance(acc, OnePairRabin):
        return list(decompose_rabin(aut))
    raise UnsupportedAcceptance(
        f"conjuncts must be one of {[k.__name__ for k in CONJUNCT_KINDS]}, "
        f"got {type(acc).__name__}")
