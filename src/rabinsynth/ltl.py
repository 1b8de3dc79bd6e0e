"""Restricted temporal-pattern frontend.

The accepted language is a small set of shapes over boolean state formulas:

* ``b``                   -- a boolean constraint on the first letter
* ``G b``                 -- invariant
* ``G F b``               -- recurrence
* ``F G b``               -- persistence
* ``G (b1 -> X b2)``      -- one-step response
* ``G (b1 -> F b2)``      -- eventual response

Conjuncts may be joined with a top-level ``&``; each piece is compiled to a
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
    MAX_GUARD_DEPTH,
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
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|<->|->|[!&|()]|\S")


def _tokenize(text: str) -> list[str]:
    tokens = []
    for tok in _TOKEN.findall(text):
        if re.fullmatch(r"[GFXU]+", tok):
            tokens.extend(tok)  # allow the compact forms GF / FG
        elif re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*|<->|->|[!&|()]", tok):
            tokens.append(tok)
        else:
            raise LtlError(f"unexpected character {tok!r}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def nest(self) -> None:
        """Enter one more level of ``!``, parentheses, ``->`` or ``<->``."""
        self.depth += 1
        if self.depth > MAX_GUARD_DEPTH:
            raise LtlError(f"formula nested deeper than {MAX_GUARD_DEPTH} levels")

    def peek(self, ahead: int = 0) -> str | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise LtlError("unexpected end of formula")
        if expected is not None and tok != expected:
            raise LtlError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    # boolean grammar: <-> binds loosest, then ->, |, &, !
    def bool_expr(self) -> BoolExpr:
        return self.iff_chain(self.bool_implies())

    def iff_chain(self, expr: BoolExpr) -> BoolExpr:
        # a <-> chain nests to the left, one level per operator
        depth = self.depth
        while self.peek() == "<->":
            self.take()
            self.nest()
            expr = Iff(expr, self.bool_implies())
        self.depth = depth
        return expr

    def bool_implies(self, expr: BoolExpr | None = None) -> BoolExpr:
        """An implication chain; ``expr``, if given, is its parsed first operand."""
        expr = self.bool_or() if expr is None else expr
        if self.peek() == "->":
            self.take()
            self.nest()
            expr = Implies(expr, self.bool_implies())
            self.depth -= 1
        return expr

    def bool_or(self) -> BoolExpr:
        expr = self.bool_and()
        while self.peek() == "|":
            self.take()
            expr = Or(expr, self.bool_and())
        return expr

    def bool_and(self) -> BoolExpr:
        expr = self.bool_unary()
        while self.peek() == "&":
            self.take()
            expr = And(expr, self.bool_unary())
        return expr

    def bool_unary(self) -> BoolExpr:
        tok = self.take()
        if tok == "!" or tok == "(":
            self.nest()
            if tok == "!":
                expr: BoolExpr = Not(self.bool_unary())
            else:
                expr = self.bool_expr()
                self.take(")")
            self.depth -= 1
            return expr
        if tok == "true":
            return Lit(True)
        if tok == "false":
            return Lit(False)
        if tok in _TEMPORAL:
            raise UnsupportedFragment(tok)
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            return Var(tok)
        raise LtlError(f"unexpected token {tok!r}")

    def pattern(self) -> PatternFormula:
        tok = self.peek()
        if tok == "G":
            self.take()
            if self.peek() == "F":
                self.take()
                return Recurrence(self.bool_unary())
            if self.peek() == "(":
                return self.g_parenthesised()
            return Always(self.bool_unary())
        if tok == "F":
            self.take()
            if self.peek() == "G":
                self.take()
                return Persistence(self.bool_unary())
            raise UnsupportedFragment("F")
        if tok in ("X", "U"):
            raise UnsupportedFragment(tok)
        return StateInit(self.bool_expr())

    def g_parenthesised(self) -> PatternFormula:
        # G ( ... ) is an invariant unless the parenthesised formula is a
        # top-level implication whose consequent starts with X or F.
        self.take("(")
        left = self.bool_or()
        if self.peek() == "->" and self.peek(1) in ("X", "F"):
            self.take()
            op = self.take()
            right = self.bool_expr()
            self.take(")")
            return NextResponse(left, right) if op == "X" else Response(left, right)
        # fall back to the boolean continuation of the invariant body
        expr = self.iff_chain(self.bool_implies(left))
        self.take(")")
        return Always(expr)


def _split_top_level(tokens: list[str]) -> list[list[str]]:
    segments: list[list[str]] = [[]]
    depth = 0
    for tok in tokens:
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
            if depth < 0:
                raise LtlError("unbalanced parentheses")
        if tok == "&" and depth == 0:
            segments.append([])
        else:
            segments[-1].append(tok)
    if depth != 0:
        raise LtlError("unbalanced parentheses")
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
        parser = _Parser(segment)
        pattern = parser.pattern()
        if parser.pos != len(segment):
            leftover = segment[parser.pos]
            if leftover in _TEMPORAL:
                raise UnsupportedFragment(leftover)
            raise LtlError(f"unexpected token {leftover!r} after pattern")
        conjuncts.append(pattern)
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
