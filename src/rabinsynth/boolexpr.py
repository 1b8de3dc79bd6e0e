"""Boolean formulas over named atomic propositions.

A *letter* is one truth assignment to all propositions of an :class:`ApTable`,
encoded as an integer bitmask: bit ``i`` carries the value of ``table.names[i]``.
Automata guards, pattern formulas and machine alphabets all share this encoding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Most propositions one table may name: every guard pass walks all
#: ``2 ** size`` letters, and the time and memory double with each name.
MAX_PROPOSITIONS = 20

#: Deepest nesting :func:`read_formula` accepts (``!``, parentheses and, in
#: pattern formulas, ``->`` and ``<->``), so that every formula walk stays
#: inside the recursion limit.  Flat ``&`` and ``|`` chains are not nesting:
#: they parse and are walked at any length.
MAX_GUARD_DEPTH = 100


@dataclass(frozen=True)
class ApTable:
    """Ordered, duplicate-free list of proposition names.

    The order fixes the bitmask encoding of letters and is shared by every
    automaton taking part in one synthesis problem.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) > MAX_PROPOSITIONS:
            raise ValueError(f"{len(self.names)} propositions exceed the limit of "
                             f"{MAX_PROPOSITIONS}")
        seen: set[str] = set()
        for name in self.names:
            if not (isinstance(name, str) and _NAME_RE.match(name)):
                raise ValueError(f"invalid proposition name: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate proposition name: {name!r}")
            seen.add(name)
        object.__setattr__(self, "_bit", {n: i for i, n in enumerate(self.names)})

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def n_letters(self) -> int:
        return 1 << len(self.names)

    def letters(self) -> range:
        return range(1 << len(self.names))

    def bit(self, name: str) -> int:
        try:
            return self._bit[name]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"unknown proposition: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._bit  # type: ignore[attr-defined]

    def letter(self, present: Iterable[str]) -> int:
        """Encode the set of true propositions as a letter bitmask."""
        mask = 0
        for name in present:
            mask |= 1 << self.bit(name)
        return mask

    def letter_names(self, letter: int) -> tuple[str, ...]:
        """Decode a letter into the alphabetically sorted true propositions."""
        return tuple(sorted(n for i, n in enumerate(self.names) if letter >> i & 1))


class BoolExpr:
    """Base class of boolean formula nodes. Instances are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Lit(BoolExpr):
    value: bool


@dataclass(frozen=True)
class Var(BoolExpr):
    name: str


@dataclass(frozen=True)
class Not(BoolExpr):
    arg: BoolExpr


@dataclass(frozen=True)
class And(BoolExpr):
    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True)
class Or(BoolExpr):
    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True)
class Implies(BoolExpr):
    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True)
class Iff(BoolExpr):
    left: BoolExpr
    right: BoolExpr


TRUE = Lit(True)
FALSE = Lit(False)


@lru_cache(maxsize=None)
def proposition_sets(size: int) -> tuple[int, ...]:
    """Per proposition of a ``size``-name table, the letters in which it holds
    as a letter set: an int whose bit ``letter`` is set iff the letter is in.
    Proposition ``i`` repeats ``2 ** i`` letters out, ``2 ** i`` in; each set
    is built from that period by doubling."""
    sets = []
    for i in range(size):
        bits, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while width < 1 << size:
            bits, width = bits | bits << width, 2 * width
        sets.append(bits)
    return tuple(sets)


def letter_set(expr: BoolExpr, table: ApTable) -> int:
    """The letters satisfying ``expr`` as a letter set (see
    :func:`proposition_sets`), from one pass over the formula."""
    props = proposition_sets(table.size)
    full = (1 << table.n_letters) - 1

    def of(e: BoolExpr) -> int:
        if isinstance(e, Var):
            return props[table.bit(e.name)]
        if isinstance(e, Not):
            return full ^ of(e.arg)
        # a flat chain nests to the left: walk its spine in a loop, so that
        # its length stays out of the recursion depth
        if isinstance(e, And):
            letters = full
            while isinstance(e, And):
                letters &= of(e.right)
                e = e.left
            return letters & of(e)
        if isinstance(e, Or):
            letters = 0
            while isinstance(e, Or):
                letters |= of(e.right)
                e = e.left
            return letters | of(e)
        if isinstance(e, Lit):
            return full if e.value else 0
        if isinstance(e, Implies):
            return full ^ of(e.left) | of(e.right)
        if isinstance(e, Iff):
            return full ^ of(e.left) ^ of(e.right)
        raise TypeError(f"not a boolean expression: {e!r}")

    return of(expr)


def read_formula(tokens: list[str], operators, atom, negate, fail,
                 pos: int = 0, first: int = 0):
    """Read one formula from ``tokens[pos:]``, starting at the operator
    ``operators[first]`` (``first = len(operators)``: one operand); return
    its value and the position after it.  ``operators`` lists the binary
    operators loosest first as ``(token, combine, kind)``: a ``"flat"`` one
    chains to the left at no nesting cost, a ``"left"`` one chains to the
    left at one level per operator, a ``"right"`` one nests to the right at
    one level per operator.  ``!`` and parentheses cost one level each; at
    most :data:`MAX_GUARD_DEPTH` levels are read.
    ``atom(token)`` reads any other operand, ``negate`` reads ``!`` and
    ``fail(why)`` raises."""
    end, loosest = len(tokens), len(operators)

    def deeper(level: int) -> int:
        if level == MAX_GUARD_DEPTH:
            fail(f"nested deeper than {MAX_GUARD_DEPTH} levels")
        return level + 1

    def formula(i: int, level: int):
        nonlocal pos
        if i == loosest:  # one operand
            if pos == end:
                fail("unexpected end")
            tok = tokens[pos]
            pos += 1
            if tok != "!" and tok != "(":
                return atom(tok)
            if tok == "!":
                return negate(formula(loosest, deeper(level)))
            value = formula(0, deeper(level))
            if pos == end or tokens[pos] != ")":
                fail("unexpected end" if pos == end else "expected ')'")
            pos += 1
            return value
        token, combine, kind = operators[i]
        value = formula(i + 1, level)
        while pos < end and tokens[pos] == token:
            pos += 1
            if kind != "flat":
                level = deeper(level)
            # a "right" operand reads the rest of its chain
            value = combine(value, formula(i if kind == "right" else i + 1, level))
        return value

    return formula(first, 0), pos


def letters_in(letters: int) -> list[int]:
    """The members of a letter set in ascending order."""
    return [i for i, bit in enumerate(bin(letters)[:1:-1]) if bit == "1"]


def free_names(expr: BoolExpr) -> Iterator[str]:
    """The proposition names in ``expr``, with repeats."""
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Var):
            yield e.name
        elif isinstance(e, Not):
            stack.append(e.arg)
        elif isinstance(e, (And, Or, Implies, Iff)):
            stack += (e.left, e.right)
        elif not isinstance(e, Lit):
            raise TypeError(f"not a boolean expression: {e!r}")


# Precedence levels used by the printer; parenthesise a child whenever its
# level is below what its context requires.
_PREC = {Iff: 0, Implies: 1, Or: 2, And: 3, Not: 4, Var: 5, Lit: 5}


def format_expr(expr: BoolExpr) -> str:
    """Render with minimal parentheses; the output reparses to the same tree."""
    return _fmt(expr, 0)


def _fmt(expr: BoolExpr, min_level: int) -> str:
    match expr:
        case Lit(value):
            s = "true" if value else "false"
        case Var(name):
            s = name
        case Not(arg):
            s = "!" + _fmt(arg, 4)
        case And() | Or():
            # a flat chain nests to the left: walk its spine in a loop, so
            # that its length stays out of the recursion depth
            kind, op, level = (And, " & ", 3) if isinstance(expr, And) else (Or, " | ", 2)
            parts, e = [], expr
            while isinstance(e, kind):
                parts.append(_fmt(e.right, level + 1))
                e = e.left
            parts.append(_fmt(e, level))
            s = op.join(reversed(parts))
        case Implies(l, r):
            # right-associative
            s = _fmt(l, 2) + " -> " + _fmt(r, 1)
        case Iff(l, r):
            s = _fmt(l, 0) + " <-> " + _fmt(r, 1)
        case _:
            raise TypeError(f"not a boolean expression: {expr!r}")
    if _PREC[type(expr)] < min_level:
        return "(" + s + ")"
    return s
