"""Deterministic, total omega-automata and lasso-word acceptance.

States are dense 0-based indices.  An automaton is stored as a letter table
over its own proposition table: exactly one successor per state and letter.
Edges labelled with letter sets are read once, by
:meth:`OmegaAutomaton.from_edges`, which refuses a nondeterministic or
partial automaton; read over a larger table, the stored table is projected.
Words are handled in ultimately-periodic (lasso) form, which suffices to
decide every acceptance condition implemented here.  Those are exactly the
kinds the synthesis pipeline reads or produces: safety, Buchi, co-Buchi and
one-pair Rabin conjuncts, and the parity condition of the product.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from .boolexpr import ApTable, letters_in


@dataclass(frozen=True)
class Safety:
    """All infinite runs accept.  Violations of a safety property are modelled
    structurally, by an absorbing failure sink in the transition graph."""


@dataclass(frozen=True)
class Buchi:
    """Accept iff some accepting state is visited infinitely often."""

    accepting: frozenset[int]


@dataclass(frozen=True)
class CoBuchi:
    """Accept iff every rejecting state is visited only finitely often."""

    rejecting: frozenset[int]


@dataclass(frozen=True)
class OnePairRabin:
    """Accept iff the run eventually stays inside ``persistent`` and visits
    ``recurrent`` infinitely often."""

    persistent: frozenset[int]
    recurrent: frozenset[int]


@dataclass(frozen=True)
class Parity:
    """Accept iff the maximum colour visited infinitely often is even."""

    colours: tuple[int, ...]
    n_colours: int


Acceptance = Union[Safety, Buchi, CoBuchi, OnePairRabin, Parity]

#: Acceptance kinds allowed for specification conjuncts.  ``Parity`` is the
#: condition of the product automaton only.
CONJUNCT_KINDS = (Safety, Buchi, CoBuchi, OnePairRabin)


@dataclass(frozen=True, eq=False)
class OmegaAutomaton:
    """Deterministic, total omega-automaton over the propositions of ``table``.

    ``targets`` is a read-only int32 array of shape ``(n_states,
    table.n_letters)``: ``targets[s, letter]`` is the successor of state ``s``.
    Automata compare by identity; :meth:`from_edges` is the checked way in.
    """

    table: ApTable
    initial: int
    targets: np.ndarray
    acceptance: Acceptance

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=np.int32))
        self.targets.flags.writeable = False

    @property
    def n_states(self) -> int:
        return len(self.targets)

    @classmethod
    def from_edges(
        cls,
        table: ApTable,
        initial: int,
        edges: Sequence[Sequence[tuple[int, int]]],
        acceptance: Acceptance,
    ) -> OmegaAutomaton:
        """The automaton whose state ``s`` has the ``(letters, target)`` pairs
        ``edges[s]``, each ``letters`` a letter set over ``table`` (see
        :func:`~rabinsynth.boolexpr.proposition_sets`); the sets of one state
        must partition the letters.  The letters no set covers and the
        letters two sets cover follow by set algebra.  Raises
        :class:`ValidationError` with every range issue, or else with every
        determinism and totality issue."""
        issues: list[ValidationIssue] = []
        n = len(edges)
        if n == 0:
            raise ValidationError([RangeError("automaton must have at least one state")])
        if not 0 <= initial < n:
            issues.append(RangeError(f"initial state {initial} out of range"))
        for s, state_edges in enumerate(edges):
            for _, target in state_edges:
                if not 0 <= target < n:
                    issues.append(RangeError(f"edge target {target} of state {s} out of range"))
        state_sets = [v for v in vars(acceptance).values() if isinstance(v, frozenset)]
        issues += [RangeError(f"acceptance set member {s} out of range")
                   for ss in state_sets for s in ss if not 0 <= s < n]
        if isinstance(acceptance, Parity):
            if len(acceptance.colours) != n:
                issues.append(RangeError("parity colour map must cover every state"))
            else:
                for s, c in enumerate(acceptance.colours):
                    if not 0 <= c < acceptance.n_colours:
                        issues.append(RangeError(f"colour {c} of state {s} out of range"))
        if issues:
            raise ValidationError(issues)
        rows = []
        for s, state_edges in enumerate(edges):
            covered = overlap = 0
            row = [-1] * table.n_letters
            for letters, target in state_edges:
                overlap |= covered & letters
                covered |= letters
                for letter in letters_in(letters):
                    row[letter] = target
            issues += [(NondeterministicEdge if overlap >> letter & 1 else MissingEdge)(s, letter)
                       for letter in letters_in(overlap | (1 << table.n_letters) - 1 ^ covered)]
            rows.append(row)
        if issues:
            raise ValidationError(issues)
        return cls(table, initial, rows, acceptance)


@dataclass(frozen=True)
class Lasso:
    """The ultimately periodic word ``stem . loop^omega``."""

    stem: tuple[int, ...]
    loop: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.loop:
            raise ValueError("lasso loop must be non-empty")

    def letter_at(self, i: int) -> int:
        if i < len(self.stem):
            return self.stem[i]
        return self.loop[(i - len(self.stem)) % len(self.loop)]


# Validation issues are plain values so that callers can collect all of them.


@dataclass(frozen=True)
class NondeterministicEdge:
    state: int
    letter: int


@dataclass(frozen=True)
class MissingEdge:
    state: int
    letter: int


@dataclass(frozen=True)
class RangeError:
    detail: str


ValidationIssue = Union[NondeterministicEdge, MissingEdge, RangeError]


class ValidationError(Exception):
    """Raised when an automaton is refused: by :meth:`OmegaAutomaton.from_edges`,
    or by :func:`transition_table` over a table that lacks its propositions."""

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = issues
        super().__init__(f"invalid automaton: {issues[:5]!r}"
                         + (" ..." if len(issues) > 5 else ""))


class WrongAcceptanceKind(Exception):
    pass


def accepts_inf(acc: Acceptance, inf: frozenset[int]) -> bool:
    """Verdict of an acceptance condition on the infinitely-visited state set."""
    match acc:
        case Safety():
            return True
        case Buchi(accepting):
            return bool(inf & accepting)
        case CoBuchi(rejecting):
            return not inf & rejecting
        case OnePairRabin(persistent, recurrent):
            return inf <= persistent and bool(inf & recurrent)
        case Parity(colours, _):
            return max(colours[s] for s in inf) % 2 == 0
    raise TypeError(f"not an acceptance condition: {acc!r}")


def validate(aut: OmegaAutomaton, table: ApTable) -> list[ValidationIssue]:
    """The issues that keep the automaton from being read over ``table``:
    one per proposition of its own table that ``table`` does not name.
    Returns the empty list iff :func:`transition_table` succeeds."""
    return [RangeError(f"proposition {name!r} is not in the table")
            for name in aut.table.names if name not in table]


def transition_table(aut: OmegaAutomaton, table: ApTable) -> np.ndarray:
    """The automaton's letter table read over ``table``, whose names must
    include the automaton's own: each letter of ``table`` is projected onto
    the automaton's propositions.  The stored array itself when the tables
    are equal.  Raises :class:`ValidationError` with the issues of
    :func:`validate`."""
    if aut.table == table:
        return aut.targets
    issues = validate(aut, table)
    if issues:
        raise ValidationError(issues)
    return aut.targets[:, _projection(aut.table, table)]


@lru_cache(maxsize=64)
def _projection(own: ApTable, table: ApTable) -> np.ndarray:
    """Per letter of ``table``, the letter of ``own`` with the same values."""
    letters = np.arange(table.n_letters)
    projection = sum(((letters >> table.bit(name) & 1) << i for i, name in enumerate(own.names)),
                     np.zeros_like(letters))
    projection.flags.writeable = False  # the cache hands it to every caller
    return projection


def absorbing_states(aut: OmegaAutomaton) -> frozenset[int]:
    """The states that every letter leads back to."""
    return frozenset(s for s, row in enumerate(aut.targets.tolist()) if row.count(s) == len(row))


def infinity_set(
    successor: Callable[[int, int], int],
    initial: int,
    lasso: Lasso,
) -> frozenset[int]:
    """States visited infinitely often by the deterministic run on the lasso.

    ``successor(state, letter)`` is the transition function.  Iterates the
    loop from the post-stem state until the state at a loop boundary repeats
    (guaranteed within as many passes as there are states); the states entered
    during the repeating cycle are exactly the infinitely visited ones.
    """
    state = initial
    for letter in lasso.stem:
        state = successor(state, letter)
    boundary_pass = {state: 0}
    entered_per_pass: list[list[int]] = []
    while True:
        entered = []
        for letter in lasso.loop:
            state = successor(state, letter)
            entered.append(state)
        entered_per_pass.append(entered)
        if state in boundary_pass:
            first = boundary_pass[state]
            return frozenset(
                s for states in entered_per_pass[first:] for s in states)
        boundary_pass[state] = len(entered_per_pass)


def eval_lasso(aut: OmegaAutomaton, lasso: Lasso, table: ApTable) -> bool:
    """Acceptance verdict of the automaton on the lasso word, whose letters
    are over ``table``."""
    inf = infinity_set(transition_table(aut, table).item, aut.initial, lasso)
    return accepts_inf(aut.acceptance, inf)


def decompose_rabin(aut: OmegaAutomaton) -> tuple[OmegaAutomaton, OmegaAutomaton]:
    """Split a one-pair Rabin automaton into conjunctive parts.

    Returns automata sharing the letter table: a co-Buchi one whose
    rejecting set is the complement of the persistence set, and a Buchi one
    accepting on the recurrence set.  A word is Rabin-accepted iff both parts
    accept it.
    """
    if not isinstance(aut.acceptance, OnePairRabin):
        raise WrongAcceptanceKind(
            f"expected one-pair Rabin acceptance, got {type(aut.acceptance).__name__}")
    everything = frozenset(range(aut.n_states))
    co = replace(aut, acceptance=CoBuchi(everything - aut.acceptance.persistent))
    bu = replace(aut, acceptance=Buchi(aut.acceptance.recurrent))
    return co, bu
