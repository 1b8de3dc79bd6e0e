"""Deterministic, total omega-automata and lasso-word acceptance.

States are dense 0-based indices.  Every automaton is expected to be
deterministic and total over the proposition table it is evaluated against:
for each state and each concrete letter exactly one outgoing guard holds.
Words are handled in ultimately-periodic (lasso) form, which suffices to
decide every acceptance condition implemented here.  Those are exactly the
kinds the synthesis pipeline reads or produces: safety, Buchi, co-Buchi and
one-pair Rabin conjuncts, and the parity condition of the product.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Union

from .boolexpr import ApTable, BoolExpr, evaluate, letter_set, letters_in


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


@dataclass(frozen=True)
class OmegaAutomaton:
    """Deterministic omega-automaton with guard-labelled edges.

    ``edges[s]`` lists ``(guard, target)`` pairs; the guards of one state must
    partition the letter space of the table the automaton is used with.
    """

    n_states: int
    initial: int
    edges: tuple[tuple[tuple[BoolExpr, int], ...], ...]
    acceptance: Acceptance


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
    """Raised when an automaton is rejected by :func:`validate`."""

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = issues
        super().__init__(f"invalid automaton: {issues[:5]!r}"
                         + (" ..." if len(issues) > 5 else ""))


class WrongAcceptanceKind(Exception):
    pass


def acceptance_state_sets(acc: Acceptance) -> tuple[frozenset[int], ...]:
    """All state sets referenced by an acceptance condition."""
    match acc:
        case Safety():
            return ()
        case Buchi(accepting):
            return (accepting,)
        case CoBuchi(rejecting):
            return (rejecting,)
        case OnePairRabin(persistent, recurrent):
            return (persistent, recurrent)
        case Parity():
            return ()
    raise TypeError(f"not an acceptance condition: {acc!r}")


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
    """Check determinism, totality and acceptance-set ranges.

    Returns the empty list iff the automaton is usable with ``table``.
    """
    try:
        transition_table(aut, table)
    except ValidationError as exc:
        return exc.issues
    return []


def transition_table(aut: OmegaAutomaton, table: ApTable) -> list[list[int]]:
    """Dense ``state x letter -> target`` table.  Every guard is evaluated
    once, as the set of letters it holds on; the rows, the letters no guard
    covers and the letters two guards cover follow by set algebra.  Raises
    :class:`ValidationError` with every issue :func:`validate` reports."""
    issues: list[ValidationIssue] = []
    n = aut.n_states
    if n <= 0:
        raise ValidationError([RangeError("automaton must have at least one state")])
    if not 0 <= aut.initial < n:
        issues.append(RangeError(f"initial state {aut.initial} out of range"))
    if len(aut.edges) != n:
        raise ValidationError(issues + [RangeError(
            f"expected {n} edge lists, found {len(aut.edges)}")])
    for s, state_edges in enumerate(aut.edges):
        for _, target in state_edges:
            if not 0 <= target < n:
                issues.append(RangeError(f"edge target {target} of state {s} out of range"))
    for ss in acceptance_state_sets(aut.acceptance):
        for s in ss:
            if not 0 <= s < n:
                issues.append(RangeError(f"acceptance set member {s} out of range"))
    if isinstance(aut.acceptance, Parity):
        if len(aut.acceptance.colours) != n:
            issues.append(RangeError("parity colour map must cover every state"))
        else:
            for s, c in enumerate(aut.acceptance.colours):
                if not 0 <= c < aut.acceptance.n_colours:
                    issues.append(RangeError(f"colour {c} of state {s} out of range"))
    if issues:
        raise ValidationError(issues)
    rows = []
    for s, state_edges in enumerate(aut.edges):
        covered = overlap = 0
        row = [-1] * table.n_letters
        for guard, target in state_edges:
            letters = letter_set(guard, table)
            overlap |= covered & letters
            covered |= letters
            for letter in letters_in(letters):
                row[letter] = target
        issues += [(NondeterministicEdge if overlap >> letter & 1 else MissingEdge)(s, letter)
                   for letter in letters_in(overlap | (1 << table.n_letters) - 1 ^ covered)]
        rows.append(row)
    if issues:
        raise ValidationError(issues)
    return rows


def step(aut: OmegaAutomaton, state: int, letter: int, table: ApTable) -> int:
    """Unique successor of ``state`` under ``letter``; assumes a valid automaton."""
    for guard, target in aut.edges[state]:
        if evaluate(guard, letter, table):
            return target
    raise ValidationError([MissingEdge(state, letter)])


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
    """Acceptance verdict of the automaton on the lasso word."""
    inf = infinity_set(lambda s, a: step(aut, s, a, table), aut.initial, lasso)
    return accepts_inf(aut.acceptance, inf)


def decompose_rabin(aut: OmegaAutomaton) -> tuple[OmegaAutomaton, OmegaAutomaton]:
    """Split a one-pair Rabin automaton into conjunctive parts.

    Returns automata over the same transition structure: a co-Buchi one whose
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
