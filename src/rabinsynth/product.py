"""Parity product of normalised Buchi/co-Buchi conjuncts.

The product runs every conjunct automaton in parallel and adds a small control
structure: a round-robin counter over the Buchi assumptions, one over the
Buchi guarantees, and a flag remembering whether all Buchi assumptions were
recently serviced.  Colouring the resulting states with at most five colours
(0..4) turns implication-shaped specifications into a deterministic parity
automaton: a word is accepted exactly when some assumption conjunct rejects it
or every guarantee conjunct accepts it.

Two reductions keep the product small.  Once a component enters a losing
absorbing sink (a non-accepting one of a Buchi conjunct, a rejecting one of a
co-Buchi conjunct), its conjunct has failed for good.  A failed guarantee
leaves the verdict to the assumptions, so the play moves to the
guarantee-dead region, which tracks only the assumption components and the
assumption counter and is coloured from them.  A failed assumption means the
System has won, so the play moves to one absorbing state of colour 0; it wins
over a failed guarantee.  And a Buchi conjunct that accepts in every state
outside its losing sinks, as every normalised safety conjunct does, takes no
slot in its round-robin counter: alive, it accepts at every step.

The product is built in two stages.  The counters and the flag multiply the
states (the 4-client arbiter has 7,932 states over 206 distinct regions and
component states), yet they step from the source state alone and never
change which components follow.  So the first stage explores the
counter-free product, the reachable (region, component states) tuples, and
tabulates every tuple's successors; the second explores the product itself,
adding the counters and the flag to those successors by table lookup.  A
key space small enough to step whole takes one pass instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import prod
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .automata import (
    Buchi,
    CoBuchi,
    OmegaAutomaton,
    Parity,
    absorbing_states,
    transition_table,
    validate,  # unused here; perfbench/tracing.py times product.validate
)
from .boolexpr import ApTable


class CapacityExceeded(Exception):
    pass


DEFAULT_STATE_LIMIT = 10_000_000
_SMALL_CELLS = 4096  # (key, letter) cells below which an array pass costs mostly its overhead
_INT32_MAX = np.iinfo(np.int32).max  # state numbers and level positions are int32


@dataclass(frozen=True)
class NormalizedSpec:
    """Implication-shaped specification with normalised conjunct automata.

    All automata must be valid over the joint proposition table (inputs first,
    then outputs); assumptions and guarantees are given as deterministic Buchi
    or co-Buchi automata.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    buchi_assumptions: tuple[OmegaAutomaton, ...]
    cobuchi_assumptions: tuple[OmegaAutomaton, ...]
    buchi_guarantees: tuple[OmegaAutomaton, ...]
    cobuchi_guarantees: tuple[OmegaAutomaton, ...]

    @classmethod
    def from_conjuncts(
        cls,
        inputs: Iterable[str],
        outputs: Iterable[str],
        assumptions: Sequence[OmegaAutomaton],
        guarantees: Sequence[OmegaAutomaton],
    ) -> NormalizedSpec:
        """Sort each side's normalised conjuncts by acceptance class, keeping
        their order.  Whatever is not Buchi lands in a co-Buchi set, where
        :func:`validate_normalized` refuses it unless it is co-Buchi."""
        def pick(automata: Sequence[OmegaAutomaton], buchi: bool) -> tuple:
            return tuple(a for a in automata if isinstance(a.acceptance, Buchi) == buchi)

        return cls(tuple(inputs), tuple(outputs),
                   pick(assumptions, True), pick(assumptions, False),
                   pick(guarantees, True), pick(guarantees, False))

    def table(self) -> ApTable:
        return ApTable(tuple(self.inputs) + tuple(self.outputs))

    @property
    def components(self) -> tuple[OmegaAutomaton, ...]:
        return (self.buchi_assumptions + self.cobuchi_assumptions
                + self.buchi_guarantees + self.cobuchi_guarantees)


def validate_normalized(spec: NormalizedSpec) -> tuple[ApTable, list[np.ndarray]]:
    """Check proposition disjointness, conjunct kinds and that every component
    reads over the joint table; return that table and every component's
    letter table over it."""
    if set(spec.inputs) & set(spec.outputs):
        raise ValueError("input and output propositions must be disjoint")
    table = spec.table()
    for aut in spec.buchi_assumptions + spec.buchi_guarantees:
        if not isinstance(aut.acceptance, Buchi):
            raise ValueError("expected Buchi acceptance in a Buchi conjunct set")
    for aut in spec.cobuchi_assumptions + spec.cobuchi_guarantees:
        if not isinstance(aut.acceptance, CoBuchi):
            raise ValueError("expected co-Buchi acceptance in a co-Buchi conjunct set")
    return table, [transition_table(aut, table) for aut in spec.components]


#: ``ProductState.region`` values.
LIVE = 0             # every component is tracked
GUARANTEE_DEAD = 1   # a guarantee has lost for good: the assumptions decide
ASSUMPTION_DEAD = 2  # an assumption has lost for good: the System has won


class ProductState(NamedTuple):
    """One product state: the components it still tracks plus the control
    structure.

    A ``LIVE`` state tracks every component, both counters and the flag.  A
    ``GUARANTEE_DEAD`` state tracks the assumption components and the
    assumption counter only; its guarantee counter reads 0 and its flag False.
    The one ``ASSUMPTION_DEAD`` state tracks nothing.
    """

    components: tuple[int, ...]
    awaiting_assumption: int     # 0..counted Buchi assumptions, 0 = free increment slot
    awaiting_guarantee: int      # 0..counted Buchi guarantees
    assumptions_serviced: bool
    region: int = LIVE


def _losing_sinks(aut: OmegaAutomaton) -> frozenset[int]:
    """Absorbing states in which a conjunct has lost for good: the
    non-accepting ones of a Buchi conjunct, the rejecting ones of a co-Buchi
    conjunct."""
    acc = aut.acceptance
    absorbing = absorbing_states(aut)
    return absorbing & acc.rejecting if isinstance(acc, CoBuchi) else absorbing - acc.accepting


def _takes_counter_slot(aut: OmegaAutomaton, sinks: frozenset[int]) -> bool:
    """Whether a Buchi conjunct needs a slot in its round-robin counter.

    It does not when every state outside its losing sinks is accepting, as in
    every normalised safety conjunct: alive, it accepts at every step; dead,
    it has sent the play to a collapsed region.
    """
    accepting = aut.acceptance.accepting
    return any(s not in accepting and s not in sinks for s in range(aut.n_states))


@dataclass(frozen=True, eq=False)
class KeySpace:
    """How an int64 key encodes a product state: ``bases[region]`` plus a
    mixed-radix number over one digit per component, then the assumption
    counter, the guarantee counter and the flag, with the place values and
    ranges of row ``region`` of ``weights`` and ``radices``; a digit the
    region does not track has range 1 and reads 0, and ``tracked[region]``
    marks the components it tracks.  Outside this module, keys are read
    through :meth:`read` alone."""

    bases: np.ndarray
    weights: np.ndarray
    radices: np.ndarray
    tracked: np.ndarray

    def regions(self, keys: np.ndarray) -> np.ndarray:
        return self.bases[1:].searchsorted(keys, side="right")

    def decode(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        region = self.regions(keys)
        offset = keys - self.bases[region]
        return region, offset[:, None] // self.weights[region] % self.radices[region]

    def read(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per key: its region, component states, which components it tracks, and
        control (assumption counter, guarantee counter, flag), one column each."""
        region, digits = self.decode(keys)
        return region, digits[:, :-3], self.tracked[region], digits[:, -3:]


@dataclass(frozen=True, eq=False)
class ParityAutomaton:
    """Reachable fragment of the product, densely re-indexed.

    ``transitions`` is a read-only int32 array of shape
    ``(n_states, n_letters)``: ``transitions[s, letter]`` is the successor
    index.  States are numbered in breadth-first discovery order: state 0 is
    the initial state, and reading the array row-major, every new successor
    gets the next free index.  ``colours[s]`` is a Python int, ``keys[s]``
    the state's int64 key, and ``states[s]`` decodes it on first reading.
    ``automaton`` is the product as a five-colour parity automaton over
    ``table``, reading ``transitions`` itself.
    """

    table: ApTable
    n_states: int
    initial: int
    transitions: np.ndarray
    colours: tuple[int, ...]
    keys: np.ndarray
    key_space: KeySpace

    @cached_property
    def automaton(self) -> OmegaAutomaton:
        return OmegaAutomaton(self.table, self.initial, self.transitions, Parity(self.colours, 5))

    @cached_property
    def states(self) -> tuple[ProductState, ...]:
        region, states, tracked, control = (a.tolist() for a in self.key_space.read(self.keys))
        return tuple(ProductState(tuple(compress(c, t)), a, g, bool(f), r)
                     for r, c, t, (a, g, f) in zip(region, states, tracked, control))


def raw_product_bound(spec: NormalizedSpec) -> int:
    """Size of the unrestricted product state space, with a counter slot for
    every Buchi conjunct: an upper bound on the reachable product."""
    bound = (len(spec.buchi_assumptions) + 1) * (len(spec.buchi_guarantees) + 1) * 2
    for aut in spec.components:
        bound *= aut.n_states
    return bound


def build_product(
    spec: NormalizedSpec,
    *,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> ParityAutomaton:
    """Breadth-first construction of the reachable parity product.

    A state is keyed by one int64 (see :class:`KeySpace`); the whole key
    space must fit both int64 and ``state_limit``.  A key's *tuple* is its
    region and component digits.  A successor tuple is a gather-and-sum over
    the radix-weighted component tables, redirected to a dead region wherever
    a successor component lands in one of its losing sinks.  The control
    digits step from the source state alone: each counter advances through a
    table indexed by its value and the state of the component it awaits.

    The first stage explores the tuples, with the control digits at 0, and
    tabulates their successors.  The second explores the product a whole
    level at once: a successor key is the successor tuple's key plus a
    control term read from a table over (tuple, control digits, successor
    region).  A key space of at most ``_SMALL_CELLS`` (key, letter) cells is
    instead stepped whole in one pass before a single search, which there
    costs less than a second search.  States are numbered through one int32
    array indexed by key, cleared between the stages.  It costs 4 bytes per
    key of the key space and is allocated zeroed, so only the pages that
    reachable keys fall on become resident.
    """
    table, component_tables = validate_normalized(spec)
    components = spec.components
    k = len(components)
    n1 = len(spec.buchi_assumptions)
    na = n1 + len(spec.cobuchi_assumptions)
    n3 = len(spec.buchi_guarantees)
    sinks = [_losing_sinks(aut) for aut in components]
    counted_a = [j for j in range(n1) if _takes_counter_slot(components[j], sinks[j])]
    counted_g = [j for j in range(na, na + n3)
                 if _takes_counter_slot(components[j], sinks[j])]
    radices = ([aut.n_states for aut in components]
               + [len(counted_a) + 1, len(counted_g) + 1, 2])
    weights = [prod(radices[:j]) for j in range(k + 3)]
    live = prod(radices)
    dead_counter_weight = weights[na]  # assumption counter above the assumptions
    sink_key = live + dead_counter_weight * (len(counted_a) + 1)
    limit = min(state_limit, np.iinfo(np.int64).max)  # state keys are int64
    if sink_key + 1 > limit:
        raise CapacityExceeded(
            f"product key space {sink_key + 1} exceeds the configured limit {limit}")
    untracked = [1] * (k - na)
    key_space = KeySpace(
        np.array([0, live, sink_key]),
        np.array([weights, weights[:na] + untracked + [dead_counter_weight, 1, 1], [1] * (k + 3)]),
        np.array([radices, radices[:na] + untracked + [len(counted_a) + 1, 1, 1], [1] * (k + 3)]),
        np.arange(k) < np.array([[k], [na], [0]]))

    weighted_tables = [rows.astype(np.int64) * w for rows, w in zip(component_tables, weights)]
    # (component, whether each (state, letter) enters one of its losing sinks)
    lost = [(j, np.array([s in sinks[j] for s in range(len(rows))])[rows])
            for j, rows in enumerate(component_tables) if sinks[j]]
    width = max(radices)  # every digit indexes a row this wide
    rejecting = np.zeros((k, width), dtype=bool)  # co-Buchi components only
    for j, aut in enumerate(components):
        if isinstance(aut.acceptance, CoBuchi):
            rejecting[j, list(aut.acceptance.rejecting)] = True

    def advance(counted: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Awaited column per counter value (0 awaits none); next value per (value, its state)."""
        slots = len(counted) + 1
        return np.array([0] + counted), np.array([[1 % slots] * width] + [
            [(value + 1) % slots if s in components[j].acceptance.accepting else value
             for s in range(width)] for value, j in enumerate(counted, 1)])

    awaited_a, advance_a = advance(counted_a)
    awaited_g, advance_g = advance(counted_g)

    no_letters = np.zeros(table.n_letters, dtype=np.int64)  # broadcasts rows

    def tuple_successors(region: np.ndarray, digits: np.ndarray) -> np.ndarray:
        """The successor tuple of every decoded state under every letter, as a
        key with its control digits at 0."""
        # the digits a collapsed state does not track only feed keys that are replaced
        assumption_part = sum(
            (weighted_tables[j][digits[:, j]] for j in range(na)), no_letters)
        guaranteed = sum(
            (weighted_tables[j][digits[:, j]] for j in range(na, k)), assumption_part)
        assumption_lost = sum((enters[digits[:, j]] for j, enters in lost if j < na),
                              region[:, None] == ASSUMPTION_DEAD)
        guarantee_lost = sum((enters[digits[:, j]] for j, enters in lost if j >= na),
                             region[:, None] != LIVE)
        return np.where(
            assumption_lost, sink_key, np.where(guarantee_lost, live + assumption_part, guaranteed))

    def control_terms(digits: np.ndarray) -> np.ndarray:
        """Per decoded state, the control term of its successors' keys in each
        region: the counters and the flag step from the source state alone."""
        at = np.arange(len(digits))
        awaiting_a, awaiting_g, serviced = digits[:, k], digits[:, k + 1], digits[:, k + 2]
        next_a = advance_a[awaiting_a, digits[at, awaited_a[awaiting_a]]]
        next_g = advance_g[awaiting_g, digits[at, awaited_g[awaiting_g]]]
        rejected = rejecting[np.arange(na, k), digits[:, na:k]].any(1)  # by a guarantee
        serviced = (next_a == 0) | (serviced > rejected)  # a set flag stays unless rejected
        terms = np.zeros((len(digits), 3), dtype=np.int64)  # ASSUMPTION_DEAD keeps none
        terms[:, LIVE] = next_a * weights[k] + next_g * weights[k + 1] + serviced * weights[k + 2]
        terms[:, GUARANTEE_DEAD] = next_a * dead_counter_weight
        return terms

    start = [aut.initial for aut in components]
    if any(start[j] in sinks[j] for j in range(na)):
        initial_key = sink_key
    elif any(start[j] in sinks[j] for j in range(na, k)):
        initial_key = live + sum(s * w for s, w in zip(start[:na], weights))
    else:
        initial_key = sum(s * w for s, w in zip(start, weights))
    try:  # number[key] is the key's state number + 1; 0: not seen yet
        number = np.zeros(sink_key + 1, dtype=np.int32)
    except MemoryError:
        raise CapacityExceeded(
            f"product numbering array for key space {sink_key + 1} does not fit in memory"
        ) from None

    if (sink_key + 1) * table.n_letters <= _SMALL_CELLS:  # step every key in one pass
        every_key = np.arange(sink_key + 1)
        region, digits = key_space.decode(every_key)
        successors = tuple_successors(region, digits)
        successors += control_terms(digits)[every_key[:, None], key_space.regions(successors)]
        keys, transitions = _explore(number, initial_key, successors.__getitem__)
    else:
        # stage 1: the reachable tuples, sorted by key, and their successors
        tuples, tuple_transitions = _explore(
            number, initial_key, lambda frontier: tuple_successors(*key_space.decode(frontier)))
        number[tuples] = 0
        order = tuples.argsort()
        tuple_keys, successor_tuples = tuples[order], tuples[tuple_transitions[order]]
        successor_regions = key_space.regions(successor_tuples)
        # stage 2: a state's control code is its control digits read as one
        # number, in which the digits a dead region does not track read 0;
        # terms[(tuple * codes + code) * 3 + successor region] is a control term
        codes = prod(radices[k:])
        code_weights = key_space.weights[:, k]  # per region, the place value of code 1
        _, digits = key_space.decode(tuple_keys)
        digits = digits.repeat(codes, axis=0)
        digits[:, k:] = np.tile(key_space.decode(np.arange(codes) * weights[k])[1][:, k:],
                                (len(tuple_keys), 1))
        terms = control_terms(digits).ravel()

        def state_successors(frontier: np.ndarray) -> np.ndarray:
            region = key_space.regions(frontier)
            code = (frontier - key_space.bases[region]) // code_weights[region]
            t = tuple_keys.searchsorted(frontier - code * code_weights[region])
            rows = successor_regions[t]
            rows += ((t * codes + code) * 3)[:, None]
            cells = successor_tuples[t]
            cells += terms[rows]
            return cells

        keys, transitions = _explore(number, initial_key, state_successors)

    # colour every state at once; each rule below overrides the ones above it
    region, digits = key_space.decode(keys)
    marked, in_live = rejecting[np.arange(k), digits[:, :k]], region == LIVE
    colours = (digits[:, k] == 0).astype(np.int64)  # 1: the assumption counter is free
    colours[in_live & (digits[:, k + 1] == 0)] = 2  # the guarantee counter is free
    colours[in_live & (digits[:, k + 2] == 1) & marked[:, na:].any(1)] = 3  # serviced; rejected
    colours[marked[:, :na].any(1)] = 4  # a co-Buchi assumption component rejects
    colours[region == ASSUMPTION_DEAD] = 0  # an assumption has failed: the System has won
    transitions.flags.writeable = keys.flags.writeable = False
    return ParityAutomaton(table, len(keys), 0, transitions, tuple(colours.tolist()),
                           keys, key_space)


def _explore(number: np.ndarray, initial_key: int,
             step: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first search from ``initial_key``: the reached keys in
    discovery order, and the transition array over their numbers.
    ``step(frontier)`` gives the successor key of every frontier key under
    every letter.  ``number`` must read 0 for every key; it keeps each
    reached key's number + 1."""
    number[initial_key] = 1
    frontier = np.array([initial_key], dtype=np.int64)
    levels, targets, known = [frontier], [], 1
    while True:
        # number new keys in (source, letter) order, as a FIFO queue would:
        # each fresh key is first marked with the position of its first cell
        cells = step(frontier).ravel()
        numbers = number[cells]
        targets.append(numbers)
        fresh = np.logical_not(numbers).nonzero()[0]
        if not fresh.size:
            break
        if cells.size > _INT32_MAX or known + fresh.size > _INT32_MAX:
            raise CapacityExceeded(
                f"product level of {cells.size} cells after {known} states "
                "overflows int32 state numbers")
        fresh_keys, positions = cells[fresh], fresh.astype(np.int32)
        number[fresh_keys] = _INT32_MAX
        np.minimum.at(number, fresh_keys, positions)
        frontier = cells[positions[number[fresh_keys] == positions]]
        number[frontier] = np.arange(known + 1, known + 1 + frontier.size, dtype=np.int32)
        known += frontier.size
        numbers[fresh] = number[fresh_keys]
        levels.append(frontier)
    keys, transitions = np.concatenate(levels), np.concatenate(targets)
    transitions -= 1  # from numbers + 1
    return keys, transitions.reshape(len(keys), -1)
