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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import prod
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .automata import (
    Buchi,
    CoBuchi,
    OmegaAutomaton,
    Parity,
    transition_table,
    validate,  # unused here; perfbench/tracing.py times product.validate
)
from .boolexpr import ApTable
from .hoa import automaton_from_letter_table


class CapacityExceeded(Exception):
    pass


DEFAULT_STATE_LIMIT = 10_000_000


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


def validate_normalized(spec: NormalizedSpec) -> tuple[ApTable, list[list[list[int]]]]:
    """Check proposition disjointness, conjunct kinds and automaton validity;
    return the joint table and every component's dense transition table."""
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


def _losing_sinks(aut: OmegaAutomaton, rows: Sequence[Sequence[int]]) -> frozenset[int]:
    """Absorbing states in which a conjunct has lost for good: the
    non-accepting ones of a Buchi conjunct, the rejecting ones of a co-Buchi
    conjunct.  ``rows`` is the automaton's dense transition table."""
    acc = aut.acceptance
    return frozenset(
        s for s, row in enumerate(rows)
        if all(t == s for t in row)
        and (s in acc.rejecting if isinstance(acc, CoBuchi) else s not in acc.accepting))


def _takes_counter_slot(aut: OmegaAutomaton, sinks: frozenset[int]) -> bool:
    """Whether a Buchi conjunct needs a slot in its round-robin counter.

    It does not when every state outside its losing sinks is accepting, as in
    every normalised safety conjunct: alive, it accepts at every step; dead,
    it has sent the play to a collapsed region.
    """
    accepting = aut.acceptance.accepting
    return any(s not in accepting and s not in sinks for s in range(aut.n_states))


def control_successor(
    awaiting_assumption: int,
    awaiting_guarantee: int,
    assumptions_serviced: bool,
    assumption_accepting: Sequence[bool],
    guarantee_accepting: Sequence[bool],
    guarantee_rejecting: Sequence[bool],
) -> tuple[int, int, bool]:
    """Advance the control structure by one step.

    The flag vectors describe the *source* state's components: per counted
    Buchi assumption and per counted Buchi guarantee whether the component
    state is accepting, and per co-Buchi guarantee whether it is rejecting.
    Counter value ``i > 0`` waits for the i-th (1-based) counted component;
    the serviced flag reads the already-updated assumption counter.
    """
    n1 = len(assumption_accepting)
    n3 = len(guarantee_accepting)
    if awaiting_assumption == 0 or assumption_accepting[awaiting_assumption - 1]:
        next_assumption = (awaiting_assumption + 1) % (n1 + 1)
    else:
        next_assumption = awaiting_assumption
    if awaiting_guarantee == 0 or guarantee_accepting[awaiting_guarantee - 1]:
        next_guarantee = (awaiting_guarantee + 1) % (n3 + 1)
    else:
        next_guarantee = awaiting_guarantee
    serviced = next_assumption == 0 or (
        assumptions_serviced and not any(guarantee_rejecting))
    return next_assumption, next_guarantee, serviced


def colour_of(state: ProductState, spec: NormalizedSpec) -> int:
    """Colour of a product state, the highest applicable rule below:

    4: some co-Buchi assumption component is rejecting;
    3: serviced flag set and some co-Buchi guarantee component is rejecting;
    2: the guarantee counter sits on its free slot;
    1: the assumption counter sits on its free slot;
    0: otherwise.

    A guarantee-dead state, where some guarantee has already failed, follows
    the assumption rules 4, 1 and 0 only; the assumption-dead state, where
    some assumption has, is coloured 0.
    """
    if state.region == ASSUMPTION_DEAD:
        return 0
    n1 = len(spec.buchi_assumptions)
    comps = state.components
    for j, aut in enumerate(spec.cobuchi_assumptions):
        if comps[n1 + j] in aut.acceptance.rejecting:
            return 4
    if state.region == LIVE:
        if state.assumptions_serviced:
            base = n1 + len(spec.cobuchi_assumptions) + len(spec.buchi_guarantees)
            for j, aut in enumerate(spec.cobuchi_guarantees):
                if comps[base + j] in aut.acceptance.rejecting:
                    return 3
        if state.awaiting_guarantee == 0:
            return 2
    if state.awaiting_assumption == 0:
        return 1
    return 0


@dataclass(frozen=True, eq=False)
class ParityAutomaton:
    """Reachable fragment of the product, densely re-indexed.

    ``transitions`` is a read-only int32 array of shape
    ``(n_states, n_letters)``: ``transitions[s, letter]`` is the successor
    index.  States are numbered in breadth-first discovery order: state 0 is
    the initial state, and reading the array row-major, every new successor
    gets the next free index.  ``colours[s]`` is a Python int and
    ``states[s]`` recovers the underlying product state, region included.
    """

    table: ApTable
    n_states: int
    initial: int
    transitions: np.ndarray
    colours: tuple[int, ...]
    states: tuple[ProductState, ...]


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

    A state is keyed by one int64.  Live keys are mixed-radix numbers over the
    component states, the two counters and the flag, below ``live``.  A
    guarantee-dead key is ``live`` plus a mixed-radix number over the
    assumption components and the assumption counter, and the one
    assumption-dead key comes last.  The whole key space must fit both int64
    and ``state_limit``.  A whole level steps at once: successor keys are a
    gather-and-sum over the radix-weighted component tables plus a control
    term per source state, redirected to a dead region wherever a successor
    component lands in one of its losing sinks.
    """
    table, component_tables = validate_normalized(spec)
    components = spec.components
    k = len(components)
    n1 = len(spec.buchi_assumptions)
    na = n1 + len(spec.cobuchi_assumptions)
    n3 = len(spec.buchi_guarantees)
    sinks = [_losing_sinks(aut, rows) for aut, rows in zip(components, component_tables)]
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

    weighted_tables = [np.array(rows, dtype=np.int64) * w
                       for rows, w in zip(component_tables, weights)]
    lost = []  # (component, whether each (state, letter) enters a losing sink)
    for j, rows in enumerate(component_tables):
        if sinks[j]:
            is_sink = np.zeros(components[j].n_states, dtype=bool)
            is_sink[list(sinks[j])] = True
            lost.append((j, is_sink[np.array(rows)]))
    accepting = {j: components[j].acceptance.accepting for j in counted_a + counted_g}
    rejecting = [(j, aut.acceptance.rejecting)
                 for j, aut in enumerate(spec.cobuchi_guarantees, na + n3)]
    counter_weights = weights[k:]
    radix_row = np.array(radices, dtype=np.int64)
    weight_row = np.array(weights, dtype=np.int64)

    start = [aut.initial for aut in components]
    if any(start[j] in sinks[j] for j in range(na)):
        initial_key = sink_key
    elif any(start[j] in sinks[j] for j in range(na, k)):
        initial_key = live + sum(s * w for s, w in zip(start[:na], weights))
    else:
        initial_key = sum(s * w for s, w in zip(start, weights))
    index = {initial_key: 0}
    frontier = np.array([initial_key], dtype=np.int64)
    states: list[ProductState] = []
    targets: list[int] = []
    no_letters = np.zeros(table.n_letters, dtype=np.int64)  # broadcasts rows
    while len(frontier):
        region = (frontier >= live).astype(np.int64) + (frontier == sink_key)
        offset = frontier - live * (region > 0)
        digits = offset[:, None] // weight_row % radix_row
        dead_awaiting = offset // dead_counter_weight % (len(counted_a) + 1)
        live_control = []
        dead_control = []
        for row, where, awaiting in zip(
                digits.tolist(), region.tolist(), dead_awaiting.tolist()):
            if where == LIVE:
                state = ProductState(tuple(row[:k]), row[k], row[k + 1], bool(row[k + 2]))
            elif where == GUARANTEE_DEAD:
                state = ProductState(tuple(row[:na]), awaiting, 0, False, GUARANTEE_DEAD)
            else:
                state = ProductState((), 0, 0, False, ASSUMPTION_DEAD)
            states.append(state)
            # the control structure reads only the source state; the digits a
            # collapsed state does not track only feed keys that are replaced
            counters = control_successor(
                *state[1:4],
                [row[j] in accepting[j] for j in counted_a],
                [row[j] in accepting[j] for j in counted_g],
                [row[j] in marked for j, marked in rejecting])
            live_control.append(sum(c * w for c, w in zip(counters, counter_weights)))
            dead_control.append(live + counters[0] * dead_counter_weight)
        assumption_part = sum(
            (weighted_tables[j][digits[:, j]] for j in range(na)), no_letters)
        assumed = np.array(dead_control, dtype=np.int64)[:, None] + assumption_part
        guaranteed = sum(
            (weighted_tables[j][digits[:, j]] for j in range(na, k)),
            np.array(live_control, dtype=np.int64)[:, None] + assumption_part)
        guarantee_lost = region[:, None] != LIVE
        assumption_lost = region[:, None] == ASSUMPTION_DEAD
        for j, enters_sink in lost:
            if j < na:
                assumption_lost = assumption_lost | enters_sink[digits[:, j]]
            else:
                guarantee_lost = guarantee_lost | enters_sink[digits[:, j]]
        successors = np.where(
            assumption_lost, sink_key, np.where(guarantee_lost, assumed, guaranteed))
        # number new keys in (source, letter) order, as a FIFO queue would
        known = len(index)
        setdefault = index.setdefault
        targets += [setdefault(key, len(index)) for key in successors.ravel().tolist()]
        fresh = islice(reversed(index), len(index) - known)  # newest first
        frontier = np.array(list(fresh)[::-1], dtype=np.int64)

    transitions = np.array(targets, dtype=np.int32).reshape(len(states), -1)
    transitions.flags.writeable = False
    return ParityAutomaton(
        table=table,
        n_states=len(states),
        initial=0,
        transitions=transitions,
        colours=tuple(colour_of(state, spec) for state in states),
        states=tuple(states),
    )


def product_to_automaton(pa: ParityAutomaton) -> OmegaAutomaton:
    """View of the product as a plain parity automaton (five colour sets)."""
    return automaton_from_letter_table(
        pa.transitions.tolist(),
        pa.initial,
        Parity(pa.colours, 5),
        pa.table,
    )
