"""Parity product of classified Buchi/co-Buchi conjuncts.

The product runs every conjunct automaton in parallel and adds a small control
structure: a round-robin counter over the Buchi assumptions, one over the
Buchi guarantees, and a flag remembering whether all Buchi assumptions were
recently serviced.  Colouring the resulting states with at most five colours
(0..4) turns implication-shaped specifications into a deterministic parity
automaton: a word is accepted exactly when some assumption conjunct rejects it
or every guarantee conjunct accepts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
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
from .ltl import ClassifiedConjunct


class CapacityExceeded(Exception):
    pass


DEFAULT_STATE_LIMIT = 10_000_000


@dataclass(frozen=True)
class NormalizedSpec:
    """Implication-shaped specification with classified conjunct automata.

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
    def from_classified(
        cls,
        inputs: Iterable[str],
        outputs: Iterable[str],
        conjuncts: Sequence[ClassifiedConjunct],
    ) -> NormalizedSpec:
        """Sort classified conjuncts into the four sets, keeping their order."""
        def pick(role: str, kind: str) -> tuple[OmegaAutomaton, ...]:
            return tuple(c.automaton for c in conjuncts
                         if c.role == role and c.kind == kind)

        return cls(
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            buchi_assumptions=pick("assumption", "buchi"),
            cobuchi_assumptions=pick("assumption", "cobuchi"),
            buchi_guarantees=pick("guarantee", "buchi"),
            cobuchi_guarantees=pick("guarantee", "cobuchi"),
        )

    def table(self) -> ApTable:
        return ApTable(tuple(self.inputs) + tuple(self.outputs))

    @property
    def components(self) -> tuple[OmegaAutomaton, ...]:
        return (self.buchi_assumptions + self.cobuchi_assumptions
                + self.buchi_guarantees + self.cobuchi_guarantees)

    @property
    def n_buchi_assumptions(self) -> int:
        return len(self.buchi_assumptions)

    @property
    def n_cobuchi_assumptions(self) -> int:
        return len(self.cobuchi_assumptions)

    @property
    def n_buchi_guarantees(self) -> int:
        return len(self.buchi_guarantees)


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


class ProductState(NamedTuple):
    """One product state: component states plus the control structure."""

    components: tuple[int, ...]
    awaiting_assumption: int     # 0..n_buchi_assumptions, 0 = free increment slot
    awaiting_guarantee: int      # 0..n_buchi_guarantees
    assumptions_serviced: bool


def control_successor(
    awaiting_assumption: int,
    awaiting_guarantee: int,
    assumptions_serviced: bool,
    assumption_accepting: Sequence[bool],
    guarantee_accepting: Sequence[bool],
    guarantee_rejecting: Sequence[bool],
) -> tuple[int, int, bool]:
    """Advance the control structure by one step.

    The flag vectors describe the *source* state's components: per Buchi
    assumption and per Buchi guarantee whether the component state is
    accepting, and per co-Buchi guarantee whether it is rejecting.  Counter
    value ``i > 0`` waits for the i-th (1-based) component; the serviced flag
    reads the already-updated assumption counter.
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
    """
    n1 = spec.n_buchi_assumptions
    n2 = spec.n_cobuchi_assumptions
    n3 = spec.n_buchi_guarantees
    comps = state.components
    for j, aut in enumerate(spec.cobuchi_assumptions):
        if comps[n1 + j] in aut.acceptance.rejecting:
            return 4
    if state.assumptions_serviced:
        base = n1 + n2 + n3
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
    ``states[s]`` recovers the underlying product state.
    """

    table: ApTable
    n_states: int
    initial: int
    transitions: np.ndarray
    colours: tuple[int, ...]
    states: tuple[ProductState, ...]
    spec: NormalizedSpec


def raw_product_bound(spec: NormalizedSpec) -> int:
    """Size of the unrestricted product state space."""
    bound = (spec.n_buchi_assumptions + 1) * (spec.n_buchi_guarantees + 1) * 2
    for aut in spec.components:
        bound *= aut.n_states
    return bound


def build_product(
    spec: NormalizedSpec,
    *,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> ParityAutomaton:
    """Breadth-first construction of the reachable parity product.

    A state is keyed by one mixed-radix integer (component states, the two
    counters, the flag) below :func:`raw_product_bound`, which must fit int64.
    A whole level steps at once: successor keys are a gather-and-sum over the
    radix-weighted component tables plus a control term per source state.
    """
    table, component_tables = validate_normalized(spec)
    bound = raw_product_bound(spec)
    limit = min(state_limit, np.iinfo(np.int64).max)  # state keys are int64
    if bound > limit:
        raise CapacityExceeded(
            f"product bound {bound} exceeds the configured limit {limit}")

    components = spec.components
    k = len(components)
    n1 = spec.n_buchi_assumptions
    n2 = spec.n_cobuchi_assumptions
    n3 = spec.n_buchi_guarantees
    radices = np.array([aut.n_states for aut in components] + [n1 + 1, n3 + 1, 2],
                       dtype=np.int64)
    weights = np.cumprod(radices) // radices
    weighted_tables = [np.array(rows, dtype=np.int64) * w
                       for rows, w in zip(component_tables, weights)]
    control_weights = weights[k:].tolist()

    initial_key = sum(aut.initial * w for aut, w in zip(components, weights.tolist()))
    index = {initial_key: 0}
    frontier = np.array([initial_key], dtype=np.int64)
    states: list[ProductState] = []
    targets: list[int] = []
    no_letters = np.zeros(table.n_letters, dtype=np.int64)  # broadcasts rows
    while len(frontier):
        digits = frontier[:, None] // weights % radices
        control = []
        for row in digits.tolist():
            comps = tuple(row[:k])
            state = ProductState(comps, row[k], row[k + 1], bool(row[k + 2]))
            states.append(state)
            # the control structure reads only the source state
            counters = control_successor(
                *state[1:],
                [s in aut.acceptance.accepting
                 for aut, s in zip(spec.buchi_assumptions, comps)],
                [s in aut.acceptance.accepting
                 for aut, s in zip(spec.buchi_guarantees, comps[n1 + n2:])],
                [s in aut.acceptance.rejecting
                 for aut, s in zip(spec.cobuchi_guarantees, comps[n1 + n2 + n3:])])
            control.append(sum(c * w for c, w in zip(counters, control_weights)))
        successors = np.array(control, dtype=np.int64)[:, None] + no_letters
        for j, weighted in enumerate(weighted_tables):
            successors += weighted[digits[:, j]]
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
        spec=spec,
    )


def product_to_automaton(pa: ParityAutomaton) -> OmegaAutomaton:
    """View of the product as a plain parity automaton (five colour sets)."""
    return automaton_from_letter_table(
        pa.transitions.tolist(),
        pa.initial,
        Parity(pa.colours, 5),
        pa.table,
    )
