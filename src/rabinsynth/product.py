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

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .automata import (
    Buchi,
    CoBuchi,
    OmegaAutomaton,
    Parity,
    ValidationError,
    transition_table,
    validate,
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

    @property
    def n_cobuchi_guarantees(self) -> int:
        return len(self.cobuchi_guarantees)


def validate_normalized(spec: NormalizedSpec) -> ApTable:
    """Check proposition disjointness, conjunct kinds and automaton validity."""
    if set(spec.inputs) & set(spec.outputs):
        raise ValueError("input and output propositions must be disjoint")
    table = spec.table()
    for aut in spec.buchi_assumptions + spec.buchi_guarantees:
        if not isinstance(aut.acceptance, Buchi):
            raise ValueError("expected Buchi acceptance in a Buchi conjunct set")
    for aut in spec.cobuchi_assumptions + spec.cobuchi_guarantees:
        if not isinstance(aut.acceptance, CoBuchi):
            raise ValueError("expected co-Buchi acceptance in a co-Buchi conjunct set")
    for aut in spec.components:
        issues = validate(aut, table)
        if issues:
            raise ValidationError(issues)
    return table


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


@dataclass(frozen=True)
class ParityAutomaton:
    """Reachable fragment of the product, densely re-indexed.

    ``transitions[s][letter]`` is the successor index; ``states[s]`` recovers
    the underlying product state.
    """

    table: ApTable
    n_states: int
    initial: int
    transitions: tuple[tuple[int, ...], ...]
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
    """Breadth-first construction of the reachable parity product."""
    table = validate_normalized(spec)
    bound = raw_product_bound(spec)
    if bound > state_limit:
        raise CapacityExceeded(
            f"product bound {bound} exceeds the configured limit {state_limit}")

    components = spec.components
    tables = [transition_table(aut, table) for aut in components]
    n1 = spec.n_buchi_assumptions
    n2 = spec.n_cobuchi_assumptions
    n3 = spec.n_buchi_guarantees
    assumption_accepting = [
        tuple(s in aut.acceptance.accepting for s in range(aut.n_states))
        for aut in spec.buchi_assumptions]
    guarantee_accepting = [
        tuple(s in aut.acceptance.accepting for s in range(aut.n_states))
        for aut in spec.buchi_guarantees]
    guarantee_rejecting = [
        tuple(s in aut.acceptance.rejecting for s in range(aut.n_states))
        for aut in spec.cobuchi_guarantees]

    initial = ProductState(
        components=tuple(aut.initial for aut in components),
        awaiting_assumption=0,
        awaiting_guarantee=0,
        assumptions_serviced=False,
    )
    index: dict[ProductState, int] = {initial: 0}
    order: list[ProductState] = [initial]
    transitions: list[list[int]] = []
    queue = deque([initial])
    letters = range(table.n_letters)
    while queue:
        state = queue.popleft()
        comps = state.components
        a_flags = [assumption_accepting[j][comps[j]] for j in range(n1)]
        g_flags = [guarantee_accepting[j][comps[n1 + n2 + j]] for j in range(n3)]
        d_flags = [guarantee_rejecting[j][comps[n1 + n2 + n3 + j]]
                   for j in range(spec.n_cobuchi_guarantees)]
        # the control structure reads only the source state
        counters = control_successor(
            state.awaiting_assumption, state.awaiting_guarantee,
            state.assumptions_serviced, a_flags, g_flags, d_flags)
        row = []
        for letter in letters:
            next_comps = tuple(
                tables[j][comps[j]][letter] for j in range(len(components)))
            successor = ProductState(next_comps, *counters)
            target = index.get(successor)
            if target is None:
                target = len(order)
                index[successor] = target
                order.append(successor)
                queue.append(successor)
            row.append(target)
        transitions.append(row)

    return ParityAutomaton(
        table=table,
        n_states=len(order),
        initial=0,
        transitions=tuple(tuple(row) for row in transitions),
        colours=tuple(colour_of(s, spec) for s in order),
        states=tuple(order),
        spec=spec,
    )


def product_to_automaton(pa: ParityAutomaton) -> OmegaAutomaton:
    """View of the product as a plain parity automaton (five colour sets)."""
    return automaton_from_letter_table(
        [list(row) for row in pa.transitions],
        pa.initial,
        Parity(pa.colours, 5),
        pa.table,
    )
