"""Two-player game view of a parity automaton.

The Environment picks an input letter at an automaton-state vertex, the System
answers with an output letter at an intermediate (state, input) vertex, and
the automaton steps on the combined letter.  The System wins a play iff the
maximum colour seen infinitely often among automaton-state vertices is even;
intermediate vertices carry the neutral colour 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolexpr import ApTable
from .product import ParityAutomaton

#: Vertex owners.  The Environment moves at state vertices, the System at
#: (state, input) vertices.
ENVIRONMENT = 0
SYSTEM = 1


@dataclass(frozen=True, eq=False)
class SynthesisGame:
    """Bipartite letter-labelled parity game.

    Vertices ``0 .. n_states-1`` are Environment vertices (one per automaton
    state); vertex ``n_states + (q << input_bits) + x`` is the System vertex
    reached from state ``q`` by input ``x``.

    ``transitions`` is a read-only int32 array of shape
    ``(n_states, n_letters)``: ``transitions[q, x | y << input_bits]`` is the
    state reached from ``q`` on input ``x`` and output ``y``.  A game built
    from a product shares the product's array, and with it the product's
    state numbering; any other row table given is converted to such an array.
    """

    table: ApTable
    input_bits: int
    output_bits: int
    n_states: int
    transitions: np.ndarray
    state_colours: tuple[int, ...]
    initial: int

    def __post_init__(self) -> None:
        transitions = np.asarray(self.transitions, dtype=np.int32).view()
        transitions.flags.writeable = False
        object.__setattr__(self, "transitions", transitions)

    @property
    def n_inputs(self) -> int:
        return 1 << self.input_bits

    @property
    def n_outputs(self) -> int:
        return 1 << self.output_bits

    @property
    def n_env_vertices(self) -> int:
        return self.n_states

    @property
    def n_system_vertices(self) -> int:
        return self.n_states << self.input_bits

    @property
    def n_vertices(self) -> int:
        return self.n_env_vertices + self.n_system_vertices

    def successor_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Move targets indexed by move letter, rows in vertex order: one table
        for the Environment vertices, one for the System vertices."""
        env = self.n_states + np.arange(self.n_system_vertices).reshape(
            self.n_states, self.n_inputs)
        system = self.transitions.reshape(
            self.n_states, self.n_outputs, self.n_inputs).transpose(0, 2, 1)
        return env, system.reshape(self.n_system_vertices, self.n_outputs)


def build_game(pa: ParityAutomaton, inputs, outputs) -> SynthesisGame:
    """Split the product alphabet into choices of the two players."""
    inputs = tuple(inputs)
    outputs = tuple(outputs)
    if pa.table.names != inputs + outputs:
        raise ValueError(
            "parity automaton table must list the inputs followed by the outputs")
    return SynthesisGame(
        table=pa.table,
        input_bits=len(inputs),
        output_bits=len(outputs),
        n_states=pa.n_states,
        transitions=pa.transitions,
        state_colours=pa.colours,
        initial=pa.initial,
    )
