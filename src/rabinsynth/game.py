"""Two-player game view of a parity automaton.

The Environment picks an input letter at an automaton-state vertex, the System
answers with an output letter at an intermediate (state, input) vertex, and
the automaton steps on the combined letter.  The System wins a play iff the
maximum colour seen infinitely often among automaton-state vertices is even;
intermediate vertices carry the neutral colour 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def arena(self) -> Arena:
        """The game as integer arrays, built on first reading."""
        return Arena(self)


class Arena:
    """The game as integer arrays.  Player ``p`` owns the vertices in
    ``span[p]``, Environment vertices first.

    Moves, one per letter: ``succ_flat[succ_ptr[v]:succ_ptr[v + 1]]`` holds
    the move targets of vertex ``v`` by letter, ``degree[v]`` (int32) moves;
    ``succ[p]`` views the same storage as a table, ``succ[p][v - span[p].start]``
    the row of ``p``'s vertex ``v``.  Strategies are letters of these rows.

    Edges, one per distinct (source, target) pair, however many letters make
    the move: ``pred_src[pred_ptr[v]:pred_ptr[v + 1]]`` lists the distinct
    sources of the edges into ``v`` (``pred_count[v]`` of them), ascending,
    and ``succ_count[v]`` (int32) is the number of distinct targets of ``v``.

    ``owned[p]`` marks ``p``'s vertices, and ``sign[p]`` is -1 on them and 1
    elsewhere.
    """

    def __init__(self, game: SynthesisGame):
        self.n_env = n_env = game.n_env_vertices
        n_system = game.n_system_vertices
        self.n = n = n_env + n_system
        self.span = (slice(0, n_env), slice(n_env, n))
        self.owner = np.repeat(np.int8([ENVIRONMENT, SYSTEM]), [n_env, n_system])
        self.owned = (self.owner == ENVIRONMENT, self.owner == SYSTEM)
        self.sign = tuple(np.where(mine, -1, 1) for mine in self.owned)
        self.colour = np.zeros(n, dtype=np.int8)
        self.colour[:n_env] = game.state_colours
        # the Environment rows list the System vertices in order; the System
        # rows, each vertex's targets by output letter
        system = game.transitions.reshape(
            game.n_states, game.n_outputs, game.n_inputs).transpose(0, 2, 1)
        self.succ_flat = np.concatenate([np.arange(n_env, n), system.ravel()])
        self.succ = (self.succ_flat[:n_system].reshape(n_env, game.n_inputs),
                     self.succ_flat[n_system:].reshape(n_system, game.n_outputs))
        self.degree = np.repeat(np.int32([game.n_inputs, game.n_outputs]), [n_env, n_system])
        self.succ_ptr = np.concatenate([[0], self.degree.cumsum()])
        # one in-place sort of the (target, source) keys of all moves; a key
        # repeats once per further letter to the same target, so dropping
        # the repeats leaves the edges.  They go back into the first buffer,
        # as large as with one entry per letter: a smaller array of their
        # own changed the heap that a later oracle run in the same process
        # allocates from, and cost that run page faults (measured)
        sources = np.repeat(np.arange(n), self.degree)
        keys = np.multiply(self.succ_flat, n, dtype=np.int64)
        keys += sources
        keys.sort()
        first = np.concatenate([[True], keys[1:] != keys[:-1]])
        keys = np.compress(first, keys, out=sources[:np.count_nonzero(first)])
        self.pred_ptr = np.searchsorted(keys, np.arange(0, n * n + 1, n))
        self.pred_count = np.diff(self.pred_ptr)
        keys %= n
        self.pred_src = keys
        self.succ_count = np.bincount(keys, minlength=n).astype(np.int32)

    def successors(self, vertices: np.ndarray, player: int) -> np.ndarray:
        """Move-target rows of vertices that all belong to ``player``."""
        return self.succ[player][vertices - self.span[player].start]


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
