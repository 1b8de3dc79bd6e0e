"""Instances for differential and property testing: seeded random specs,
games and lassos, and the n-client arbiter family; and a check, independent
of the minimisation, that a machine has no two equivalent states."""

from __future__ import annotations

import random
from collections import deque

import numpy as np

from .automata import Buchi, CoBuchi, Lasso, OmegaAutomaton, OnePairRabin, Safety
from .boolexpr import ApTable
from .game import SynthesisGame
from .ltl import (
    Always,
    NextResponse,
    PatternFormula,
    Persistence,
    Recurrence,
    Response,
    StateInit,
    compile_pattern,
    normalize,
)
from .boolexpr import And, BoolExpr, Lit, Not, Or, Var
from .mealy import MealyMachine
from .pipeline import ConjunctSource, SpecProblem
from .product import NormalizedSpec


def random_bool_expr(rng: random.Random, names: tuple[str, ...], depth: int = 2) -> BoolExpr:
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.1:
            return Lit(rng.random() < 0.5)
        return Var(rng.choice(names))
    op = rng.randrange(3)
    if op == 0:
        return Not(random_bool_expr(rng, names, depth - 1))
    left = random_bool_expr(rng, names, depth - 1)
    right = random_bool_expr(rng, names, depth - 1)
    return And(left, right) if op == 1 else Or(left, right)


def random_pattern(rng: random.Random, names: tuple[str, ...]) -> PatternFormula:
    kind = rng.randrange(6)
    b = random_bool_expr(rng, names)
    if kind == 0:
        return StateInit(b)
    if kind == 1:
        return Always(b)
    if kind == 2:
        return Recurrence(b)
    if kind == 3:
        return Persistence(b)
    b2 = random_bool_expr(rng, names)
    return NextResponse(b, b2) if kind == 4 else Response(b, b2)


def random_letter_automaton(
    rng: random.Random,
    table: ApTable,
    n_states: int,
    acceptance_kind: str,
) -> OmegaAutomaton:
    """Total deterministic automaton with uniformly random letter targets."""
    targets = [[rng.randrange(n_states) for _ in table.letters()]
               for _ in range(n_states)]
    if acceptance_kind == "safety":
        # give violations somewhere to go: the last state becomes absorbing
        sink = n_states - 1
        targets[sink] = [sink] * table.n_letters
        acceptance = Safety()
    elif acceptance_kind == "buchi":
        acceptance = Buchi(_random_subset(rng, n_states))
    elif acceptance_kind == "cobuchi":
        acceptance = CoBuchi(_random_subset(rng, n_states))
    elif acceptance_kind == "rabin":
        acceptance = OnePairRabin(
            persistent=_random_subset(rng, n_states),
            recurrent=_random_subset(rng, n_states))
    else:
        raise ValueError(f"unknown acceptance kind {acceptance_kind!r}")
    return OmegaAutomaton(table, rng.randrange(n_states), targets, acceptance)


def _random_subset(rng: random.Random, n: int) -> frozenset[int]:
    return frozenset(s for s in range(n) if rng.random() < 0.5)


def random_normalized_spec(
    rng: random.Random,
    *,
    max_conjuncts_per_side: int = 2,
    max_component_states: int = 3,
    buchi_only: bool = False,
) -> NormalizedSpec:
    """Random specification over up to three propositions.

    Conjuncts mix compiled patterns with random automata of every supported
    acceptance kind and are normalised through the normal frontend path.
    """
    n_inputs = rng.randrange(1, 3)
    n_outputs = rng.randrange(1, 4 - n_inputs)
    inputs = tuple(f"i{k}" for k in range(n_inputs))
    outputs = tuple(f"o{k}" for k in range(n_outputs))
    table = ApTable(inputs + outputs)

    if buchi_only:
        automaton_kinds = ("buchi", "safety")
        pattern_kinds = (StateInit, Always, Recurrence, NextResponse, Response)
    else:
        automaton_kinds = ("buchi", "cobuchi", "rabin", "safety")
        pattern_kinds = None

    sides: list[list[OmegaAutomaton]] = [[], []]
    for normalised in sides:
        for _ in range(rng.randrange(max_conjuncts_per_side + 1)):
            if rng.random() < 0.5:
                pattern = random_pattern(rng, table.names)
                if pattern_kinds is not None:
                    while not isinstance(pattern, pattern_kinds):
                        pattern = random_pattern(rng, table.names)
                aut = compile_pattern(pattern, table)
            else:
                aut = random_letter_automaton(
                    rng, table, rng.randrange(2, max_component_states + 1),
                    rng.choice(automaton_kinds))
            normalised.extend(normalize(aut))
    return NormalizedSpec.from_conjuncts(inputs, outputs, *sides)


def random_game(
    rng: random.Random,
    *,
    max_states: int = 50,
    max_input_bits: int = 2,
    max_output_bits: int = 2,
    max_colour: int = 4,
) -> SynthesisGame:
    """Random bipartite parity game in the synthesis-game shape."""
    n_states = rng.randrange(1, max_states + 1)
    input_bits = rng.randrange(1, max_input_bits + 1)
    output_bits = rng.randrange(1, max_output_bits + 1)
    names = tuple(f"i{k}" for k in range(input_bits)) + tuple(
        f"o{k}" for k in range(output_bits))
    n_letters = 1 << (input_bits + output_bits)
    transitions = np.array(
        [[rng.randrange(n_states) for _ in range(n_letters)]
         for _ in range(n_states)], dtype=np.int32)
    colours = tuple(rng.randrange(max_colour + 1) for _ in range(n_states))
    return SynthesisGame(
        table=ApTable(names),
        input_bits=input_bits,
        output_bits=output_bits,
        n_states=n_states,
        transitions=transitions,
        state_colours=colours,
        initial=rng.randrange(n_states),
    )


def random_lassos(
    rng: random.Random,
    n_letters: int,
    count: int,
    max_stem: int = 6,
    max_loop: int = 6,
):
    """Seeded random lassos.  Each draws its letters from 1 to 3 letters
    picked at random, so that many avoid whole letter classes for good."""
    for _ in range(count):
        alphabet = rng.sample(range(n_letters), min(n_letters, rng.randint(1, 3)))
        stem = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_stem)))
        loop = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, max_loop)))
        yield Lasso(stem, loop)


def arbiter_problem(n: int, *, unrealizable: bool = False) -> SpecProblem:
    """The n-client request/grant arbiter: ``G F !ri`` assumed; ``G (ri -> F gi)``,
    pairwise ``G !(gi & gj)`` and ``F G (!r0 | ... | g0 | ...)`` guaranteed.

    ``unrealizable`` adds the assumption ``F G (!r0 | !r1)`` and the guarantee
    ``F G !g{n-1}``, which no System strategy meets together with the rest.
    """
    requests = [f"r{i}" for i in range(n)]
    grants = [f"g{i}" for i in range(n)]
    assumptions = [f"G F !{r}" for r in requests]
    guarantees = [f"G ({r} -> F {g})" for r, g in zip(requests, grants)]
    guarantees += [f"G !({grants[i]} & {grants[j]})"
                   for i in range(n) for j in range(i + 1, n)]
    guarantees.append("F G (" + " | ".join([f"!{r}" for r in requests] + grants) + ")")
    if unrealizable:
        assumptions.append("F G (!r0 | !r1)")
        guarantees.append(f"F G !g{n - 1}")
    return SpecProblem(
        tuple(requests), tuple(grants),
        tuple(ConjunctSource(ltl=a) for a in assumptions),
        tuple(ConjunctSource(ltl=g) for g in guarantees))


def distinguishable_pairs(machine: MealyMachine) -> set[tuple[int, int]]:
    """The pairs ``(p, q)``, ``p < q``, of states that some input word makes
    emit different outputs.

    A breadth-first search over state pairs, backwards from the pairs whose
    outputs differ on one input letter: a pair reaches such a pair on some
    input word exactly when it is reached.  A machine is minimal iff every
    pair of its states is returned."""
    rows = machine.transitions
    found: set[tuple[int, int]] = set()
    into: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for p in range(machine.n_states):
        for q in range(p + 1, machine.n_states):
            for (tp, yp), (tq, yq) in zip(rows[p], rows[q]):
                if yp != yq:
                    found.add((p, q))
                elif tp != tq:
                    into.setdefault((min(tp, tq), max(tp, tq)), []).append((p, q))
    queue = deque(found)
    while queue:
        for pair in into.get(queue.popleft(), ()):
            if pair not in found:
                found.add(pair)
                queue.append(pair)
    return found
