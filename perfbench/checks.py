"""Output checks that do not trust the code under test.

Each check compares a returned result with a reference computed apart from
the product and the Zielonka solver: a hand-written verdict, the
progress-measure solver, or the conjunct-by-conjunct lasso oracle run on
words that the benchmark's own simulation of the serialised machine
produces.  None of them compares against a saved copy of earlier output.
"""

from __future__ import annotations

import random

from rabinsynth import (
    Lasso,
    NormalizedSpec,
    build_game,
    build_product,
    lasso_oracle,
    solve_progress_measures,
)


def progress_measure_verdict(spec: NormalizedSpec) -> bool:
    """Realizability as decided by the small-progress-measure solver."""
    pa = build_product(spec)
    game = build_game(pa, spec.inputs, spec.outputs)
    return game.initial in solve_progress_measures(game)


def induced_lassos(
    machine: dict,
    rng: random.Random,
    count: int,
    *,
    max_stem: int = 4,
    max_loop: int = 4,
) -> list[Lasso]:
    """Words the serialised machine produces on random input lassos.

    ``machine`` is the JSON document of ``machine_to_json``.  Letters are
    bitmasks over the inputs followed by the outputs, the order of the
    specification's proposition table.  The machine's state at each loop
    boundary is followed until it repeats, which closes the induced word
    into a lasso.
    """
    names = machine["inputs"] + machine["outputs"]
    bit = {name: 1 << i for i, name in enumerate(names)}
    step: dict[tuple[int, int], tuple[int, int]] = {}
    for t in machine["transitions"]:
        x = sum(bit[n] for n in t["on"])
        step[t["from"], x] = (t["to"], sum(bit[n] for n in t["out"]))
    n_inputs = 1 << len(machine["inputs"])

    def run(state: int, word: list[int]) -> tuple[int, list[int]]:
        letters = []
        for x in word:
            state, y = step[state, x]
            letters.append(x | y)
        return state, letters

    lassos = []
    for _ in range(count):
        stem_in = [rng.randrange(n_inputs) for _ in range(rng.randrange(max_stem + 1))]
        loop_in = [rng.randrange(n_inputs) for _ in range(rng.randrange(1, max_loop + 1))]
        state, stem = run(machine["initial"], stem_in)
        boundary: dict[int, int] = {}
        passes: list[list[int]] = []
        while state not in boundary:
            boundary[state] = len(passes)
            state, letters = run(state, loop_in)
            passes.append(letters)
        first = boundary[state]
        stem += [a for p in passes[:first] for a in p]
        loop = [a for p in passes[first:] for a in p]
        lassos.append(Lasso(tuple(stem), tuple(loop)))
    return lassos


def machine_violations(
    machine: dict,
    spec: NormalizedSpec,
    rng: random.Random,
    count: int,
) -> int:
    """Number of induced words that the lasso oracle rejects."""
    if machine["inputs"] + machine["outputs"] != list(spec.inputs + spec.outputs):
        return count
    return sum(not lasso_oracle(spec, lasso)
               for lasso in induced_lassos(machine, rng, count))


def counterstrategy_ok(document: dict, inputs: tuple[str, ...]) -> bool:
    """Shape of a serialised counterstrategy: it moves at the initial
    vertex, and every move names input propositions only."""
    moves = document["moves"]
    return (any(m["vertex"] == document["initial"] for m in moves)
            and all(set(m["input"]) <= set(inputs) for m in moves))
