"""Specification documents for the benchmark workloads.

Every workload is handed to the program as spec documents on disk, the form
``rabinsynth synth`` reads: pattern formulas as text and automata as inline
HOA, so the front-end parsers do their share of the work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from rabinsynth import ApTable, emit_hoa, format_pattern
from rabinsynth.rand import random_letter_automaton, random_pattern


def arbiter_document(n: int, *, unrealizable: bool = False) -> dict:
    """The n-client request/grant arbiter of the ROADMAP.

    With ``unrealizable`` it gains the co-Buchi assumption ``F G (!r0 | !r1)``
    and the co-Buchi guarantee ``F G !g{n-1}``: the Environment can hold
    ``r0`` low and toggle ``r{n-1}``, which meets every assumption while
    ``G (r{n-1} -> F g{n-1})`` and ``F G !g{n-1}`` cannot both hold.
    """
    requests = [f"r{i}" for i in range(n)]
    grants = [f"g{i}" for i in range(n)]
    assumptions = [{"ltl": f"G F !{r}"} for r in requests]
    guarantees = [{"ltl": f"G ({r} -> F {g})"} for r, g in zip(requests, grants)]
    guarantees += [{"ltl": f"G !({grants[i]} & {grants[j]})"}
                   for i in range(n) for j in range(i + 1, n)]
    idle = " | ".join([f"!{r}" for r in requests] + grants)
    guarantees.append({"ltl": f"F G ({idle})"})
    if unrealizable:
        assumptions.append({"ltl": "F G (!r0 | !r1)"})
        guarantees.append({"ltl": f"F G !g{n - 1}"})
    return {"inputs": requests, "outputs": grants,
            "assumptions": assumptions, "guarantees": guarantees}


_AUTOMATON_KINDS = ("buchi", "cobuchi", "rabin", "safety")

#: (inputs, outputs, assumptions, guarantees) in the proportions in which
#: ``rabinsynth.rand.random_normalized_spec`` draws them: one input and one
#: output, one input and two outputs, or two inputs and one output with
#: probabilities 1/4, 1/4, 1/2; zero to two conjuncts on each side.
SHAPES = tuple((i, o, a, g)
               for i, o in ((1, 1), (1, 2), (2, 1), (2, 1))
               for a in range(3) for g in range(3))


def random_document(rng: random.Random, shape: tuple[int, int, int, int]) -> dict:
    """A random spec of the given shape.

    Each conjunct is, with equal odds, a random pattern formula or a random
    automaton with two or three states and one of the four acceptance kinds,
    as in ``rabinsynth.rand.random_normalized_spec``, but kept as source
    text instead of a normalised automaton.  Cycling through :data:`SHAPES`
    fixes the batch's shape mix, so the seed varies only the conjuncts.
    """
    n_inputs, n_outputs, n_assumptions, n_guarantees = shape
    inputs = [f"i{k}" for k in range(n_inputs)]
    outputs = [f"o{k}" for k in range(n_outputs)]
    table = ApTable(tuple(inputs + outputs))
    doc: dict = {"inputs": inputs, "outputs": outputs}
    for side, count in (("assumptions", n_assumptions), ("guarantees", n_guarantees)):
        conjuncts = []
        for _ in range(count):
            if rng.random() < 0.5:
                conjuncts.append(
                    {"ltl": format_pattern(random_pattern(rng, table.names))})
            else:
                aut = random_letter_automaton(
                    rng, table, rng.randrange(2, 4), rng.choice(_AUTOMATON_KINDS))
                conjuncts.append({"hoa": emit_hoa(aut, table)})
        doc[side] = conjuncts
    return doc


def corpus_specs(root: Path) -> list[Path]:
    """The shipped corpus specs, each with an ``.expected.json`` verdict."""
    return sorted(p for p in (root / "corpus").glob("*.json")
                  if not p.name.endswith(".expected.json"))


def expected_verdict(path: Path) -> bool:
    sidecar = path.with_name(path.name.replace(".json", ".expected.json"))
    return json.loads(sidecar.read_text(encoding="utf-8"))["realizable"]


def write_document(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path
