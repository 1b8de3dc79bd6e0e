"""Mealy machines and their JSON / DOT serialisations."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .boolexpr import ApTable


@dataclass(frozen=True)
class MealyMachine:
    """Finite-state transducer: each cycle reads an input letter and emits an
    output letter.  ``transitions[s][x]`` is the ``(successor, output)`` pair;
    letters are bitmasks over the respective proposition list."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    n_states: int
    initial: int
    transitions: tuple[tuple[tuple[int, int], ...], ...]

    def input_table(self) -> ApTable:
        return ApTable(self.inputs)

    def output_table(self) -> ApTable:
        return ApTable(self.outputs)


def machine_to_dict(machine: MealyMachine) -> dict:
    in_table = machine.input_table()
    out_table = machine.output_table()
    transitions = []
    for s in range(machine.n_states):
        for x in range(1 << len(machine.inputs)):
            target, output = machine.transitions[s][x]
            transitions.append({
                "from": s,
                "on": list(in_table.letter_names(x)),
                "to": target,
                "out": list(out_table.letter_names(output)),
            })
    return {
        "inputs": list(machine.inputs),
        "outputs": list(machine.outputs),
        "states": machine.n_states,
        "initial": machine.initial,
        "transitions": transitions,
    }


def machine_to_json(machine: MealyMachine) -> str:
    """Compact JSON: the header on the first line, one transition per line."""
    data = machine_to_dict(machine)
    rows = [json.dumps(t, separators=(",", ":")) for t in data.pop("transitions")]
    header = json.dumps(data, separators=(",", ":"))[:-1]
    return header + ',"transitions":[\n' + ",\n".join(rows) + "\n]}\n"


def machine_from_dict(data: dict) -> MealyMachine:
    inputs = tuple(data["inputs"])
    outputs = tuple(data["outputs"])
    in_table = ApTable(inputs)
    out_table = ApTable(outputs)
    n_states = int(data["states"])
    initial = int(data["initial"])
    n_inputs = 1 << len(inputs)
    rows: list[list[tuple[int, int] | None]] = [
        [None] * n_inputs for _ in range(n_states)]
    for entry in data["transitions"]:
        source = int(entry["from"])
        target = int(entry["to"])
        if not (0 <= source < n_states and 0 <= target < n_states):
            raise ValueError("transition endpoint out of range")
        x = in_table.letter(entry["on"])
        y = out_table.letter(entry["out"])
        if rows[source][x] is not None:
            raise ValueError(f"duplicate transition for state {source}")
        rows[source][x] = (target, y)
    for s, row in enumerate(rows):
        if any(cell is None for cell in row):
            raise ValueError(f"state {s} is not total over the input alphabet")
    if not 0 <= initial < n_states:
        raise ValueError("initial state out of range")
    return MealyMachine(
        inputs=inputs,
        outputs=outputs,
        n_states=n_states,
        initial=initial,
        transitions=tuple(tuple(row) for row in rows),  # type: ignore[arg-type]
    )


def machine_from_json(text: str) -> MealyMachine:
    return machine_from_dict(json.loads(text))


def machine_to_dot(machine: MealyMachine) -> str:
    in_table = machine.input_table()
    out_table = machine.output_table()

    def letter_label(names: tuple[str, ...]) -> str:
        return "{" + ",".join(names) + "}"

    lines = ["digraph mealy {", "  rankdir=LR;",
             f'  init [shape=point, label=""];',
             f"  init -> s{machine.initial};"]
    for s in range(machine.n_states):
        lines.append(f'  s{s} [shape=circle, label="{s}"];')
    for s in range(machine.n_states):
        for x in range(1 << len(machine.inputs)):
            target, output = machine.transitions[s][x]
            label = (letter_label(in_table.letter_names(x)) + " / "
                     + letter_label(out_table.letter_names(output)))
            lines.append(f'  s{s} -> s{target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
