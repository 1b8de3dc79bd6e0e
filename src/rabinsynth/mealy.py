"""Mealy machines, their minimisation, and their JSON / DOT serialisations."""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter

from .boolexpr import ApTable
from .graphs import breadth_first


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


def minimise(machine: MealyMachine) -> MealyMachine:
    """The minimal machine with the same input/output behaviour.

    Moore's partition refinement: states start in one block per output row
    and are split by their block and the blocks of their successors until the
    number of blocks stops growing.  The quotient keeps the blocks reachable
    from the initial one, numbered breadth-first in input-letter order.
    """
    return _minimise(machine.inputs, machine.outputs, machine.initial,
                     [tuple(zip(*row)) for row in machine.transitions])


def _minimise(
    inputs: tuple[str, ...],
    outputs: tuple[str, ...],
    initial: int,
    columns: list[tuple],
) -> MealyMachine:
    """:func:`minimise` of the machine whose state ``s`` has the successor
    and output columns ``columns[s]``, each a sequence indexed by input
    letter, the outputs a tuple."""
    # per state: a getter that reads its own block and the blocks of its
    # successors
    signature = [itemgetter(s, *targets) for s, (targets, _) in enumerate(columns)]

    def number(keys: list) -> tuple[list[int], int]:
        ids: dict = {}
        return [ids.setdefault(key, len(ids)) for key in keys], len(ids)

    block, count = number([ys for _, ys in columns])
    while True:
        refined, refined_count = number([of(block) for of in signature])
        if refined_count == count:
            break
        block, count = refined, refined_count

    # one state of each block, with its successor and output columns
    member = dict(zip(block, columns))
    order, rows = breadth_first(
        block[initial], lambda b: [block[t] for t in member[b][0]])
    return MealyMachine(
        inputs=inputs,
        outputs=outputs,
        n_states=len(order),
        initial=0,
        transitions=tuple(tuple(zip(row, member[b][1])) for b, row in zip(order, rows)),
    )


def _letter_names(machine: MealyMachine) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]]]:
    """The sorted proposition names of every input and every output letter."""
    in_table = machine.input_table()
    out_table = machine.output_table()
    return ([in_table.letter_names(x) for x in in_table.letters()],
            [out_table.letter_names(y) for y in out_table.letters()])


def _json_names(names: tuple[str, ...]) -> str:
    # proposition names are identifiers (ApTable checks them): no escapes
    return "[" + ",".join(f'"{name}"' for name in names) + "]"


def machine_to_dict(machine: MealyMachine) -> dict:
    """The machine document :func:`machine_to_json` writes, as a dict."""
    return json.loads(machine_to_json(machine))


def machine_to_json(machine: MealyMachine) -> str:
    """Compact JSON: the header on the first line, one transition per line.

    Each letter's JSON fragment is written once; the rows are formatted from
    the fragments."""
    in_names, out_names = _letter_names(machine)
    on = [f',"on":{_json_names(names)},"to":' for names in in_names]
    out = [f',"out":{_json_names(names)}}}' for names in out_names]
    rows = [f'{{"from":{s}{on[x]}{target}{out[output]}'
            for s, row in enumerate(machine.transitions)
            for x, (target, output) in enumerate(row)]
    return (f'{{"inputs":{_json_names(machine.inputs)},'
            f'"outputs":{_json_names(machine.outputs)},'
            f'"states":{machine.n_states},"initial":{machine.initial},'
            '"transitions":[\n' + ",\n".join(rows) + "\n]}\n")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _letter(table: ApTable, names) -> int:
    if not (isinstance(names, list)
            and all(isinstance(name, str) and name in table for name in names)
            and len(set(names)) == len(names)):
        raise ValueError(f"a transition letter must be a list of distinct "
                         f"propositions among {list(table.names)}, not {names!r}")
    return table.letter(names)


def machine_from_dict(data: dict) -> MealyMachine:
    """Load a machine document; any malformed field raises ``ValueError``.

    The field types and the number of transitions are checked before any
    per-state storage is allocated."""
    if not isinstance(data, dict):
        raise ValueError("machine must be a JSON object")
    for key in ("inputs", "outputs", "transitions"):
        if not isinstance(data.get(key), list):
            raise ValueError(f"missing or malformed {key!r} list")
    for key in ("states", "initial"):
        if not _is_int(data.get(key)):
            raise ValueError(f"{key!r} must be an integer")
    inputs = tuple(data["inputs"])
    outputs = tuple(data["outputs"])
    in_table = ApTable(inputs)
    out_table = ApTable(outputs)
    n_states = data["states"]
    initial = data["initial"]
    entries = data["transitions"]
    if n_states < 1:
        raise ValueError("a machine needs at least one state")
    if len(entries) != n_states << len(inputs):
        raise ValueError(
            f"a machine of {n_states} states over {len(inputs)} input "
            f"propositions needs {n_states << len(inputs)} transitions, "
            f"not {len(entries)}")
    if not 0 <= initial < n_states:
        raise ValueError("initial state out of range")
    n_inputs = 1 << len(inputs)
    rows: list[list[tuple[int, int] | None]] = [
        [None] * n_inputs for _ in range(n_states)]
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError("a transition must be a JSON object")
        source, target = entry.get("from"), entry.get("to")
        if not (_is_int(source) and _is_int(target)):
            raise ValueError("transition endpoints must be integers")
        if not (0 <= source < n_states and 0 <= target < n_states):
            raise ValueError("transition endpoint out of range")
        x = _letter(in_table, entry.get("on"))
        y = _letter(out_table, entry.get("out"))
        if rows[source][x] is not None:
            raise ValueError(f"duplicate transition for state {source}")
        rows[source][x] = (target, y)
    # states << len(inputs) transitions, none duplicated: every state is total
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
    in_names, out_names = _letter_names(machine)
    on = ["{" + ",".join(names) + "} / " for names in in_names]
    out = ["{" + ",".join(names) + "}" for names in out_names]
    lines = ["digraph mealy {", "  rankdir=LR;",
             f'  init [shape=point, label=""];',
             f"  init -> s{machine.initial};"]
    for s in range(machine.n_states):
        lines.append(f'  s{s} [shape=circle, label="{s}"];')
    for s, row in enumerate(machine.transitions):
        for x, (target, output) in enumerate(row):
            lines.append(f'  s{s} -> s{target} [label="{on[x]}{out[output]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
