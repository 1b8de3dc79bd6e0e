"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: guards are
evaluated letter by letter instead of as letter sets, automata are read over
a larger table one letter at a time by proposition name, lasso verdicts
are computed by long-run simulation instead of boundary cycle detection,
pattern semantics are decided by direct position analysis on the lasso,
parity games are solved by a FIFO worklist attractor over Python lists,
cycles of a given maximum colour are found by one breadth-first walk per
vertex and strategies certified on them,
the parity product is built by a breadth-first search over ``ProductState``
values one state and one letter at a time, and machine files are written
with one ``json.dumps`` per transition.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import deque

import numpy as np

from rabinsynth.automata import (
    Buchi,
    CoBuchi,
    Lasso,
    MissingEdge,
    NondeterministicEdge,
    OmegaAutomaton,
    OnePairRabin,
    Parity,
    Safety,
)
from rabinsynth.boolexpr import (
    And, ApTable, BoolExpr, Iff, Implies, Lit, Not, Or, TRUE, Var)
from rabinsynth.game import ENVIRONMENT, SYSTEM, SynthesisGame
from rabinsynth.ltl import (
    Always,
    NextResponse,
    Persistence,
    Recurrence,
    Response,
    StateInit,
)
from rabinsynth.mealy import MealyMachine
from rabinsynth.product import (
    ASSUMPTION_DEAD,
    GUARANTEE_DEAD,
    LIVE,
    NormalizedSpec,
    ProductState,
)
from rabinsynth.solvers import Solution


def evaluate(expr: BoolExpr, letter: int, table: ApTable) -> bool:
    """Evaluate ``expr`` under the assignment encoded by ``letter``; the
    per-letter reference for ``letter_set``."""
    match expr:
        case Var(name):
            return bool(letter >> table.bit(name) & 1)
        case Not(arg):
            return not evaluate(arg, letter, table)
        case And(left, right):
            return evaluate(left, letter, table) and evaluate(right, letter, table)
        case Or(left, right):
            return evaluate(left, letter, table) or evaluate(right, letter, table)
        case Lit(value):
            return value
        case Implies(left, right):
            return not evaluate(left, letter, table) or evaluate(right, letter, table)
        case Iff(left, right):
            return evaluate(left, letter, table) == evaluate(right, letter, table)
    raise TypeError(f"not a boolean expression: {expr!r}")


def guard_table(edges, table: ApTable) -> list[list[int]]:
    """The letter table of guard-labelled edges (``edges[s]`` lists the
    ``(guard, target)`` pairs of state ``s``), every guard evaluated on every
    letter."""
    rows = []
    for s, state_edges in enumerate(edges):
        row = []
        for letter in table.letters():
            targets = [t for g, t in state_edges if evaluate(g, letter, table)]
            assert len(targets) == 1, f"state {s} letter {letter}: {targets}"
            row.append(targets[0])
        rows.append(row)
    return rows


def letter_edges(edges, table: ApTable) -> tuple:
    """Guard-labelled edges (``edges[s]`` lists the ``(guard, target)`` pairs
    of state ``s``) as the ``(letter set, target)`` pairs that
    :meth:`OmegaAutomaton.from_edges` reads, every guard evaluated on every
    letter."""
    return tuple(tuple((sum(1 << letter for letter in table.letters()
                            if evaluate(g, letter, table)), t) for g, t in state_edges)
                 for state_edges in edges)


def guard_issues(edges, table: ApTable) -> list:
    """Determinism and totality issues found by evaluating every guard on
    every letter, state by state and letter by letter."""
    issues = []
    for s, state_edges in enumerate(edges):
        for letter in table.letters():
            hits = [t for g, t in state_edges if evaluate(g, letter, table)]
            if len(hits) != 1:
                issues.append((NondeterministicEdge if hits else MissingEdge)(s, letter))
    return issues


def minterm_edges(aut: OmegaAutomaton) -> tuple:
    """Guard-labelled edges of an automaton's letter table: per state, one
    edge per letter, guarded by the letter's minterm over ``aut.table``."""
    def minterm(letter: int) -> BoolExpr:
        guard: BoolExpr = TRUE
        for i, name in enumerate(aut.table.names):
            guard = And(guard, Var(name) if letter >> i & 1 else Not(Var(name)))
        return guard

    return tuple(tuple((minterm(letter), t) for letter, t in enumerate(row))
                 for row in aut.targets.tolist())


def letter_table(aut: OmegaAutomaton, table: ApTable) -> list[list[int]]:
    """The automaton's successors over ``table``, whose names include its
    own: each letter is read by proposition name, one letter at a time."""
    own = [aut.table.letter(n for n in table.letter_names(letter) if n in aut.table)
           for letter in table.letters()]
    return [[row[a] for a in own] for row in aut.targets.tolist()]


def same_automaton(a: OmegaAutomaton, b: OmegaAutomaton) -> bool:
    """Equal tables, initial states, letter tables and acceptance."""
    return (a.table == b.table and a.initial == b.initial
            and a.targets.tolist() == b.targets.tolist() and a.acceptance == b.acceptance)


def naive_inf_set(tt: list[list[int]], initial: int, lasso: Lasso) -> frozenset[int]:
    """Infinitely visited states via plain long-run simulation.

    Runs the loop for 2n passes; the states entered during the last n passes
    are exactly the recurring ones (the boundary sequence is periodic after at
    most n passes and its period is at most n).
    """
    n = len(tt)
    state = initial
    for a in lasso.stem:
        state = tt[state][a]
    visits: list[int] = []
    for _ in range(2 * n):
        for a in lasso.loop:
            state = tt[state][a]
            visits.append(state)
    return frozenset(visits[len(visits) // 2:])


def naive_verdict(acceptance, inf: frozenset[int]) -> bool:
    if isinstance(acceptance, Safety):
        return True
    if isinstance(acceptance, Buchi):
        return len(inf & acceptance.accepting) > 0
    if isinstance(acceptance, CoBuchi):
        return len(inf & acceptance.rejecting) == 0
    if isinstance(acceptance, OnePairRabin):
        return inf.issubset(acceptance.persistent) and len(
            inf & acceptance.recurrent) > 0
    if isinstance(acceptance, Parity):
        return max(acceptance.colours[s] for s in inf) % 2 == 0
    raise TypeError(acceptance)


def naive_lasso_verdict(aut: OmegaAutomaton, lasso: Lasso, table: ApTable) -> bool:
    tt = letter_table(aut, table)
    return naive_verdict(aut.acceptance, naive_inf_set(tt, aut.initial, lasso))


def never_enters(
    tt: list[list[int]], initial: int, lasso: Lasso, bad: frozenset[int],
    passes: int | None = None,
) -> bool:
    """Whether the run avoids ``bad`` forever (simulates until it must cycle)."""
    n = len(tt)
    state = initial
    if state in bad:
        return False
    for a in lasso.stem:
        state = tt[state][a]
        if state in bad:
            return False
    for _ in range(passes if passes is not None else n + 1):
        for a in lasso.loop:
            state = tt[state][a]
            if state in bad:
                return False
    return True


def all_lassos(table: ApTable, max_stem: int, max_loop: int):
    letters = list(table.letters())
    for stem_len in range(max_stem + 1):
        for stem in itertools.product(letters, repeat=stem_len):
            for loop_len in range(1, max_loop + 1):
                for loop in itertools.product(letters, repeat=loop_len):
                    yield Lasso(stem, loop)


def pattern_holds(pattern, lasso: Lasso, table: ApTable) -> bool:
    """Direct semantics of the supported patterns on an ultimately periodic
    word, decided by stem and loop position analysis."""
    stem_len = len(lasso.stem)
    loop_len = len(lasso.loop)
    total = stem_len + loop_len

    def sat(b, i: int) -> bool:
        return evaluate(b, lasso.letter_at(i), table)

    match pattern:
        case StateInit(b):
            return sat(b, 0)
        case Always(b):
            return all(sat(b, i) for i in range(total))
        case Recurrence(b):
            return any(sat(b, stem_len + k) for k in range(loop_len))
        case Persistence(b):
            return all(sat(b, stem_len + k) for k in range(loop_len))
        case NextResponse(trigger, reaction):
            return all(
                not sat(trigger, i) or sat(reaction, i + 1) for i in range(total))
        case Response(trigger, reaction):
            loop_reacts = any(sat(reaction, stem_len + k) for k in range(loop_len))
            for i in range(stem_len):
                if sat(trigger, i):
                    if not (loop_reacts
                            or any(sat(reaction, j) for j in range(i, stem_len))):
                        return False
            if any(sat(trigger, stem_len + k) for k in range(loop_len)):
                return loop_reacts
            return True
    raise TypeError(pattern)


def table_lasso_verdict(
    tt: list[list[int]], initial: int, acceptance, lasso: Lasso,
) -> bool:
    """Fast verdict over a precomputed letter table (same oracle as
    :func:`naive_lasso_verdict`, shared table)."""
    return naive_verdict(acceptance, naive_inf_set(tt, initial, lasso))


def induced_lasso(machine, input_lasso: Lasso) -> Lasso:
    """Combined input/output word a machine produces on an input lasso.

    The loop is unrolled until the machine state repeats at a loop boundary,
    which makes the induced word ultimately periodic again.
    """
    input_bits = len(machine.inputs)
    state = machine.initial
    stem_letters = []
    for x in input_lasso.stem:
        state, y = machine.transitions[state][x]
        stem_letters.append(x | y << input_bits)
    boundaries = {state: 0}
    per_pass: list[list[int]] = []
    current = state
    while True:
        pass_letters = []
        for x in input_lasso.loop:
            current, y = machine.transitions[current][x]
            pass_letters.append(x | y << input_bits)
        per_pass.append(pass_letters)
        if current in boundaries:
            first = boundaries[current]
            stem = stem_letters + [a for p in per_pass[:first] for a in p]
            loop = [a for p in per_pass[first:] for a in p]
            return Lasso(tuple(stem), tuple(loop))
        boundaries[current] = len(per_pass)


def owner(game: SynthesisGame, v: int) -> int:
    return ENVIRONMENT if v < game.n_states else SYSTEM


def colour(game: SynthesisGame, v: int) -> int:
    return game.state_colours[v] if v < game.n_states else 0


def env_move(game: SynthesisGame, v: int, input_letter: int) -> int:
    """Successor of an Environment vertex under an input choice."""
    return game.n_states + (v << game.input_bits) + input_letter


def system_move(game: SynthesisGame, v: int, output_letter: int) -> int:
    """Successor of a System vertex under an output choice."""
    state, input_letter = divmod(v - game.n_states, game.n_inputs)
    return game.transitions.item(state, input_letter | output_letter << game.input_bits)


def moves(game: SynthesisGame, v: int) -> list[tuple[int, int]]:
    """All ``(letter, target)`` moves of a vertex, in letter order."""
    if v < game.n_states:
        return [(x, env_move(game, v, x)) for x in range(game.n_inputs)]
    return [(y, system_move(game, v, y)) for y in range(game.n_outputs)]


def reference_zielonka(game: SynthesisGame) -> Solution:
    """Zielonka's recursive algorithm with a FIFO worklist attractor.

    The solver works on per-vertex Python lists.  Predecessor lists hold one
    entry per edge, by source vertex and then letter; the attractor pops
    vertices in FIFO order and gives a newly attracted vertex of the
    attracting player the first letter leading into the attractor built so
    far.  ``solve_zielonka`` must return exactly this solution.
    """
    env_succ, sys_succ = game.arena.succ
    succ = env_succ.tolist() + sys_succ.tolist()
    n = len(succ)
    owner = [ENVIRONMENT] * len(env_succ) + [SYSTEM] * len(sys_succ)
    colour = list(game.state_colours) + [0] * len(sys_succ)
    pred: list[list[int]] = [[] for _ in range(n)]
    for v, targets in enumerate(succ):
        for t in targets:
            pred[t].append(v)

    def attract(mask, targets, player):
        attr = set(targets)
        strategy = {}
        queue = deque(targets)
        remaining = {}
        while queue:
            v = queue.popleft()
            for u in pred[v]:
                if not mask[u] or u in attr:
                    continue
                if owner[u] == player:
                    for label, t in enumerate(succ[u]):
                        if mask[t] and t in attr:
                            strategy[u] = label
                            break
                    attr.add(u)
                    queue.append(u)
                else:
                    count = remaining.get(u)
                    if count is None:
                        count = sum(1 for t in succ[u] if mask[t])
                    count -= 1
                    remaining[u] = count
                    if count == 0:
                        attr.add(u)
                        queue.append(u)
        return attr, strategy

    def solve(mask, n_active):
        if n_active == 0:
            return [set(), set()], [{}, {}]
        top_colour = max(colour[v] for v in range(n) if mask[v])
        winner = SYSTEM if top_colour % 2 == 0 else ENVIRONMENT
        opponent = 1 - winner
        top = [v for v in range(n) if mask[v] and colour[v] == top_colour]
        attr, attr_strategy = attract(mask, top, winner)
        submask = [m and v not in attr for v, m in enumerate(mask)]
        wins, strategies = solve(submask, n_active - len(attr))
        if not wins[opponent]:
            strategy = strategies[winner]
            strategy.update(attr_strategy)
            for v in top:
                if owner[v] == winner and v not in strategy:
                    strategy[v] = next(
                        label for label, t in enumerate(succ[v]) if mask[t])
            wins[winner] = {v for v in range(n) if mask[v]}
            return wins, strategies
        escape, escape_strategy = attract(mask, sorted(wins[opponent]), opponent)
        opponent_strategy = strategies[opponent]
        opponent_strategy.update(escape_strategy)
        submask = [m and v not in escape for v, m in enumerate(mask)]
        wins, strategies = solve(submask, n_active - len(escape))
        opponent_strategy.update(strategies[opponent])
        wins[opponent] |= escape
        strategies[opponent] = opponent_strategy
        return wins, strategies

    wins, strategies = solve([True] * n, n)
    winner = np.full(n, ENVIRONMENT, dtype=np.int8)
    winner[sorted(wins[SYSTEM])] = SYSTEM
    strategy = np.full((2, n), -1, dtype=np.intp)
    for player, moves in enumerate(strategies):
        strategy[player, list(moves)] = list(moves.values())
    return Solution(winner, strategy)


def reference_cycle_colours(succ: list[list[int]], colour: list[int],
                            inside: list[bool], colours) -> list[int]:
    """The colours ``d`` of ``colours`` for which some cycle inside ``inside``
    has maximum colour ``d``: some colour-``d`` vertex comes back to itself
    in a breadth-first walk over the vertices of colour at most ``d``."""
    found = []
    for d in colours:
        allowed = [inside[v] and colour[v] <= d for v in range(len(succ))]
        for v in range(len(succ)):
            if not allowed[v] or colour[v] != d:
                continue
            seen = set()
            queue = deque(t for t in succ[v] if allowed[t])
            while queue and v not in seen:
                w = queue.popleft()
                if w not in seen:
                    seen.add(w)
                    queue.extend(t for t in succ[w] if allowed[t])
            if v in seen:
                found.append(d)
                break
    return found


def restricted_successors(game: SynthesisGame, solution: Solution, player: int) -> list[list[int]]:
    """Each vertex's successors once ``player``'s strategy is fixed: its move
    where the strategy has one, every move elsewhere."""
    succ = []
    for v in range(game.n_vertices):
        letter = int(solution.strategy[player, v])
        succ.append([t for y, t in moves(game, v) if letter < 0 or y == letter])
    return succ


def reference_certify(game: SynthesisGame, solution: Solution) -> str | None:
    """The first claim, ``"system"`` then ``"environment"``, that the solution
    fails to prove, or ``None``: a claim fails if the opponent can leave the
    player's region, or if a cycle in the region under the player's strategy
    has a maximum colour of the player's own parity (odd for the System)."""
    colours = [colour(game, v) for v in range(game.n_vertices)]
    for claim, player in (("system", SYSTEM), ("environment", ENVIRONMENT)):
        inside = [int(w) == player for w in solution.winner]
        succ = restricted_successors(game, solution, player)
        if any(inside[v] and not inside[t] for v in range(len(succ)) for t in succ[v]):
            return claim
        if reference_cycle_colours(succ, colours, inside, range(player, 5, 2)):
            return claim
    return None


def same_solution(a: Solution, b: Solution) -> bool:
    """Equal winners and equal strategies."""
    return (np.array_equal(a.winner, b.winner)
            and np.array_equal(a.strategy, b.strategy))


def random_machine(
    rng: random.Random,
    *,
    max_states: int = 8,
    max_input_bits: int = 3,
    max_output_bits: int = 3,
) -> MealyMachine:
    """Random total machine over 0 to ``max_input_bits`` input and 0 to
    ``max_output_bits`` output propositions.  Its outputs come from at most
    three letters, so that many states are equivalent, and states unreachable
    from the initial one are kept."""
    n_states = rng.randint(1, max_states)
    inputs = tuple(f"i{k}" for k in range(rng.randint(0, max_input_bits)))
    outputs = tuple(f"o{k}" for k in range(rng.randint(0, max_output_bits)))
    letters = rng.sample(range(1 << len(outputs)), min(1 << len(outputs), rng.randint(1, 3)))
    return MealyMachine(
        inputs=inputs,
        outputs=outputs,
        n_states=n_states,
        initial=rng.randrange(n_states),
        transitions=tuple(
            tuple((rng.randrange(n_states), rng.choice(letters))
                  for _ in range(1 << len(inputs)))
            for _ in range(n_states)),
    )


def machine_outputs(machine: MealyMachine, word: list[int]) -> list[int]:
    """Output letters a machine emits from its initial state on a finite
    input word."""
    state = machine.initial
    emitted = []
    for x in word:
        state, y = machine.transitions[state][x]
        emitted.append(y)
    return emitted


def reference_machine_to_dict(machine: MealyMachine) -> dict:
    """``machine_to_dict`` as first written: one ``letter_names`` decode per
    transition."""
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


def reference_machine_to_json(machine: MealyMachine) -> str:
    """``machine_to_json`` as first written: one ``json.dumps`` per row."""
    data = reference_machine_to_dict(machine)
    rows = [json.dumps(t, separators=(",", ":")) for t in data.pop("transitions")]
    header = json.dumps(data, separators=(",", ":"))[:-1]
    return header + ',"transitions":[\n' + ",\n".join(rows) + "\n]}\n"


def reference_machine_to_dot(machine: MealyMachine) -> str:
    """``machine_to_dot`` as first written: labels decoded per transition."""
    in_table = machine.input_table()
    out_table = machine.output_table()

    def letter_label(names: tuple[str, ...]) -> str:
        return "{" + ",".join(names) + "}"

    lines = ["digraph mealy {", "  rankdir=LR;",
             '  init [shape=point, label=""];',
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


def control_successor(
    awaiting_assumption: int,
    awaiting_guarantee: int,
    assumptions_serviced: bool,
    assumption_accepting: list[bool],
    guarantee_accepting: list[bool],
    guarantee_rejecting: list[bool],
) -> tuple[int, int, bool]:
    """Advance the product's control structure by one step.

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
    """Colour of one product state, the highest applicable rule below:

    4: some co-Buchi assumption component is rejecting;
    3: serviced flag set and some co-Buchi guarantee component is rejecting;
    2: the guarantee counter sits on its free slot;
    1: the assumption counter sits on its free slot;
    0: otherwise.

    A guarantee-dead state follows the assumption rules 4, 1 and 0 only; the
    assumption-dead state is coloured 0.
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


def reference_product(
    spec: NormalizedSpec,
) -> tuple[list[list[int]], list[int], list[ProductState]]:
    """The reachable parity product as (transitions, colours, states), built
    by a FIFO breadth-first search over ``ProductState`` values, one state
    and one letter at a time, with components read by :func:`letter_table`.
    A state's number is its discovery order."""
    table = spec.table()
    automata = spec.components
    rows = [letter_table(aut, table) for aut in automata]
    n1 = len(spec.buchi_assumptions)
    na = n1 + len(spec.cobuchi_assumptions)
    n3 = len(spec.buchi_guarantees)

    def losing(j: int) -> set[int]:
        acc = automata[j].acceptance
        return {s for s, row in enumerate(rows[j]) if all(t == s for t in row)
                and (s in acc.rejecting if isinstance(acc, CoBuchi)
                     else s not in acc.accepting)}

    sinks = [losing(j) for j in range(len(automata))]

    def counted(indices) -> list[int]:
        # a Buchi conjunct accepting everywhere outside its sinks takes no slot
        return [j for j in indices
                if any(s not in automata[j].acceptance.accepting and s not in sinks[j]
                       for s in range(automata[j].n_states))]

    counted_a = counted(range(n1))
    counted_g = counted(range(na, na + n3))
    rejecting_g = [(j, aut.acceptance.rejecting) for j, aut in
                   enumerate(spec.cobuchi_guarantees, na + n3)]
    sink_state = ProductState((), 0, 0, False, ASSUMPTION_DEAD)

    def place(components, awaiting_a, awaiting_g, serviced, region) -> ProductState:
        if any(components[j] in sinks[j] for j in range(na)):
            return sink_state
        if region == GUARANTEE_DEAD or any(
                components[j] in sinks[j] for j in range(na, len(components))):
            return ProductState(components[:na], awaiting_a, 0, False, GUARANTEE_DEAD)
        return ProductState(components, awaiting_a, awaiting_g, serviced)

    def successor(state: ProductState, letter: int) -> ProductState:
        if state.region == ASSUMPTION_DEAD:
            return state
        comps = state.components
        live = state.region == LIVE
        control = control_successor(
            state.awaiting_assumption, state.awaiting_guarantee,
            state.assumptions_serviced,
            [comps[j] in automata[j].acceptance.accepting for j in counted_a],
            [comps[j] in automata[j].acceptance.accepting for j in counted_g] if live else [],
            [comps[j] in marked for j, marked in rejecting_g] if live else [])
        nxt = tuple(rows[j][c][letter] for j, c in enumerate(comps))
        return place(nxt, *control, state.region)

    initial = place(tuple(aut.initial for aut in automata), 0, 0, False, LIVE)
    index = {initial: 0}
    states = [initial]
    queue = deque([initial])
    transitions = []
    while queue:
        state = queue.popleft()
        row = []
        for letter in table.letters():
            nxt = successor(state, letter)
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        transitions.append(row)
    return transitions, [colour_of(state, spec) for state in states], states
