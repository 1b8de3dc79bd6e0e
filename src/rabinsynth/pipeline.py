"""End-to-end synthesis: normalisation, product, game, extraction, checking.

The pipeline also hosts the two semantic reference points used throughout the
test suite: :func:`lasso_oracle`, which evaluates the implication shape
conjunct by conjunct on a lasso word, and :func:`differential_test`, which
compares the parity product against that oracle over all small lassos;
:func:`sampled_differential` compares them on given lassos, for specs with
too many propositions to enumerate.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, Union

import numpy as np

from .automata import (
    Buchi, Lasso, OmegaAutomaton, accepts_inf, eval_lasso, infinity_set)
from .boolexpr import ApTable, free_names
from .game import ENVIRONMENT, SYSTEM, SynthesisGame, build_game
from .hoa import parse_hoa
from .ltl import compile_pattern, normalize, parse_ltl, unnameable
from .mealy import MealyMachine, _minimise
from .graphs import breadth_first, max_colour_cycle, tree_path
from .product import (
    CapacityExceeded,
    NormalizedSpec,
    ParityAutomaton,
    build_product,
)
from .solvers import Solution, solve_zielonka


class NormalizationError(Exception):
    """A conjunct source could not be turned into a classified automaton."""


class NotRealizable(Exception):
    pass


class IncompatibleAlphabets(Exception):
    pass


class InternalCertificationFailure(Exception):
    """An extracted machine failed verification; always a bug, never silent."""


@dataclass(frozen=True)
class ConjunctSource:
    """One assumption or guarantee: an inline pattern formula, an inline
    automaton document, or a path to an automaton file."""

    ltl: str | None = None
    hoa: str | None = None
    hoa_file: str | None = None

    def __post_init__(self) -> None:
        given = sum(x is not None for x in (self.ltl, self.hoa, self.hoa_file))
        if given != 1:
            raise ValueError(
                "exactly one of 'ltl', 'hoa' or 'hoa_file' must be given")


@dataclass(frozen=True)
class SpecProblem:
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    assumptions: tuple[ConjunctSource, ...]
    guarantees: tuple[ConjunctSource, ...]


def _conjunct_automata(
    source: ConjunctSource,
    table: ApTable,
) -> list[OmegaAutomaton]:
    if source.ltl is not None:
        patterns = parse_ltl(source.ltl)
        for pattern in patterns:
            unknown = sorted({n for field in fields(pattern)
                              for n in free_names(getattr(pattern, field.name))
                              if n not in table})
            if unknown:
                raise NormalizationError(
                    f"formula uses propositions outside the problem: {unknown}")
        return [compile_pattern(p, table) for p in patterns]
    text = source.hoa
    if text is None:
        text = Path(source.hoa_file).read_text(encoding="utf-8")
    aut, own_table = parse_hoa(text)
    unknown = sorted(n for n in own_table.names if n not in table)
    if unknown:
        raise NormalizationError(
            f"automaton uses propositions outside the problem: {unknown}")
    return [aut]


def normalize_problem(problem: SpecProblem) -> NormalizedSpec:
    """Resolve all conjunct sources and sort them into the four sets."""
    try:
        if set(problem.inputs) & set(problem.outputs):
            raise NormalizationError("input and output propositions must be disjoint")
        table = ApTable(tuple(problem.inputs) + tuple(problem.outputs))
    except (TypeError, ValueError) as exc:
        raise NormalizationError(f"bad proposition list: {exc}") from exc
    if any(s.ltl is not None for s in (*problem.assumptions, *problem.guarantees)):
        for name in table.names:
            if unnameable(name):
                raise NormalizationError(
                    f"proposition {name!r} cannot be named in a pattern formula; "
                    "rename it or give every conjunct as an automaton")

    def side(role: str, sources: Iterable[ConjunctSource]) -> list[OmegaAutomaton]:
        normalised = []
        for source in sources:
            try:
                for aut in _conjunct_automata(source, table):
                    normalised.extend(normalize(aut))
            except NormalizationError:
                raise
            except Exception as exc:
                raise NormalizationError(f"bad {role} conjunct: {exc}") from exc
        return normalised

    return NormalizedSpec.from_conjuncts(
        problem.inputs, problem.outputs,
        side("assumption", problem.assumptions), side("guarantee", problem.guarantees))


# ---------------------------------------------------------------------------
# outcome types


@dataclass(frozen=True)
class SynthesisStats:
    product_states: int
    game_env_vertices: int
    game_system_vertices: int
    machine_states: int  # of the minimised machine; 0 if unrealizable
    colours_used: tuple[int, ...]
    solve_seconds: float


@dataclass(frozen=True)
class Realizable:
    machine: MealyMachine
    stats: SynthesisStats


@dataclass(frozen=True)
class Unrealizable:
    """Environment's positional counterstrategy on its reachable winning slice:
    a map from Environment vertices to the input letter to play."""

    counterstrategy: Mapping[int, int]
    initial_vertex: int
    stats: SynthesisStats


SynthesisOutcome = Union[Realizable, Unrealizable]


# ---------------------------------------------------------------------------
# machine extraction and verification


def extract_mealy(game: SynthesisGame, solution: Solution) -> MealyMachine:
    """The minimal machine of the System strategy on its reachable winning
    slice: the slice is read off the strategy and the game's transition
    array, then minimised."""
    if solution.winner[game.initial] != SYSTEM:
        raise NotRealizable("initial vertex is not winning for the System")
    bits = game.input_bits
    # row q: the System's output at state q by input, -1 where the System
    # loses q; the walk never leaves the System region, so it reads no -1
    outputs = solution.strategy[SYSTEM, game.n_states:].reshape(game.n_states, game.n_inputs)
    order, rows = breadth_first(game.initial, lambda q: [
        game.transitions.item(q, x | y << bits) for x, y in enumerate(outputs[q].tolist())])
    return _minimise(game.table.names[:bits], game.table.names[bits:], 0,
                     list(zip(rows, map(tuple, outputs[order].tolist()))))


@dataclass(frozen=True)
class Violation:
    lasso: Lasso


def verify_mealy(machine: MealyMachine, pa: ParityAutomaton) -> Violation | None:
    """Model-check the machine against the parity product.

    Explores the synchronous product of machine and automaton and reports a
    concrete lasso witness whenever some reachable cycle has an odd maximum
    colour: the loop goes once round the cycle that
    :func:`~rabinsynth.graphs.max_colour_cycle` finds for colour 1, else 3.
    Raises :class:`ValueError` unless every state has one transition per
    input letter, each to a state of the machine with an output letter.
    """
    if machine.inputs + machine.outputs != pa.table.names:
        raise IncompatibleAlphabets(
            "machine propositions do not match the specification alphabet")
    input_bits = len(machine.inputs)
    n_inputs, n_outputs = 1 << input_bits, 1 << len(machine.outputs)
    if len(machine.transitions) != machine.n_states or not 0 <= machine.initial < machine.n_states:
        raise ValueError("a machine needs one transition row per state and an initial "
                         "state among them")
    for s, row in enumerate(machine.transitions):
        if len(row) != n_inputs or not all(
                0 <= target < machine.n_states and 0 <= y < n_outputs for target, y in row):
            raise ValueError(f"state {s} needs one transition for each of the {n_inputs} input "
                             f"letters, each to a state below {machine.n_states} with an "
                             f"output letter below {n_outputs}")

    def step(node: tuple[int, int]) -> list[tuple[int, int]]:
        m, q = node
        return [(m2, pa.transitions.item(q, x | y << input_bits))
                for x, (m2, y) in enumerate(machine.transitions[m])]

    # node i is the pair order[i]; its input x leads to node rows[i][x]
    order, rows = breadth_first((machine.initial, pa.initial), step)
    found = max_colour_cycle(
        np.array(rows).ravel(), np.arange(0, len(rows) * n_inputs + 1, n_inputs),
        np.array([pa.colours[q] for _, q in order]), np.ones(len(rows), dtype=bool), (1, 3))
    if found is None:
        return None
    cycle = found[1]

    def letters(walk: list[int]) -> tuple[int, ...]:
        """The letters that take the walk's steps, each by its first input."""
        inputs = [rows[v].index(w) for v, w in zip(walk, walk[1:])]
        return tuple(x | machine.transitions[order[v][0]][x][1] << input_bits
                     for v, x in zip(walk, inputs))

    # the stem follows the breadth-first tree from the initial node to the
    # cycle's first node; the loop goes once round the cycle
    return Violation(Lasso(letters(tree_path(rows, cycle[0])), letters(cycle + cycle[:1])))


# ---------------------------------------------------------------------------
# lasso oracle and the exhaustive differential comparison


def lasso_oracle(spec: NormalizedSpec, lasso: Lasso) -> bool:
    """Implication-shaped verdict evaluated conjunct by conjunct."""
    table = spec.table()
    assumptions = spec.buchi_assumptions + spec.cobuchi_assumptions
    guarantees = spec.buchi_guarantees + spec.cobuchi_guarantees
    if any(not eval_lasso(aut, lasso, table) for aut in assumptions):
        return True
    return all(eval_lasso(aut, lasso, table) for aut in guarantees)


def sampled_differential(
    spec: NormalizedSpec,
    pa: ParityAutomaton,
    lassos: Iterable[Lasso],
) -> tuple[int, Counter[int]]:
    """Compare the product's verdict with ``lasso_oracle`` on the lassos; return
    the number of disagreements and how many lassos end in each product
    region (the regions are absorbing, so a run's cycle lies in one)."""
    mismatches = 0
    ends: Counter[int] = Counter()
    region = pa.key_space.read(pa.keys)[0].tolist()
    for lasso in lassos:
        cycle = infinity_set(pa.transitions.item, pa.initial, lasso)
        accepted = accepts_inf(pa.automaton.acceptance, cycle)
        mismatches += accepted != lasso_oracle(spec, lasso)
        ends[region[min(cycle)]] += 1
    return mismatches, ends


@dataclass(frozen=True)
class DifferentialReport:
    checked: int
    mismatches: int
    regions: frozenset[int]  # the product regions the spec reaches


# highest set bit of a 5-bit colour mask, evenness table
_HIGH_EVEN = np.array(
    [False] + [((m.bit_length() - 1) % 2 == 0) for m in range(1, 32)],
    dtype=bool)

# (loop word, product state) plus (loop word, stem end) cells per chunk.  A
# chunk's arrays peak at 32 to 41 bytes a cell (tracemalloc, on the 2- and
# 3-client arbiters and on random specs), so a chunk stays under 0.7 MB.
_CHUNK_CELLS = 1 << 14


def differential_test(
    spec: NormalizedSpec,
    max_stem: int,
    max_loop: int,
    *,
    max_aps: int = 3,
) -> DifferentialReport:
    """Compare product verdicts against the conjunct oracle on every lasso
    with stem length up to ``max_stem`` and loop length up to ``max_loop``.

    Verdicts are computed for all stems at once.  One bit signature per
    product state records its colour and the acceptance-set memberships of
    every conjunct component.  Each loop word is read once from every
    product state, which gives the word's map on the states and the
    signature bits each reading passes.  Brent's cycle detection then
    follows the map from each distinct stem end to its cycle and ORs the
    bits around it.  The loop words of all lengths are checked together, in
    chunks of at most ``_CHUNK_CELLS`` (word, state) and (word, stem end)
    cells.  In a collapsed product state every conjunct it no longer tracks
    reads as failing: one of them has failed for good, so the verdict is the
    same.  Raises :class:`CapacityExceeded` beyond ``max_aps``
    propositions, or when the lassos number ``2 ** 63`` or more: they are
    counted in int64.  Raises :class:`ValueError` for bounds that define no
    lasso: ``max_stem < 0`` or ``max_loop < 1``.
    """
    if max_stem < 0 or max_loop < 1:
        raise ValueError(
            f"differential bounds need max_stem >= 0 and max_loop >= 1, "
            f"got {max_stem} and {max_loop}")
    if len(spec.inputs) + len(spec.outputs) > max_aps:
        raise CapacityExceeded(
            f"differential enumeration is limited to {max_aps} propositions")
    if len(spec.components) > 58:
        raise CapacityExceeded("too many conjuncts for packed signatures")
    n_letters = 1 << len(spec.inputs) + len(spec.outputs)
    # stem multiplicities and mismatch sums are int64: the lasso count must fit
    # (over two or more letters, the lassos 63 letters long alone do not)
    if n_letters > 1 and max_stem + max_loop > 62 or (
            sum(n_letters ** i for i in range(max_stem + 1))
            * sum(n_letters ** i for i in range(1, max_loop + 1)) >= 2 ** 63):
        raise CapacityExceeded(
            f"differential enumeration of stems up to {max_stem} and loops up to "
            f"{max_loop} letters over {n_letters} letters exceeds 2**63 lassos")
    pa = build_product(spec)
    n = pa.n_states
    # successor[letter * n + state], so that a gather reads one flat index;
    # letter n_letters stays put and pads the loop words shorter than
    # max_loop.  int32 indices would be converted on every gather below.
    successor = np.empty((n_letters + 1, n), dtype=np.intp)
    successor[:n_letters] = pa.transitions.T
    successor[n_letters] = np.arange(n)
    successor = successor.ravel()

    # per component: whether it is Buchi, and its accepting or rejecting states
    conjuncts = [(True, aut.acceptance.accepting) if isinstance(aut.acceptance, Buchi)
                 else (False, aut.acceptance.rejecting) for aut in spec.components]
    # bit j of (cycle bits >> 5) ^ flip is set iff conjunct j accepts
    flip = sum(1 << j for j, (is_buchi, _) in enumerate(conjuncts) if not is_buchi)
    region, states, tracked, _ = pa.key_space.read(pa.keys)
    k, width = len(conjuncts), max((aut.n_states for aut in spec.components), default=1)
    member = np.array([[s in marked for s in range(width)] for _, marked in conjuncts],
                      dtype=bool).reshape(k, width)
    hit = np.where(tracked, member[np.arange(k), states], flip >> np.arange(k) & 1)
    signature = (1 << np.array(pa.colours, dtype=np.int64)) | hit @ (1 << np.arange(5, 5 + k))
    assumed = (1 << len(spec.buchi_assumptions) + len(spec.cobuchi_assumptions)) - 1
    guaranteed = (1 << len(conjuncts)) - 1 - assumed

    # distinct end states of all stems, with multiplicities
    stem_counts = np.zeros(n, dtype=np.int64)
    stem_counts[pa.initial] = 1
    frontier = stem_counts
    for _ in range(max_stem):
        sources = np.flatnonzero(frontier)
        nxt = np.zeros(n, dtype=np.int64)
        np.add.at(nxt, pa.transitions[sources], frontier[sources, None])
        stem_counts = stem_counts + nxt
        frontier = nxt
    end_states = np.flatnonzero(stem_counts)
    end_multiplicity = stem_counts[end_states]
    n_stems = int(end_multiplicity.sum())

    # loop word w is the bijective base-n_letters numeral w + 1, read from its
    # least significant digit; every word of length 1 to max_loop is one w
    n_words = sum(n_letters ** length for length in range(1, max_loop + 1))
    chunk_words = max(1, _CHUNK_CELLS // (n + len(end_states)))
    checked = 0
    mismatches = 0
    for first in range(0, n_words, chunk_words):
        digits = np.arange(first, min(first + chunk_words, n_words))
        words = len(digits)
        # per (word, state): the state one reading of the word ends in, and
        # the signature bits of the states it passes
        jump = np.arange(n)
        bits = np.zeros((words, n), dtype=np.int64)
        for _ in range(max_loop):
            letters = np.where(digits >= 0, digits % n_letters, n_letters)
            digits = digits // n_letters - 1
            jump = successor.take((letters * n)[:, None] + jump)
            bits |= signature.take(jump)
        # Brent's cycle detection (Brent, BIT 1980) from every (word, stem end)
        # pair at once, on flat indices into the (words x states) arrays.  The
        # hare is ``steps`` readings past the tortoise, which jumps to it
        # whenever ``steps`` reaches ``power``, a power of two; ``seen`` holds
        # the bits read from the tortoise to the hare.  The two meet only when
        # the tortoise is on the cycle and the hare whole laps ahead, so
        # ``seen`` then holds the cycle's bits, at a pair's first meeting and
        # at every later one: pairs that have met step on with the rest.  A
        # pair starts one reading past its stem end, on the same cycle: a
        # comparison of the two would find only fixed points, which the first
        # comparison finds as well.
        jump += n * np.arange(words)[:, None]
        jump, bits = jump.ravel(), bits.ravel()
        tortoise = jump[(n * np.arange(words)[:, None] + end_states).ravel()]
        hare = jump[tortoise]
        seen = bits[tortoise]
        cycle_bits = np.empty(len(tortoise), dtype=np.int64)
        done = np.zeros(len(tortoise), dtype=bool)
        power = steps = 1
        while True:
            met = tortoise == hare
            np.copyto(cycle_bits, seen, where=met)
            done |= met
            if done.all():
                break
            if steps == power:
                tortoise, seen = hare, bits[hare]
                power, steps = 2 * power, 0
            else:
                seen |= bits[hare]
            hare = jump[hare]
            steps += 1
        cycle_bits = cycle_bits.reshape(words, len(end_states))

        accepted = (cycle_bits >> 5) ^ flip
        oracle_verdict = (((accepted & assumed) != assumed)
                          | ((accepted & guaranteed) == guaranteed))
        disagree = _HIGH_EVEN[cycle_bits & 31] != oracle_verdict
        mismatches += int(disagree.sum(axis=0) @ end_multiplicity)
        checked += n_stems * words
    return DifferentialReport(
        checked=checked, mismatches=mismatches, regions=frozenset(region.tolist()))


# ---------------------------------------------------------------------------
# the synthesis entry point


def _reachable_counterstrategy(
    game: SynthesisGame,
    solution: Solution,
) -> dict[int, int]:
    strategy = solution.strategy[ENVIRONMENT]
    # the letters with the strategy's input are every n_inputs-th from it
    reached = sorted(breadth_first(game.initial, lambda q: game.transitions[
        q, strategy[q]::game.n_inputs].tolist())[0])
    return dict(zip(reached, strategy[reached].tolist()))


def _constant_machine(spec: NormalizedSpec) -> MealyMachine:
    n_inputs = 1 << len(spec.inputs)
    return MealyMachine(
        inputs=tuple(spec.inputs),
        outputs=tuple(spec.outputs),
        n_states=1,
        initial=0,
        transitions=((tuple((0, 0) for _ in range(n_inputs))),),
    )


def synthesize(problem: SpecProblem | NormalizedSpec) -> SynthesisOutcome:
    """Synthesize an implementation or produce an environment counterstrategy.

    Every machine returned inside a :class:`Realizable` outcome is minimal and
    has passed :func:`verify_mealy` against the parity product; a verification failure
    aborts with :class:`InternalCertificationFailure`.
    """
    spec = problem if isinstance(problem, NormalizedSpec) else normalize_problem(problem)
    pa = build_product(spec)
    game = build_game(pa, spec.inputs, spec.outputs)
    started = time.perf_counter()
    solution = solve_zielonka(game)
    solve_seconds = time.perf_counter() - started

    def stats(machine_states: int) -> SynthesisStats:
        return SynthesisStats(
            product_states=pa.n_states,
            game_env_vertices=game.n_env_vertices,
            game_system_vertices=game.n_system_vertices,
            machine_states=machine_states,
            colours_used=tuple(sorted(set(pa.colours))),
            solve_seconds=solve_seconds,
        )

    if solution.winner[game.initial] != SYSTEM:
        return Unrealizable(
            counterstrategy=_reachable_counterstrategy(game, solution),
            initial_vertex=game.initial,
            stats=stats(0),
        )

    no_guarantees = not spec.buchi_guarantees and not spec.cobuchi_guarantees
    machine = _constant_machine(spec) if no_guarantees else extract_mealy(game, solution)
    violation = verify_mealy(machine, pa)
    if violation is not None:
        raise InternalCertificationFailure(
            f"extracted machine fails on witness {violation.lasso}")
    return Realizable(machine=machine, stats=stats(machine.n_states))
