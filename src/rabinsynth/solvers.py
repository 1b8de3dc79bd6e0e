"""Parity game solvers and strategy certification.

The primary solver is the recursive attractor-peeling algorithm; a lifting
solver over small progress measures provides an independently computed winning
region for cross-checking.  Both operate on the bipartite letter-labelled
games of :mod:`rabinsynth.game` with the convention that the System wins a
play iff the maximum colour occurring infinitely often is even.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .game import ENVIRONMENT, SYSTEM, SynthesisGame
from .graphs import find_max_colour_cycle


class ShapeError(Exception):
    """A solution object violates the structural strategy contract."""


@dataclass(frozen=True)
class Solution:
    """Winning regions plus positional strategies on the winning sides.

    ``system_strategy`` maps every System vertex inside ``system_region`` to
    an output letter; ``env_strategy`` maps every Environment vertex inside
    ``env_region`` to an input letter.
    """

    system_region: frozenset[int]
    env_region: frozenset[int]
    system_strategy: Mapping[int, int]
    env_strategy: Mapping[int, int]


@dataclass(frozen=True)
class StrategyCounterexample:
    claim: str                      # "system" or "environment"
    vertices: tuple[int, ...]
    reason: str


class _Arena:
    """Explicit adjacency built once per solve; predecessor lists included."""

    def __init__(self, game: SynthesisGame):
        n = game.n_vertices
        self.n = n
        self.owner = [game.owner(v) for v in range(n)]
        self.colour = [game.colour(v) for v in range(n)]
        self.succ = [game.moves(v) for v in range(n)]
        pred: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            for _, t in self.succ[v]:
                pred[t].append(v)
        self.pred = pred


def _attract(
    arena: _Arena,
    mask: bytearray,
    targets: list[int],
    player: int,
) -> tuple[set[int], dict[int, tuple[int, int]]]:
    """Vertices from which ``player`` can force a visit to ``targets``.

    Also returns, for the player's newly attracted vertices, the first move
    (in letter order) that makes progress towards the targets.
    """
    attr = set(targets)
    strategy: dict[int, tuple[int, int]] = {}
    queue = deque(targets)
    remaining: dict[int, int] = {}
    while queue:
        v = queue.popleft()
        for u in arena.pred[v]:
            if not mask[u] or u in attr:
                continue
            if arena.owner[u] == player:
                for label, t in arena.succ[u]:
                    if mask[t] and t in attr:
                        strategy[u] = (label, t)
                        break
                attr.add(u)
                queue.append(u)
            else:
                count = remaining.get(u)
                if count is None:
                    count = sum(1 for _, t in arena.succ[u] if mask[t])
                count -= 1
                remaining[u] = count
                if count == 0:
                    attr.add(u)
                    queue.append(u)
    return attr, strategy


def _solve(
    arena: _Arena,
    mask: bytearray,
    n_active: int,
) -> tuple[set[int], set[int], dict[int, tuple[int, int]], dict[int, tuple[int, int]]]:
    if n_active == 0:
        return set(), set(), {}, {}
    top_colour = max(arena.colour[v] for v in range(arena.n) if mask[v])
    winner = SYSTEM if top_colour % 2 == 0 else ENVIRONMENT
    top = [v for v in range(arena.n) if mask[v] and arena.colour[v] == top_colour]

    attr, attr_strategy = _attract(arena, mask, top, winner)
    submask = bytearray(mask)
    for v in attr:
        submask[v] = 0
    sys_win, env_win, sys_strat, env_strat = _solve(
        arena, submask, n_active - len(attr))
    if winner == SYSTEM:
        opponent_region, opponent_strat = env_win, env_strat
        winner_strat = sys_strat
    else:
        opponent_region, opponent_strat = sys_win, sys_strat
        winner_strat = env_strat

    if not opponent_region:
        # the whole remaining game belongs to the owner of the top colour
        strategy = dict(winner_strat)
        strategy.update(attr_strategy)
        for v in top:
            if arena.owner[v] == winner and v not in strategy:
                for label, t in arena.succ[v]:
                    if mask[t]:
                        strategy[v] = (label, t)
                        break
        everything = {v for v in range(arena.n) if mask[v]}
        if winner == SYSTEM:
            return everything, set(), strategy, {}
        return set(), everything, {}, strategy

    opponent = ENVIRONMENT if winner == SYSTEM else SYSTEM
    escape, escape_strategy = _attract(
        arena, mask, sorted(opponent_region), opponent)
    submask2 = bytearray(mask)
    for v in escape:
        submask2[v] = 0
    sys_win2, env_win2, sys_strat2, env_strat2 = _solve(
        arena, submask2, n_active - len(escape))

    opponent_total = dict(opponent_strat)
    opponent_total.update(escape_strategy)
    if opponent == SYSTEM:
        opponent_total.update(sys_strat2)
        return (sys_win2 | escape, env_win2, opponent_total, env_strat2)
    opponent_total.update(env_strat2)
    return (sys_win2, env_win2 | escape, sys_strat2, opponent_total)


def solve_zielonka(game: SynthesisGame) -> Solution:
    """Exact winning regions and positional strategies for both players."""
    arena = _Arena(game)
    mask = bytearray([1]) * arena.n
    sys_win, env_win, sys_strat, env_strat = _solve(arena, mask, arena.n)
    return Solution(
        system_region=frozenset(sys_win),
        env_region=frozenset(env_win),
        system_strategy={v: label for v, (label, _) in sorted(sys_strat.items())},
        env_strategy={v: label for v, (label, _) in sorted(env_strat.items())},
    )


def solve_progress_measures(game: SynthesisGame) -> frozenset[int]:
    """System winning region computed by lifting small progress measures.

    Measures count visits to odd colours (packed into one integer per vertex,
    most significant digit for the highest odd colour); a vertex whose measure
    saturates is winning for the Environment.  Used as the independent
    cross-check for :func:`solve_zielonka`.
    """
    arena = _Arena(game)
    n = arena.n
    if any(c > 4 or c < 0 for c in arena.colour):
        raise ValueError("colours must lie in 0..4")
    count1 = sum(1 for c in arena.colour if c == 1)
    count3 = sum(1 for c in arena.colour if c == 3)
    radix1 = count1 + 1
    radix3 = count3 + 1
    space = radix1 * radix3
    top = space

    def progress(p: int, m: int) -> int:
        if m == top:
            return top
        if p == 0:
            return m
        if p == 1:
            nm = m + 1
            return nm if nm < space else top
        if p == 2:
            return m - (m % radix1)
        if p == 3:
            high = m // radix1 + 1
            return high * radix1 if high < radix3 else top
        return 0  # p == 4

    rho = [0] * n
    queued = [True] * n
    worklist = deque(range(n))
    while worklist:
        v = worklist.popleft()
        queued[v] = False
        p = arena.colour[v]
        if arena.owner[v] == SYSTEM:
            best = min(progress(p, rho[t]) for _, t in arena.succ[v])
        else:
            best = max(progress(p, rho[t]) for _, t in arena.succ[v])
        if best > rho[v]:
            rho[v] = best
            for u in arena.pred[v]:
                if not queued[u]:
                    queued[u] = True
                    worklist.append(u)
    return frozenset(v for v in range(n) if rho[v] < top)


def certify_strategy(
    game: SynthesisGame,
    solution: Solution,
) -> StrategyCounterexample | None:
    """Independently check a solution.

    Fixes each player's strategy inside their region, leaves the opponent
    free, and searches for a cycle won by the opponent (odd maximum colour
    inside the System region, even maximum colour inside the Environment
    region).  Returns ``None`` when both claims hold.  Structural problems
    (wrong strategy domain, choices leaving the owning region) raise
    :class:`ShapeError`.
    """
    n = game.n_vertices
    vertices = frozenset(range(n))
    if solution.system_region | solution.env_region != vertices:
        raise ShapeError("regions do not cover the game")
    if solution.system_region & solution.env_region:
        raise ShapeError("regions overlap")

    expected_sys = {v for v in solution.system_region if game.owner(v) == SYSTEM}
    if set(solution.system_strategy) != expected_sys:
        raise ShapeError("system strategy domain must be its winning System vertices")
    expected_env = {v for v in solution.env_region if game.owner(v) == ENVIRONMENT}
    if set(solution.env_strategy) != expected_env:
        raise ShapeError(
            "environment strategy domain must be its winning Environment vertices")
    for v, letter in solution.system_strategy.items():
        if game.system_move(v, letter) not in solution.system_region:
            raise ShapeError(f"system strategy leaves its region at vertex {v}")
    for v, letter in solution.env_strategy.items():
        if game.env_move(v, letter) not in solution.env_region:
            raise ShapeError(f"environment strategy leaves its region at vertex {v}")

    for claim, region, bad_parity in (
        ("system", solution.system_region, 1),
        ("environment", solution.env_region, 0),
    ):
        if claim == "system":
            def restricted(v: int) -> list[int]:
                if game.owner(v) == SYSTEM:
                    return [game.system_move(v, solution.system_strategy[v])]
                return [t for _, t in game.moves(v)]
        else:
            def restricted(v: int) -> list[int]:
                if game.owner(v) == ENVIRONMENT:
                    return [game.env_move(v, solution.env_strategy[v])]
                return [t for _, t in game.moves(v)]

        for v in sorted(region):
            for t in restricted(v):
                if t not in region:
                    return StrategyCounterexample(
                        claim, (v, t), "region is not closed under the opponent")

        found = find_max_colour_cycle(
            sorted(region), restricted, game.colour, range(bad_parity, 5, 2))
        if found is not None:
            d, cycle = found
            return StrategyCounterexample(
                claim, tuple(cycle),
                f"cycle with maximum colour {d} defeats the {claim} claim")
    return None
