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

import numpy as np

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
    """Adjacency lists built once per solve from the game's arrays.

    ``succ[v]`` lists the move targets of vertex ``v`` indexed by move letter
    (input letters at Environment vertices, output letters at System
    vertices).  ``pred[v]`` lists the source of every edge into ``v``, once
    per edge, by source vertex and then letter.  ``owner`` and ``colour``
    are per-vertex lists; all entries are Python ints.
    """

    def __init__(self, game: SynthesisGame):
        env_succ, sys_succ = game.successor_tables()
        n_env = len(env_succ)
        self.n = n = n_env + len(sys_succ)
        self.owner = [ENVIRONMENT] * n_env + [SYSTEM] * (n - n_env)
        self.colour = list(game.state_colours) + [0] * (n - n_env)
        # one int object per vertex, shared by every list: fresh ints from
        # tolist() raised the peak memory of the 3-client arbiters by ~40 MB
        ids = list(range(n))

        def split(vertices: np.ndarray, counts: np.ndarray) -> list[list[int]]:
            flat = list(map(ids.__getitem__, vertices.tolist()))
            ends = counts.cumsum().tolist()
            return [flat[a:b] for a, b in zip([0] + ends, ends)]

        # edges in (source, letter) order; the stable sort by target keeps
        # that order inside every predecessor list
        targets = np.concatenate([env_succ.ravel(), sys_succ.ravel()])
        out_degree = np.repeat(
            [env_succ.shape[1], sys_succ.shape[1]], [n_env, n - n_env])
        self.succ = split(targets, out_degree)
        sources = np.repeat(np.arange(n), out_degree)
        self.pred = split(sources[np.argsort(targets, kind="stable")],
                          np.bincount(targets, minlength=n))


def _attract(
    arena: _Arena,
    mask: bytearray,
    targets: list[int],
    player: int,
) -> tuple[set[int], dict[int, int]]:
    """Vertices from which ``player`` can force a visit to ``targets``.

    Also returns, for the player's newly attracted vertices, the first move
    letter that makes progress towards the targets.
    """
    attr = set(targets)
    strategy: dict[int, int] = {}
    queue = deque(targets)
    remaining: dict[int, int] = {}
    while queue:
        v = queue.popleft()
        for u in arena.pred[v]:
            if not mask[u] or u in attr:
                continue
            if arena.owner[u] == player:
                for label, t in enumerate(arena.succ[u]):
                    if mask[t] and t in attr:
                        strategy[u] = label
                        break
                attr.add(u)
                queue.append(u)
            else:
                count = remaining.get(u)
                if count is None:
                    count = sum(1 for t in arena.succ[u] if mask[t])
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
) -> tuple[list[set[int]], list[dict[int, int]]]:
    """Winning regions and strategies of the active subgame, indexed by player."""
    if n_active == 0:
        return [set(), set()], [{}, {}]
    top_colour = max(arena.colour[v] for v in range(arena.n) if mask[v])
    winner = SYSTEM if top_colour % 2 == 0 else ENVIRONMENT
    opponent = ENVIRONMENT if winner == SYSTEM else SYSTEM
    top = [v for v in range(arena.n) if mask[v] and arena.colour[v] == top_colour]

    attr, attr_strategy = _attract(arena, mask, top, winner)
    submask = bytearray(mask)
    for v in attr:
        submask[v] = 0
    wins, strategies = _solve(arena, submask, n_active - len(attr))

    if not wins[opponent]:
        # the whole remaining game belongs to the owner of the top colour
        strategy = strategies[winner]
        strategy.update(attr_strategy)
        for v in top:
            if arena.owner[v] == winner and v not in strategy:
                for label, t in enumerate(arena.succ[v]):
                    if mask[t]:
                        strategy[v] = label
                        break
        wins[winner] = {v for v in range(arena.n) if mask[v]}
        return wins, strategies

    escape, escape_strategy = _attract(
        arena, mask, sorted(wins[opponent]), opponent)
    opponent_strategy = strategies[opponent]
    opponent_strategy.update(escape_strategy)
    submask = bytearray(mask)
    for v in escape:
        submask[v] = 0
    wins, strategies = _solve(arena, submask, n_active - len(escape))
    opponent_strategy.update(strategies[opponent])
    wins[opponent] |= escape
    strategies[opponent] = opponent_strategy
    return wins, strategies


def solve_zielonka(game: SynthesisGame) -> Solution:
    """Exact winning regions and positional strategies for both players."""
    arena = _Arena(game)
    wins, strategies = _solve(arena, bytearray([1]) * arena.n, arena.n)
    return Solution(
        system_region=frozenset(wins[SYSTEM]),
        env_region=frozenset(wins[ENVIRONMENT]),
        system_strategy=dict(sorted(strategies[SYSTEM].items())),
        env_strategy=dict(sorted(strategies[ENVIRONMENT].items())),
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
    radix1 = arena.colour.count(1) + 1
    radix3 = arena.colour.count(3) + 1
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
            best = min(progress(p, rho[t]) for t in arena.succ[v])
        else:
            best = max(progress(p, rho[t]) for t in arena.succ[v])
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
    arena = _Arena(game)
    if solution.system_region | solution.env_region != frozenset(range(arena.n)):
        raise ShapeError("regions do not cover the game")
    if solution.system_region & solution.env_region:
        raise ShapeError("regions overlap")

    claims = (
        ("system", SYSTEM, solution.system_region, solution.system_strategy, 1),
        ("environment", ENVIRONMENT, solution.env_region, solution.env_strategy, 0),
    )
    for claim, player, region, strategy, _ in claims:
        if set(strategy) != {v for v in region if arena.owner[v] == player}:
            raise ShapeError(f"{claim} strategy domain must be its winning "
                             f"{claim.capitalize()} vertices")
    for claim, _, region, strategy, _ in claims:
        for v, letter in strategy.items():
            moves = arena.succ[v]
            if not 0 <= letter < len(moves) or moves[letter] not in region:
                raise ShapeError(f"{claim} strategy leaves its region at vertex {v}")

    for claim, player, region, strategy, bad_parity in claims:
        def restricted(v: int) -> list[int]:
            if arena.owner[v] == player:
                return [arena.succ[v][strategy[v]]]
            return arena.succ[v]

        for v in sorted(region):
            for t in restricted(v):
                if t not in region:
                    return StrategyCounterexample(
                        claim, (v, t), "region is not closed under the opponent")

        found = find_max_colour_cycle(
            sorted(region), restricted, arena.colour.__getitem__,
            range(bad_parity, 5, 2))
        if found is not None:
            d, cycle = found
            return StrategyCounterexample(
                claim, tuple(cycle),
                f"cycle with maximum colour {d} defeats the {claim} claim")
    return None
