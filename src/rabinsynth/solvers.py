"""Parity game solvers and strategy certification.

The primary solver is the recursive attractor-peeling algorithm; a lifting
solver over small progress measures provides an independently computed winning
region for cross-checking.  Both operate on the bipartite letter-labelled
games of :mod:`rabinsynth.game` with the convention that the System wins a
play iff the maximum colour occurring infinitely often is even.  All of them
read the game's one array arena (:class:`~rabinsynth.game.Arena`); Zielonka
recurses on vertex masks and attracts a breadth-first level at a time over
the arena's distinct edges, and the certifier hands each claim's restricted
arena to one array cycle check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .game import ENVIRONMENT, SYSTEM, Arena, SynthesisGame
from .graphs import max_colour_cycle


class ShapeError(Exception):
    """A solution object violates the structural strategy contract."""


@dataclass(frozen=True, eq=False)
class Solution:
    """Winning regions plus positional strategies on the winning sides, as
    two read-only arrays over the game's vertices.

    ``winner[v]`` (int8) is the player who wins from vertex ``v``.
    ``strategy[p, v]`` (shape ``(2, n_vertices)``) is the move letter of
    player ``p`` at each of ``p``'s vertices in ``p``'s region, and -1 at
    every other vertex.  ``system_region`` and ``env_region`` list the ids
    of the vertices each player wins, ascending.
    """

    winner: np.ndarray
    strategy: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("winner", np.int8), ("strategy", np.intp)):
            array = np.asarray(getattr(self, name), dtype=dtype).view()
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def system_region(self) -> np.ndarray:
        return (self.winner == SYSTEM).nonzero()[0]

    @property
    def env_region(self) -> np.ndarray:
        return (self.winner == ENVIRONMENT).nonzero()[0]


@dataclass(frozen=True)
class StrategyCounterexample:
    claim: str                      # "system" or "environment"
    vertices: tuple[int, ...]
    reason: str


_NO_TRIGGER = np.iinfo(np.intp).min  # below every edge key


def _attract(arena: Arena, mask: np.ndarray, degree: np.ndarray, targets: np.ndarray,
             player: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vertices from which ``player`` can force a visit to ``targets`` in the
    subgame on ``mask``, whose vertices have ``degree`` (int32) distinct
    successors in it.

    Attracts in the order of a FIFO worklist seeded with ``targets``, one
    breadth-first level at a time over the arena's edges: the targets take
    positions in the given order, each later level in the order (position of
    the trigger, vertex id).  A player vertex's trigger is its successor of
    least position, an opponent vertex's its last masked one; how many
    letters lead to a successor changes neither.
    Returns the attractor mask, the player's newly attracted vertices with
    their first move letters to a vertex of smaller position, and the
    distinct successor counts in the rest of the subgame.
    """
    n = arena.n
    position = np.full(n, n, dtype=np.intp)  # n: not attracted
    position[targets] = np.arange(len(targets))
    free = mask.copy()  # masked and not attracted yet
    n_masked = np.count_nonzero(mask)
    free[targets] = False
    mine = arena.owned[player]
    # edges still needed: one for the player, every masked one for the opponent
    remaining = np.where(mine, np.int32(1), degree)
    # edge keys (below vertices x edges, well inside int64) grow with the
    # target's position, then the source; negated for the player, one
    # maximum picks a player vertex's first edge in and an opponent's last
    sign = arena.sign[player]
    trigger = np.full(n, _NO_TRIGGER)
    found = len(targets)
    level = targets
    while level.size and found < n_masked:
        # edges into the level, by target position, then source
        counts = arena.pred_count[level]
        ends = counts.cumsum()
        edges = ((arena.pred_ptr[level] - ends + counts).repeat(counts)
                 + np.arange(ends[-1]))
        sources = arena.pred_src[edges]
        key = position[level].repeat(counts) * len(arena.pred_src) + edges
        open_ = free[sources]
        sources = sources[open_]
        key = key[open_] * sign[sources]
        np.maximum.at(trigger, sources, key)
        # an int32 step: a cast would take ufunc.at off its fast path
        np.subtract.at(remaining, sources, np.int32(1))
        # the completed vertices, each by the edge to its trigger, in
        # (trigger position, vertex id) order
        level = sources[(remaining[sources] <= 0) & (trigger[sources] == key)]
        position[level] = np.arange(found, found + level.size)
        free[level] = False
        found += level.size

    attracted = mask & ~free
    own = (attracted & mine & (position >= len(targets))).nonzero()[0]
    ahead = position[arena.successors(own, player)] < position[own, None]
    # outside it, an opponent vertex lost one count per edge into it; a player one has none
    return attracted, own, ahead.argmax(axis=1), np.where(mine, degree, remaining)


def _solve(arena: Arena, mask: np.ndarray, degree: np.ndarray, region: np.ndarray,
           strategy: np.ndarray) -> None:
    """Solve the subgame on ``mask``, whose vertices have ``degree`` (int32)
    distinct successors in it, in place: ``region[v]`` is set to the winner
    of each vertex, ``strategy[p, v]`` to the move letter of each of ``p``'s
    vertices in ``p``'s region.  ``strategy`` is -1 ("no move") on the
    subgame on entry and on the rest of the subgame on return.

    Zielonka's second recursive call is a loop.  An escape that misses the
    top colour's attractor leaves it as it was (an opponent vertex outside
    the escape has no edge into it, and the winner's attracted vertices keep
    their moves), so the next round reuses the attractor, its moves and its
    successor counts.
    """
    reused = None
    while mask.any():
        top_colour = arena.colour[mask].max()
        winner = SYSTEM if top_colour % 2 == 0 else ENVIRONMENT
        opponent = 1 - winner
        top = (mask & (arena.colour == top_colour)).nonzero()[0]

        attr, attr_vertices, attr_letters, subdegree = reused or _attract(
            arena, mask, degree, top, winner)
        submask = mask & ~attr
        _solve(arena, submask, subdegree, region, strategy)
        lost = (submask & (region == opponent)).nonzero()[0]

        if not lost.size:
            # the whole remaining game belongs to the owner of the top colour
            region[mask] = winner
            strategy[winner, attr_vertices] = attr_letters
            top = top[arena.owner[top] == winner]
            strategy[winner, top] = mask[arena.successors(top, winner)].argmax(axis=1)
            return

        # the winner's moves in the subgame are recomputed below
        strategy[winner, submask] = -1
        escape, escape_vertices, escape_letters, degree = _attract(
            arena, mask, degree, lost, opponent)
        strategy[opponent, escape_vertices] = escape_letters
        region[escape] = opponent
        mask = mask & ~escape
        reused = None if (escape & attr).any() else (
            attr, attr_vertices, attr_letters,
            np.where(arena.owned[winner], degree, subdegree))


def solve_zielonka(game: SynthesisGame) -> Solution:
    """Exact winning regions and positional strategies for both players."""
    arena = game.arena
    winner = np.zeros(arena.n, dtype=np.int8)
    strategy = np.full((2, arena.n), -1, dtype=np.intp)
    _solve(arena, np.ones(arena.n, dtype=bool), arena.succ_count, winner, strategy)
    return Solution(winner, strategy)


def solve_progress_measures(game: SynthesisGame) -> frozenset[int]:
    """System winning region computed by lifting small progress measures.

    Measures count visits to odd colours (packed into one integer per vertex,
    most significant digit for the highest odd colour); a vertex whose measure
    saturates is winning for the Environment.  Used as the independent
    cross-check for :func:`solve_zielonka`.
    """
    if any(c > 4 or c < 0 for c in game.state_colours):
        raise ValueError("colours must lie in 0..4")
    arena = game.arena
    n = arena.n
    # the lifting loop reads the arena's arrays as flat Python lists
    colour, succ, succ_ptr, pred_src, pred_ptr = (a.tolist() for a in (
        arena.colour, arena.succ_flat, arena.succ_ptr, arena.pred_src, arena.pred_ptr))
    radix1 = colour.count(1) + 1
    top = radix1 * (colour.count(3) + 1)  # the saturated measure

    def progress(p: int, m: int) -> int:
        if m == top or p == 0:
            return m
        if p == 2 or p == 4:
            return 0 if p == 4 else m - m % radix1
        m = m + 1 if p == 1 else (m // radix1 + 1) * radix1
        return m if m < top else top

    rho = [0] * n
    queued = [True] * n
    worklist = deque(range(n))
    while worklist:
        v = worklist.popleft()
        queued[v] = False
        p = colour[v]
        lifted = (progress(p, rho[t]) for t in succ[succ_ptr[v]:succ_ptr[v + 1]])
        best = max(lifted) if v < arena.n_env else min(lifted)
        if best > rho[v]:
            rho[v] = best
            for u in pred_src[pred_ptr[v]:pred_ptr[v + 1]]:
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
    free, and checks the System claim, then the Environment one.  A claim
    fails on the first edge, by vertex and letter, that leaves the region,
    or on a cycle in it whose maximum colour has the claimant's parity (odd
    for the System): for the first such colour ``d``, the cycle from the
    smallest colour-``d`` vertex on one (:func:`~rabinsynth.graphs.max_colour_cycle`).
    Returns ``None`` when both claims hold.  Structural problems
    (arrays that do not fit the game, wrong strategy domain, choices
    leaving the owning region) raise :class:`ShapeError`.
    """
    arena = game.arena
    n = arena.n
    winner, strategy = solution.winner, solution.strategy
    if winner.shape != (n,) or strategy.shape != (2, n) or (winner >> 1).any():
        raise ShapeError("solution arrays must give a player and two moves per vertex")
    in_system = winner == SYSTEM

    # a cycle of the player's parity (odd for the System) defeats their claim
    claims = (("system", SYSTEM, in_system), ("environment", ENVIRONMENT, ~in_system))
    for claim, player, inside in claims:
        if not np.array_equal(strategy[player] >= 0, inside & arena.owned[player]):
            raise ShapeError(f"{claim} strategy domain must be its winning "
                             f"{claim.capitalize()} vertices")
        vertices = (strategy[player] >= 0).nonzero()[0]
        letters = strategy[player, vertices]
        fits = letters < arena.succ[player].shape[1]
        targets = arena.succ_flat[arena.succ_ptr[vertices] + np.where(fits, letters, 0)]
        leaving = vertices[~fits | ~inside[targets]]
        if leaving.size:
            raise ShapeError(f"{claim} strategy leaves its region at vertex {leaving[0]}")

    # each claim's arena: every edge of a vertex with a move leads to its target
    edges = np.arange(arena.succ_flat.size)
    first_edge = np.repeat(arena.succ_ptr[:-1], arena.degree)
    for claim, player, inside in claims:
        move = np.repeat(strategy[player], arena.degree)
        restricted = arena.succ_flat[np.where(move >= 0, first_edge + move, edges)]
        escapes = (np.repeat(inside, arena.degree) & ~inside[restricted]).nonzero()[0]
        if escapes.size:
            v = int(np.searchsorted(arena.succ_ptr, escapes[0], side="right")) - 1
            return StrategyCounterexample(
                claim, (v, int(restricted[escapes[0]])), "region is not closed under the opponent")

        found = max_colour_cycle(
            restricted, arena.succ_ptr, arena.colour, inside, range(player, 5, 2))
        if found is not None:
            d, cycle = found
            return StrategyCounterexample(
                claim, tuple(cycle),
                f"cycle with maximum colour {d} defeats the {claim} claim")
    return None
