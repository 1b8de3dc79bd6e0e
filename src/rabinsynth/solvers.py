"""Parity game solvers and strategy certification.

The primary solver is the recursive attractor-peeling algorithm; a lifting
solver over small progress measures provides an independently computed winning
region for cross-checking.  Both operate on the bipartite letter-labelled
games of :mod:`rabinsynth.game` with the convention that the System wins a
play iff the maximum colour occurring infinitely often is even.  All of them
read one array arena (successor tables, CSR predecessors); Zielonka recurses
on vertex masks and attracts a breadth-first level at a time.
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
    """The game as integer arrays.  Player ``p`` owns the vertices in
    ``span[p]``, Environment vertices first; ``succ[p][v - span[p].start]``
    holds the move targets of its vertex ``v`` by letter, and
    ``succ_flat[succ_ptr[v]:succ_ptr[v + 1]]`` the same, flat: ``degree[v]`` (int32) moves.
    ``pred_src[pred_ptr[v]:pred_ptr[v + 1]]`` lists the source of every edge
    into ``v`` (``pred_count[v]`` edges), by source vertex and then letter.
    ``owned[p]`` marks ``p``'s vertices, and ``sign[p]`` is -1 on them and 1
    elsewhere.
    """

    def __init__(self, game: SynthesisGame):
        self.succ = game.successor_tables()  # indexed by player
        self.n_env = n_env = len(self.succ[ENVIRONMENT])
        self.n = n = n_env + len(self.succ[SYSTEM])
        self.span = (slice(0, n_env), slice(n_env, n))
        self.owner = np.repeat(np.int8([ENVIRONMENT, SYSTEM]), [n_env, n - n_env])
        self.owned = (self.owner == ENVIRONMENT, self.owner == SYSTEM)
        self.sign = tuple(np.where(mine, -1, 1) for mine in self.owned)
        self.colour = np.zeros(n, dtype=np.int8)
        self.colour[:n_env] = game.state_colours
        self.succ_flat = np.concatenate([table.ravel() for table in self.succ])
        self.degree = np.repeat(np.int32([t.shape[1] for t in self.succ]), [n_env, n - n_env])
        self.succ_ptr = np.concatenate([[0], self.degree.cumsum()])
        # one in-place sort of (target, source) keys: equal keys differ only
        # in the letter, so each target lists its sources in succ_flat order
        self.pred_src = pred = np.repeat(np.arange(n), self.degree)
        pred += np.multiply(self.succ_flat, n, dtype=np.int64)
        pred.sort()
        pred %= n
        self.pred_count = np.bincount(self.succ_flat, minlength=n)
        self.pred_ptr = np.concatenate([[0], self.pred_count.cumsum()])

    def successors(self, vertices: np.ndarray, player: int) -> np.ndarray:
        """Move-target rows of vertices that all belong to ``player``."""
        return self.succ[player][vertices - self.span[player].start]


_NO_TRIGGER = np.iinfo(np.intp).min  # below every edge key


def _attract(arena: _Arena, mask: np.ndarray, degree: np.ndarray, targets: np.ndarray,
             player: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vertices from which ``player`` can force a visit to ``targets`` in the
    subgame on ``mask``, whose vertices have the out-degrees ``degree``.

    Attracts in the order of a FIFO worklist seeded with ``targets``: the
    targets take positions in the given order, each later level in the order
    (position of the trigger, vertex id).  A player vertex's trigger is its
    successor of least position, an opponent vertex's its last masked one.
    Returns the attractor mask, the player's newly attracted vertices with
    their first move letters to a vertex of smaller position, and the
    out-degrees in the rest of the subgame.
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
    # target's position, then the pred order; negated for the player, one
    # maximum picks a player vertex's first edge in and an opponent's last
    sign = arena.sign[player]
    trigger = np.full(n, _NO_TRIGGER)
    found = len(targets)
    level = targets
    while level.size and found < n_masked:
        # edges into the level, by target position, then source and letter
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
    own = np.flatnonzero(attracted & mine & (position >= len(targets)))
    ahead = position[arena.successors(own, player)] < position[own, None]
    # outside it, an opponent vertex lost one count per edge into it; a player one has none
    return attracted, own, ahead.argmax(axis=1), np.where(mine, degree, remaining)


def _solve(arena: _Arena, mask: np.ndarray, degree: np.ndarray, region: np.ndarray,
           strategy: np.ndarray) -> None:
    """Solve the subgame on ``mask``, whose vertices have the out-degrees
    ``degree``, in place: ``region[v]`` is set to the winner of each vertex,
    ``strategy[p, v]`` to the move letter of each of ``p``'s vertices in
    ``p``'s region.  ``strategy`` is -1 ("no move") on the subgame on entry
    and on the rest of the subgame on return."""
    if not mask.any():
        return
    top_colour = arena.colour[mask].max()
    winner = SYSTEM if top_colour % 2 == 0 else ENVIRONMENT
    opponent = 1 - winner
    top = np.flatnonzero(mask & (arena.colour == top_colour))

    attr, attr_vertices, attr_letters, subdegree = _attract(arena, mask, degree, top, winner)
    submask = mask & ~attr
    _solve(arena, submask, subdegree, region, strategy)
    lost = np.flatnonzero(submask & (region == opponent))

    if not lost.size:
        # the whole remaining game belongs to the owner of the top colour
        region[mask] = winner
        strategy[winner, attr_vertices] = attr_letters
        top = top[arena.owner[top] == winner]
        strategy[winner, top] = mask[arena.successors(top, winner)].argmax(axis=1)
        return

    # the winner's moves in the subgame are recomputed below
    strategy[winner, submask] = -1
    escape, escape_vertices, escape_letters, degree = _attract(arena, mask, degree, lost, opponent)
    strategy[opponent, escape_vertices] = escape_letters
    _solve(arena, mask & ~escape, degree, region, strategy)
    region[escape] = opponent


def solve_zielonka(game: SynthesisGame) -> Solution:
    """Exact winning regions and positional strategies for both players."""
    arena = _Arena(game)
    region = np.zeros(arena.n, dtype=np.int8)
    strategy = np.full((2, arena.n), -1, dtype=np.intp)
    _solve(arena, np.ones(arena.n, dtype=bool), arena.degree, region, strategy)

    def moves(player: int) -> dict[int, int]:
        vertices = np.flatnonzero(strategy[player] >= 0)
        return dict(zip(vertices.tolist(), strategy[player, vertices].tolist()))

    return Solution(
        system_region=frozenset(np.flatnonzero(region == SYSTEM).tolist()),
        env_region=frozenset(np.flatnonzero(region == ENVIRONMENT).tolist()),
        system_strategy=moves(SYSTEM),
        env_strategy=moves(ENVIRONMENT),
    )


def solve_progress_measures(game: SynthesisGame) -> frozenset[int]:
    """System winning region computed by lifting small progress measures.

    Measures count visits to odd colours (packed into one integer per vertex,
    most significant digit for the highest odd colour); a vertex whose measure
    saturates is winning for the Environment.  Used as the independent
    cross-check for :func:`solve_zielonka`.
    """
    if any(c > 4 or c < 0 for c in game.state_colours):
        raise ValueError("colours must lie in 0..4")
    arena = _Arena(game)
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
    free, and searches for a cycle won by the opponent (odd maximum colour
    inside the System region, even maximum colour inside the Environment
    region).  Returns ``None`` when both claims hold.  Structural problems
    (wrong strategy domain, choices leaving the owning region) raise
    :class:`ShapeError`.
    """
    arena = _Arena(game)
    n = arena.n
    if solution.system_region | solution.env_region != frozenset(range(n)):
        raise ShapeError("regions do not cover the game")
    if solution.system_region & solution.env_region:
        raise ShapeError("regions overlap")
    in_system = np.isin(np.arange(n), list(solution.system_region))

    claims = (
        ("system", SYSTEM, in_system, solution.system_strategy, 1),
        ("environment", ENVIRONMENT, ~in_system, solution.env_strategy, 0),
    )
    for claim, player, inside, strategy, _ in claims:
        if set(strategy) != set(np.flatnonzero(inside & arena.owned[player]).tolist()):
            raise ShapeError(f"{claim} strategy domain must be its winning "
                             f"{claim.capitalize()} vertices")
    # the graph searches read the arena's arrays as flat Python lists
    colour, succ, succ_ptr = (a.tolist() for a in (
        arena.colour, arena.succ_flat, arena.succ_ptr))
    for claim, player, inside, strategy, _ in claims:
        width = arena.succ[player].shape[1]
        for v, letter in strategy.items():
            if not 0 <= letter < width or not inside[succ[succ_ptr[v] + letter]]:
                raise ShapeError(f"{claim} strategy leaves its region at vertex {v}")

    for claim, _, inside, strategy, bad_parity in claims:
        def restricted(v: int) -> list[int]:
            moves = succ[succ_ptr[v]:succ_ptr[v + 1]]
            return [moves[strategy[v]]] if v in strategy else moves

        members = np.flatnonzero(inside).tolist()
        for v in members:
            for t in restricted(v):
                if not inside[t]:
                    return StrategyCounterexample(
                        claim, (v, t), "region is not closed under the opponent")

        found = find_max_colour_cycle(
            members, restricted, colour.__getitem__, range(bad_parity, 5, 2))
        if found is not None:
            d, cycle = found
            return StrategyCounterexample(
                claim, tuple(cycle),
                f"cycle with maximum colour {d} defeats the {claim} claim")
    return None
