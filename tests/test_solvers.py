import random
from pathlib import Path

import numpy as np
import pytest

from rabinsynth.boolexpr import ApTable
from rabinsynth.cli import load_spec_problem
from rabinsynth.game import ENVIRONMENT, SYSTEM, SynthesisGame, build_game
from rabinsynth.pipeline import normalize_problem
from rabinsynth.product import build_product
from rabinsynth.rand import arbiter_problem, random_game
from rabinsynth import solvers
from rabinsynth.solvers import (
    ShapeError,
    Solution,
    _Arena,
    certify_strategy,
    solve_progress_measures,
    solve_zielonka,
)

from helpers import env_move, owner, reference_zielonka, system_move

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
TABLE = ApTable(("r", "g"))


def loop_game(colour: int) -> SynthesisGame:
    return SynthesisGame(
        table=TABLE, input_bits=1, output_bits=1,
        n_states=1, transitions=((0, 0, 0, 0),),
        state_colours=(colour,), initial=0)


class TestTrivialGames:
    def test_even_self_loop(self):
        game = loop_game(0)
        solution = solve_zielonka(game)
        assert solution.system_region == frozenset(range(game.n_vertices))
        assert solution.env_region == frozenset()
        assert certify_strategy(game, solution) is None

    def test_odd_self_loop(self):
        game = loop_game(1)
        solution = solve_zielonka(game)
        assert solution.env_region == frozenset(range(game.n_vertices))
        assert solution.system_region == frozenset()
        assert certify_strategy(game, solution) is None

    def test_progress_measures_agree_on_loops(self):
        for colour in range(5):
            game = loop_game(colour)
            expected = solve_zielonka(game).system_region
            assert solve_progress_measures(game) == expected


class TestRandomDifferential:
    def test_solvers_agree_and_solutions_certify(self):
        rng = random.Random(20_240_601)
        for _ in range(300):
            game = random_game(rng, max_states=20)
            solution = solve_zielonka(game)
            vertices = frozenset(range(game.n_vertices))
            assert solution.system_region | solution.env_region == vertices
            assert not solution.system_region & solution.env_region
            assert solve_progress_measures(game) == solution.system_region
            assert certify_strategy(game, solution) is None

    def test_solving_is_deterministic(self):
        rng1 = random.Random(8)
        rng2 = random.Random(8)
        for _ in range(20):
            g1 = random_game(rng1, max_states=15)
            g2 = random_game(rng2, max_states=15)
            s1 = solve_zielonka(g1)
            s2 = solve_zielonka(g2)
            assert s1 == s2


class TestReferenceIdentity:
    """The array solver must return exactly the FIFO list solver's solution:
    regions and both strategies."""

    def test_random_games(self):
        rng = random.Random(20_261_018)
        sizes = (2, 5, 20, 60, 150, 400)
        multi_edge_games = 0
        for i in range(600):
            game = random_game(rng, max_states=sizes[i % len(sizes)])
            moves = np.sort(game.successor_tables()[1], axis=1)
            multi_edge_games += bool((moves[:, 1:] == moves[:, :-1]).any())
            assert solve_zielonka(game) == reference_zielonka(game), i
        assert multi_edge_games > 300

    def test_corpus_and_arbiter_games(self):
        problems = [load_spec_problem(path) for path in sorted(CORPUS.glob("*.json"))
                    if not path.name.endswith(".expected.json")]
        problems += [arbiter_problem(n, unrealizable=u) for n in (2, 3) for u in (False, True)]
        for problem in problems:
            game = game_of(problem)
            assert solve_zielonka(game) == reference_zielonka(game), problem


def game_of(problem) -> SynthesisGame:
    spec = normalize_problem(problem)
    return build_game(build_product(spec), spec.inputs, spec.outputs)


def random_games(count: int) -> list[SynthesisGame]:
    """Random games, most of them with System vertices that reach one
    target by several letters."""
    rng = random.Random(20_261_019)
    games = [random_game(rng, max_states=(3, 20, 150)[i % 3]) for i in range(count)]
    moves = [np.sort(game.successor_tables()[1], axis=1) for game in games]
    assert sum(bool((m[:, 1:] == m[:, :-1]).any()) for m in moves) > count // 2
    return games


def arbiter_games() -> list[SynthesisGame]:
    return [game_of(arbiter_problem(n, unrealizable=u)) for n in (2, 3) for u in (False, True)]


class TestArena:
    def test_predecessors_follow_the_stable_order(self):
        for game in random_games(60) + arbiter_games():
            arena = _Arena(game)
            sources = np.repeat(np.arange(arena.n), arena.degree)
            stable = sources[np.argsort(arena.succ_flat, kind="stable")]
            assert np.array_equal(arena.pred_src, stable)

    def test_every_subgame_gets_its_out_degrees(self, monkeypatch):
        """Each ``_solve`` call receives, on its mask, the number of edges
        of each vertex that stay inside the mask."""
        solve = solvers._solve
        calls = 0

        def checked(arena, mask, degree, region, strategy):
            nonlocal calls
            calls += 1
            inside = np.add.reduceat(mask[arena.succ_flat], arena.succ_ptr[:-1])
            assert np.array_equal(degree[mask], inside[mask])
            assert degree.dtype == np.int32
            solve(arena, mask, degree, region, strategy)

        monkeypatch.setattr(solvers, "_solve", checked)
        games = random_games(150)
        for game in games + arbiter_games():
            solve_zielonka(game)
        assert calls > 3 * len(games)


class TestCertify:
    def game_and_solution(self):
        rng = random.Random(99)
        while True:
            game = random_game(rng, max_states=12)
            solution = solve_zielonka(game)
            sys_v1 = [v for v in solution.system_region
                      if owner(game, v) == SYSTEM]
            if sys_v1 and solution.env_region:
                return game, solution

    def test_corrupted_choice_is_caught(self):
        game, solution = self.game_and_solution()
        # redirect one winning System choice towards the Environment region
        for v in sorted(solution.system_strategy):
            replacement = None
            for y in range(game.n_outputs):
                if system_move(game, v, y) in solution.env_region:
                    replacement = y
                    break
            if replacement is not None:
                corrupted = dict(solution.system_strategy)
                corrupted[v] = replacement
                bad = Solution(
                    solution.system_region, solution.env_region,
                    corrupted, solution.env_strategy)
                with pytest.raises(ShapeError):
                    certify_strategy(game, bad)
                return
        pytest.skip("no redirectable choice in this instance")

    def test_wrong_domain_is_a_shape_error(self):
        game, solution = self.game_and_solution()
        too_small = dict(solution.system_strategy)
        too_small.pop(next(iter(too_small)))
        with pytest.raises(ShapeError):
            certify_strategy(game, Solution(
                solution.system_region, solution.env_region,
                too_small, solution.env_strategy))

    def test_out_of_range_letter_is_a_shape_error(self):
        game, solution = self.game_and_solution()
        for bad_letter in (-1, game.n_outputs):
            strategy = dict(solution.system_strategy)
            strategy[next(iter(strategy))] = bad_letter
            with pytest.raises(ShapeError):
                certify_strategy(game, Solution(
                    solution.system_region, solution.env_region,
                    strategy, solution.env_strategy))

    def test_overlapping_regions_are_a_shape_error(self):
        game, solution = self.game_and_solution()
        with pytest.raises(ShapeError):
            certify_strategy(game, Solution(
                solution.system_region,
                solution.env_region | {next(iter(solution.system_region))},
                solution.system_strategy, solution.env_strategy))

    def test_swapped_regions_fail_certification(self):
        # claim the opposite winners: certify must reject with a cycle or a
        # closure violation rather than accept
        game, solution = self.game_and_solution()
        sys_strat = {v: 0 for v in solution.env_region
                     if owner(game, v) == SYSTEM}
        env_strat = {v: 0 for v in solution.system_region
                     if owner(game, v) == ENVIRONMENT}
        swapped = Solution(
            solution.env_region, solution.system_region, sys_strat, env_strat)
        try:
            result = certify_strategy(game, swapped)
        except ShapeError:
            return
        assert result is not None


class TestMonotonicityRegression:
    def test_added_winning_sink_leaves_other_vertices_untouched(self):
        # one state of colour 1 with every move looping
        base = SynthesisGame(
            table=TABLE, input_bits=1, output_bits=1,
            n_states=1, transitions=((0, 0, 0, 0),),
            state_colours=(1,), initial=0)
        # the same game plus an absorbing colour-2 state entered when the
        # input bit r is set; r=0 keeps the old loop
        extended = SynthesisGame(
            table=TABLE, input_bits=1, output_bits=1,
            n_states=2, transitions=((0, 1, 0, 1), (1, 1, 1, 1)),
            state_colours=(1, 2), initial=0)
        base_solution = solve_zielonka(base)
        ext_solution = solve_zielonka(extended)
        assert base_solution.env_region == frozenset(range(base.n_vertices))
        # state vertex 0 and the r=0 System vertex stay with the Environment
        v0 = 0
        v1_r0 = env_move(extended, 0, 0)
        assert v0 in ext_solution.env_region
        assert v1_r0 in ext_solution.env_region
        # the new attractor (sink state and the r=1 vertex) went to the System
        assert 1 in ext_solution.system_region
        assert env_move(extended, 0, 1) in ext_solution.system_region
