import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from rabinsynth.boolexpr import ApTable
from rabinsynth.cli import load_spec_problem
from rabinsynth.game import ENVIRONMENT, SYSTEM, Arena, SynthesisGame, build_game
from rabinsynth.pipeline import normalize_problem
from rabinsynth.product import build_product
from rabinsynth.rand import arbiter_problem, random_game
from rabinsynth import solvers
from rabinsynth.solvers import (
    ShapeError,
    Solution,
    certify_strategy,
    solve_progress_measures,
    solve_zielonka,
)

from helpers import (
    colour,
    env_move,
    moves,
    owner,
    reference_certify,
    reference_zielonka,
    restricted_successors,
    same_solution,
    system_move,
)

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
        assert np.array_equal(solution.system_region, np.arange(game.n_vertices))
        assert solution.env_region.size == 0
        assert certify_strategy(game, solution) is None

    def test_odd_self_loop(self):
        game = loop_game(1)
        solution = solve_zielonka(game)
        assert np.array_equal(solution.env_region, np.arange(game.n_vertices))
        assert solution.system_region.size == 0
        assert certify_strategy(game, solution) is None

    def test_progress_measures_agree_on_loops(self):
        for colour in range(5):
            game = loop_game(colour)
            expected = solve_zielonka(game).system_region
            assert solve_progress_measures(game) == frozenset(expected.tolist())


class TestRandomDifferential:
    def test_solvers_agree_and_solutions_certify(self):
        rng = random.Random(20_240_601)
        for _ in range(300):
            game = random_game(rng, max_states=20)
            solution = solve_zielonka(game)
            # the two regions partition the vertices
            regions = np.concatenate([solution.system_region, solution.env_region])
            assert np.array_equal(np.sort(regions), np.arange(game.n_vertices))
            assert solve_progress_measures(game) == frozenset(
                solution.system_region.tolist())
            assert certify_strategy(game, solution) is None

    def test_solving_is_deterministic(self):
        rng1 = random.Random(8)
        rng2 = random.Random(8)
        for _ in range(20):
            g1 = random_game(rng1, max_states=15)
            g2 = random_game(rng2, max_states=15)
            s1 = solve_zielonka(g1)
            s2 = solve_zielonka(g2)
            assert same_solution(s1, s2)


class TestReferenceIdentity:
    """The array solver must return exactly the FIFO list solver's solution:
    regions and both strategies."""

    def test_random_games(self):
        rng = random.Random(20_261_018)
        sizes = (2, 5, 20, 60, 150, 400)
        multi_edge_games = 0
        for i in range(600):
            game = random_game(rng, max_states=sizes[i % len(sizes)])
            rows = np.sort(game.arena.succ[SYSTEM], axis=1)
            multi_edge_games += bool((rows[:, 1:] == rows[:, :-1]).any())
            assert same_solution(solve_zielonka(game), reference_zielonka(game)), i
        assert multi_edge_games > 300

    def test_corpus_and_arbiter_games(self):
        problems = [load_spec_problem(path) for path in sorted(CORPUS.glob("*.json"))
                    if not path.name.endswith(".expected.json")]
        problems += [arbiter_problem(n, unrealizable=u) for n in (2, 3) for u in (False, True)]
        for problem in problems:
            game = game_of(problem)
            assert same_solution(solve_zielonka(game), reference_zielonka(game)), problem


def game_of(problem) -> SynthesisGame:
    spec = normalize_problem(problem)
    return build_game(build_product(spec), spec.inputs, spec.outputs)


def random_games(count: int) -> list[SynthesisGame]:
    """Random games, most of them with System vertices that reach one
    target by several letters."""
    rng = random.Random(20_261_019)
    games = [random_game(rng, max_states=(3, 20, 150)[i % 3]) for i in range(count)]
    rows = [np.sort(game.arena.succ[SYSTEM], axis=1) for game in games]
    assert sum(bool((r[:, 1:] == r[:, :-1]).any()) for r in rows) > count // 2
    return games


def arbiter_games() -> list[SynthesisGame]:
    return [game_of(arbiter_problem(n, unrealizable=u)) for n in (2, 3) for u in (False, True)]


class TestArena:
    def test_player_tables_view_the_flat_successors(self):
        for game in random_games(20) + arbiter_games():
            arena = game.arena
            for player, table in enumerate(arena.succ):
                assert np.shares_memory(table, arena.succ_flat)
                assert table.tolist() == [[t for _, t in moves(game, v)]
                                          for v in range(game.n_vertices)[arena.span[player]]]

    def test_solution_arrays_are_read_only(self):
        for game in random_games(6) + arbiter_games():
            solution = solve_zielonka(game)
            assert solution.winner.shape == (game.n_vertices,)
            assert solution.strategy.shape == (2, game.n_vertices)
            for array in (solution.winner, solution.strategy):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1

    def test_predecessors_follow_the_stable_order(self):
        """The stable order of the moves by target, with each repeated
        (source, target) pair dropped: every target lists its distinct
        sources once, ascending."""
        for game in random_games(60) + arbiter_games():
            arena = game.arena
            sources = np.repeat(np.arange(arena.n), arena.degree)
            order = np.argsort(arena.succ_flat, kind="stable")
            targets, stable = arena.succ_flat[order], sources[order]
            first = np.ones(targets.size, dtype=bool)
            first[1:] = (targets[1:] != targets[:-1]) | (stable[1:] != stable[:-1])
            assert np.array_equal(arena.pred_src, stable[first])
            assert np.array_equal(arena.pred_count,
                                  np.bincount(targets[first], minlength=arena.n))
            assert np.array_equal(arena.pred_ptr[1:], arena.pred_count.cumsum())
            assert arena.succ_count.dtype == np.int32
            assert arena.succ_count.tolist() == [len(set(t for _, t in moves(game, v)))
                                                 for v in range(game.n_vertices)]

    def test_every_subgame_gets_its_out_degrees(self, monkeypatch):
        """Each ``_solve`` and each ``_attract`` call receives, on its mask,
        the number of distinct successors of each vertex inside the mask."""
        calls = {"_solve": 0, "_attract": 0}

        def checked(name):
            function = getattr(solvers, name)

            def check(arena, mask, degree, *rest):
                calls[name] += 1
                inside = []
                for table in arena.succ:
                    rows = np.sort(np.where(mask[table], table, -1), axis=1)
                    new = np.ones(rows.shape, dtype=bool)
                    new[:, 1:] = rows[:, 1:] != rows[:, :-1]
                    inside.append(((rows >= 0) & new).sum(axis=1))
                inside = np.concatenate(inside)
                assert degree.dtype == np.int32
                assert np.array_equal(degree[mask], inside[mask])
                return function(arena, mask, degree, *rest)
            return check

        for name in calls:
            monkeypatch.setattr(solvers, name, checked(name))
        # the loop in _solve makes fewer calls than recursion did: enough
        # games that each function is still checked over 500 times
        games = random_games(250)
        for game in games + arbiter_games():
            solve_zielonka(game)
        assert min(calls.values()) > 2 * len(games)

    def test_one_arena_per_game(self, monkeypatch):
        """A solve, a progress-measure run and a certification of one game
        all read the arena that the first of them builds."""
        rng = random.Random(20_261_021)
        games = [random_game(rng, max_states=20) for _ in range(10)]
        games += [game_of(arbiter_problem(2, unrealizable=u)) for u in (False, True)]
        built = []
        build = Arena.__init__

        def counted(arena, game):
            built.append(game)
            build(arena, game)

        monkeypatch.setattr(Arena, "__init__", counted)
        for game in games:
            solution = solve_zielonka(game)
            solve_progress_measures(game)
            assert certify_strategy(game, solution) is None
        assert built == games


class TestReusedAttractor:
    """An escape that misses the top colour's attractor leaves that
    attractor as it was, and the next round reuses it."""

    def test_three_client_arbiter_skips_one_attractor(self, monkeypatch):
        game = game_of(arbiter_problem(3))
        attract = solvers._attract
        sizes = []

        def counted(*args):
            result = attract(*args)
            sizes.append(np.count_nonzero(result[0]))
            return result

        monkeypatch.setattr(solvers, "_attract", counted)
        solve_zielonka(game)
        # recursion made 7 calls: after the 288-vertex escape it attracted
        # the same 12,521 vertices a second time
        assert sizes == [16, 12_521, 288, 288, 12_537, 288]

    def test_random_games_reuse_exactly(self, monkeypatch):
        """Each escape that misses its round's top-colour attractor is
        checked against a fresh ``_attract`` on what the escape leaves, and
        each game where one does still equals the reference solver.

        A round makes its top-colour call and then its escape call on one
        mask object, so the escape is the second call on a mask seen before.
        (A round that reuses makes only the escape call; its reuse is not
        counted.)"""
        attract = solvers._attract
        tops = {}  # id(mask) -> (mask, targets, player, result), masks kept alive
        reuses = []

        def checked(arena, mask, degree, targets, player):
            result = attract(arena, mask, degree, targets, player)
            top = tops.setdefault(id(mask), (mask, targets, player, result))
            if top[3] is result:
                return result
            _, top_targets, winner, (attr, vertices, letters, subdegree) = top
            escape, _, _, escape_degree = result
            if not (escape & attr).any():
                reuses.append(player)
                rest = mask & ~escape
                fresh = attract(arena, rest, escape_degree, top_targets, winner)
                assert np.array_equal(fresh[0], attr)
                assert np.array_equal(fresh[1], vertices)
                assert np.array_equal(fresh[2], letters)
                kept = rest & ~attr
                reused = np.where(arena.owned[winner], escape_degree, subdegree)
                assert np.array_equal(fresh[3][kept], reused[kept])
            return result

        monkeypatch.setattr(solvers, "_attract", checked)
        rng = random.Random(20_261_020)
        reusing = 0
        for i in range(1_500):
            game = random_game(rng, max_states=(3, 10, 20, 60)[i % 4])
            before = len(reuses)
            solution = solve_zielonka(game)
            if len(reuses) > before:
                reusing += 1
                assert same_solution(solution, reference_zielonka(game)), i
        assert reusing >= 100, reusing

    # digests of the solutions that the recursive solver returned, which
    # attracted every round afresh and counted one edge per letter
    @pytest.mark.parametrize("unrealizable, winner, strategy", [
        (False, "490cc6664be50218a5fdb3260bf65fc00978d10aea4ed499983ce8f61ede52ab",
         "5d0500f57375cf1c40a8227b1117c96b4eeca2d513d157461c01e5597b777676"),
        (True, "04821ef863f2a044d829a23d42a7dd54056f7d0b32a48c5aa37b5a63aa91943d",
         "26996ea6129597f3a245129a3cbfef24f7afe5e45d481ec017c864676ea2a0b2")],
        ids=["realizable", "unrealizable"])
    def test_four_client_arbiter_is_unchanged(self, unrealizable, winner, strategy):
        solution = solve_zielonka(game_of(arbiter_problem(4, unrealizable=unrealizable)))
        assert hashlib.sha256(solution.winner.astype("i1").tobytes()).hexdigest() == winner
        assert hashlib.sha256(solution.strategy.astype("<i8").tobytes()).hexdigest() == strategy


def assert_counterexample(game: SynthesisGame, solution: Solution, found) -> None:
    """``found`` refutes its claim: a restricted edge leaving the claimed
    region, or a restricted cycle in it whose maximum colour has the
    claiming player's parity."""
    player = SYSTEM if found.claim == "system" else ENVIRONMENT
    succ = restricted_successors(game, solution, player)
    inside = solution.winner == player
    if found.reason == "region is not closed under the opponent":
        v, t = found.vertices
        assert inside[v] and not inside[t] and t in succ[v]
        return
    cycle = found.vertices
    for i, v in enumerate(cycle):
        assert inside[v] and cycle[(i + 1) % len(cycle)] in succ[v]
    top = max(colour(game, v) for v in cycle)
    assert top % 2 == player
    assert found.reason == f"cycle with maximum colour {top} defeats the {found.claim} claim"


class TestCertify:
    def game_and_solution(self):
        rng = random.Random(99)
        while True:
            game = random_game(rng, max_states=12)
            solution = solve_zielonka(game)
            sys_v1 = [v for v in solution.system_region
                      if owner(game, v) == SYSTEM]
            if sys_v1 and solution.env_region.size:
                return game, solution

    @staticmethod
    def first_system_move(solution: Solution) -> int:
        """The least vertex with a System move."""
        return int((solution.strategy[SYSTEM] >= 0).argmax())

    @staticmethod
    def with_system_move(solution: Solution, v: int, letter: int) -> Solution:
        strategy = solution.strategy.copy()
        strategy[SYSTEM, v] = letter
        return Solution(solution.winner, strategy)

    def test_corrupted_choice_is_caught(self):
        game, solution = self.game_and_solution()
        # redirect one winning System choice towards the Environment region
        for v in (solution.strategy[SYSTEM] >= 0).nonzero()[0].tolist():
            replacement = None
            for y in range(game.n_outputs):
                if solution.winner[system_move(game, v, y)] == ENVIRONMENT:
                    replacement = y
                    break
            if replacement is not None:
                bad = self.with_system_move(solution, v, replacement)
                with pytest.raises(ShapeError):
                    certify_strategy(game, bad)
                return
        pytest.skip("no redirectable choice in this instance")

    def test_wrong_domain_is_a_shape_error(self):
        game, solution = self.game_and_solution()
        too_small = self.with_system_move(solution, self.first_system_move(solution), -1)
        with pytest.raises(ShapeError):
            certify_strategy(game, too_small)

    def test_out_of_range_letter_is_a_shape_error(self):
        game, solution = self.game_and_solution()
        for bad_letter in (-2, game.n_outputs):
            with pytest.raises(ShapeError):
                certify_strategy(game, self.with_system_move(
                    solution, self.first_system_move(solution), bad_letter))

    def test_arrays_that_do_not_fit_the_game_are_a_shape_error(self):
        game, solution = self.game_and_solution()
        winner = solution.winner.copy()
        winner[0] = 2  # no player
        for bad in (Solution(solution.winner[1:], solution.strategy[:, 1:]),
                    Solution(solution.winner, solution.strategy[:1]),
                    Solution(winner, solution.strategy)):
            with pytest.raises(ShapeError, match="solution arrays"):
                certify_strategy(game, bad)

    def test_swapped_regions_fail_certification(self):
        # claim the opposite winners: certify must reject with a cycle or a
        # closure violation rather than accept
        game, solution = self.game_and_solution()
        strategy = np.full_like(solution.strategy, -1)
        for player in (ENVIRONMENT, SYSTEM):
            claimed = [v for v in range(game.n_vertices)
                       if solution.winner[v] != player and owner(game, v) == player]
            strategy[player, claimed] = 0
        swapped = Solution(1 - solution.winner, strategy)
        try:
            result = certify_strategy(game, swapped)
        except ShapeError:
            return
        assert result is not None
        assert result.claim == reference_certify(game, swapped)
        assert_counterexample(game, swapped, result)

    def test_region_left_by_the_opponent_is_not_closed(self):
        """A System vertex moved out of the System region, where its state
        stays: the first edge out of the region, by vertex and letter,
        refutes the System claim."""
        rng = random.Random(20_261_022)
        flipped = 0
        for _ in range(300):
            game = random_game(rng, max_states=12)
            solution = solve_zielonka(game)
            region = [v for v in solution.system_region.tolist() if owner(game, v) == SYSTEM
                      and solution.winner[(v - game.n_states) >> game.input_bits] == SYSTEM]
            if not region:
                continue
            t = rng.choice(region)
            winner, strategy = solution.winner.copy(), solution.strategy.copy()
            winner[t], strategy[SYSTEM, t] = ENVIRONMENT, -1
            claimed = Solution(winner, strategy)
            result = certify_strategy(game, claimed)
            assert result.claim == reference_certify(game, claimed) == "system"
            assert result.reason == "region is not closed under the opponent"
            assert_counterexample(game, claimed, result)
            assert result.vertices == next(
                (v, w) for v in range(game.n_vertices) if winner[v] == SYSTEM
                for _, w in moves(game, v) if winner[w] == ENVIRONMENT)
            flipped += 1
        assert flipped > 100

    def test_mutated_strategies_match_the_reference(self):
        """One strategy letter per player changed to another move that stays
        in the region: certification agrees with the reference, and every
        counterexample refutes its claim."""
        rng = random.Random(20_261_020)
        rejected = 0
        for _ in range(1000):
            game = random_game(rng, max_states=12)
            solution = solve_zielonka(game)
            strategy = solution.strategy.copy()
            for player in (ENVIRONMENT, SYSTEM):
                domain = (strategy[player] >= 0).nonzero()[0].tolist()
                if not domain:
                    continue
                v = rng.choice(domain)
                letters = [y for y, t in moves(game, v)
                           if solution.winner[t] == player and y != strategy[player, v]]
                if letters:
                    strategy[player, v] = rng.choice(letters)
            mutated = Solution(solution.winner, strategy)
            result = certify_strategy(game, mutated)
            assert (None if result is None else result.claim) == reference_certify(game, mutated)
            if result is not None:
                assert_counterexample(game, mutated, result)
                rejected += 1
        assert rejected > 100


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
        assert np.array_equal(base_solution.env_region, np.arange(base.n_vertices))
        # state vertex 0 and the r=0 System vertex stay with the Environment
        v0 = 0
        v1_r0 = env_move(extended, 0, 0)
        assert v0 in ext_solution.env_region
        assert v1_r0 in ext_solution.env_region
        # the new attractor (sink state and the r=1 vertex) went to the System
        assert 1 in ext_solution.system_region
        assert env_move(extended, 0, 1) in ext_solution.system_region
