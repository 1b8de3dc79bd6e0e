import random

import numpy as np

from rabinsynth.automata import Lasso, eval_lasso
from rabinsynth.boolexpr import ApTable
from rabinsynth.game import ENVIRONMENT, SYSTEM, SynthesisGame, build_game
from rabinsynth.ltl import compile_pattern, parse_ltl
from rabinsynth.product import NormalizedSpec, build_product
from rabinsynth.solvers import solve_progress_measures, solve_zielonka

from helpers import colour, env_move, moves, owner, system_move


def gf_game():
    table = ApTable(("r", "g"))
    spec = NormalizedSpec(
        ("r",), ("g",),
        (compile_pattern(parse_ltl("GF r")[0], table),), (),
        (compile_pattern(parse_ltl("GF g")[0], table),), ())
    pa = build_product(spec)
    return pa, build_game(pa, spec.inputs, spec.outputs)


class TestShape:
    def test_vertex_counts(self):
        pa, game = gf_game()
        assert game.n_env_vertices == pa.n_states
        assert game.n_system_vertices == pa.n_states * game.n_inputs
        assert game.n_inputs == 2 and game.n_outputs == 2

    def test_alternation_and_ownership(self):
        _, game = gf_game()
        for v in range(game.n_vertices):
            if owner(game, v) == ENVIRONMENT:
                assert all(owner(game, t) == SYSTEM for _, t in moves(game, v))
            else:
                assert all(owner(game, t) == ENVIRONMENT for _, t in moves(game, v))

    def test_system_vertices_carry_colour_zero(self):
        pa, game = gf_game()
        for v in range(game.n_states, game.n_vertices):
            assert colour(game, v) == 0
        for v in range(game.n_states):
            assert colour(game, v) == pa.colours[v]

    def test_moves_are_total_and_letter_ordered(self):
        _, game = gf_game()
        for v in range(game.n_vertices):
            labels = [label for label, _ in moves(game, v)]
            assert labels == sorted(labels)
            assert len(labels) == (
                game.n_inputs if owner(game, v) == ENVIRONMENT else game.n_outputs)


class TestPlayRunCorrespondence:
    def test_plays_trace_the_product_run(self):
        pa, game = gf_game()
        rng = random.Random(17)
        for _ in range(200):
            decisions = [
                (rng.randrange(game.n_inputs), rng.randrange(game.n_outputs))
                for _ in range(8)
            ]
            vertex = game.initial
            visited_states = []
            run_state = pa.initial
            run_states = []
            for x, y in decisions:
                middle = env_move(game, vertex, x)
                vertex = system_move(game, middle, y)
                visited_states.append(vertex)
                letter = x | y << game.input_bits
                run_state = pa.transitions[run_state][letter]
                run_states.append(run_state)
            assert visited_states == run_states

    def test_play_verdict_matches_run_verdict(self):
        # for an ultimately periodic decision sequence, the maximum colour
        # seen infinitely often along the play equals the product run verdict
        pa, game = gf_game()
        rng = random.Random(23)
        for _ in range(100):
            stem = tuple(rng.randrange(pa.table.n_letters)
                         for _ in range(rng.randrange(3)))
            loop = tuple(rng.randrange(pa.table.n_letters)
                         for _ in range(rng.randrange(1, 4)))
            lasso = Lasso(stem, loop)
            vertex = pa.initial
            for letter in stem:
                vertex = pa.transitions[vertex][letter]
            visits = []
            for _ in range(2 * pa.n_states):
                for letter in loop:
                    x = letter & (game.n_inputs - 1)
                    y = letter >> game.input_bits
                    middle = env_move(game, vertex, x)
                    vertex = system_move(game, middle, y)
                    visits.append(vertex)
            recurring = visits[len(visits) // 2:]
            play_verdict = max(colour(game, v) for v in recurring) % 2 == 0
            assert play_verdict == eval_lasso(pa.automaton, lasso, pa.table)


class TestSolvedExamples:
    def test_single_even_state_system_wins_everywhere(self):
        table = ApTable(("r", "g"))
        game = SynthesisGame(
            table=table, input_bits=1, output_bits=1,
            n_states=1, transitions=((0, 0, 0, 0),),
            state_colours=(2,), initial=0)
        solution = solve_zielonka(game)
        assert np.array_equal(solution.system_region, np.arange(game.n_vertices))
        assert solve_progress_measures(game) == frozenset(range(game.n_vertices))

    def test_invariant_on_input_is_lost(self):
        # guarantee G r with r an input: the environment forces the failure sink
        table = ApTable(("r", "g"))
        spec = NormalizedSpec(
            ("r",), ("g",), (), (),
            (compile_pattern(parse_ltl("G r")[0], table),), ())
        pa = build_product(spec)
        game = build_game(pa, spec.inputs, spec.outputs)
        solution = solve_zielonka(game)
        assert solution.winner[game.initial] == ENVIRONMENT
        assert solve_progress_measures(game) == frozenset(solution.system_region.tolist())
        # the winning move at the initial vertex keeps r false
        letter = solution.strategy[ENVIRONMENT, game.initial]
        assert not letter & 1
