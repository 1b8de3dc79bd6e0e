#!/usr/bin/env python3
"""Seeded randomized experiments: differential oracle runs, an HOA round
trip of each random spec's product, a minimality check of every machine
synthesized for the random specs, the exhaustive differential oracle on the
2- and 3-client arbiters, a sampled lasso differential on the 3- and
4-client arbiters (with each arbiter's product size, product build time and
synthesis time), solver cross-checks on freshly generated instances, and the
solve and certification of the 2- to 4-client arbiter games in both
variants, with each arena's letter-edge and predecessor-entry counts.

Examples:
    python scripts/random_experiments.py --specs 200 --games 500 --seed 7
    python scripts/random_experiments.py --specs 50 --max-stem 3 --max-loop 3
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from rabinsynth.game import build_game
from rabinsynth.hoa import emit_hoa, parse_hoa
from rabinsynth.pipeline import (
    Realizable, differential_test, normalize_problem, sampled_differential, synthesize)
from rabinsynth.product import ASSUMPTION_DEAD, GUARANTEE_DEAD, LIVE, build_product
from rabinsynth.rand import (
    arbiter_problem, distinguishable_pairs, random_game, random_lassos,
    random_normalized_spec)
from rabinsynth.solvers import certify_strategy, solve_progress_measures, solve_zielonka


#: Games of up to 400 states, where attractors run many levels deep.
LARGE_GAMES = (40, 400)

#: (clients, unrealizable variant) of the arbiters the sampled lassos run on.
ARBITERS = ((3, False), (3, True), (4, False))

#: Seeded random lassos per arbiter.
ARBITER_LASSOS = 2000

#: (clients, unrealizable variant) of the arbiters the exhaustive oracle runs
#: on, over all 2 * clients propositions, at stems of at most 1 letter and
#: loops of at most 2.
EXHAUSTIVE_ARBITERS = ((2, False), (2, True), (3, False), (3, True))

#: (clients, unrealizable variant) of the arbiters whose solved games are
#: certified.
CERTIFIED_ARBITERS = tuple((n, u) for n in (2, 3, 4) for u in (False, True))


def run_differential(args) -> int:
    """Product against the conjunct oracle on all small lassos of each random
    spec; each spec's product is written as HOA and read back, and each
    realizable spec's machine is checked to have no two equivalent states."""
    rng = random.Random(args.seed)
    mismatching = 0
    checked = 0
    machines = 0
    not_minimal = 0
    not_read_back = 0
    reached = {GUARANTEE_DEAD: 0, ASSUMPTION_DEAD: 0}
    started = time.perf_counter()
    for i in range(args.specs):
        spec = random_normalized_spec(rng)
        report = differential_test(spec, args.max_stem, args.max_loop)
        checked += report.checked
        if report.mismatches:
            mismatching += 1
            print(f"  spec {i}: {report.mismatches} mismatches")
        for region in reached:
            reached[region] += region in report.regions
        pa = build_product(spec)
        parsed, _ = parse_hoa(emit_hoa(pa.automaton, pa.table))
        if (parsed.targets.tolist() != pa.transitions.tolist()
                or parsed.acceptance.colours != pa.colours):
            not_read_back += 1
            print(f"  spec {i}: product HOA reads back differently")
        outcome = synthesize(spec)
        if isinstance(outcome, Realizable):
            machines += 1
            n = outcome.machine.n_states
            if len(distinguishable_pairs(outcome.machine)) < n * (n - 1) // 2:
                not_minimal += 1
                print(f"  spec {i}: machine has equivalent states")
    elapsed = time.perf_counter() - started
    print(f"differential: {args.specs} specs, {checked} lassos, "
          f"{mismatching} bad specs; {reached[GUARANTEE_DEAD]} specs reach the "
          f"guarantee-dead region, {reached[ASSUMPTION_DEAD]} the assumption "
          f"sink; {not_read_back} products read back differently; {machines} "
          f"machines, {not_minimal} not minimal; {elapsed:.2f}s")
    return mismatching + not_read_back + not_minimal


def run_arbiter_oracle() -> int:
    """Product against the conjunct oracle on every short lasso over the 2-
    and 3-client arbiters and their unrealizable variants."""
    mismatches = 0
    for n, unrealizable in EXHAUSTIVE_ARBITERS:
        spec = normalize_problem(arbiter_problem(n, unrealizable=unrealizable))
        started = time.perf_counter()
        report = differential_test(spec, 1, 2, max_aps=2 * n)
        elapsed = time.perf_counter() - started
        print(f"arbiter oracle: {'unrealizable ' if unrealizable else ''}{n}-client, "
              f"{report.checked} lassos, {report.mismatches} mismatches, {elapsed:.3f}s")
        mismatches += report.mismatches
    return mismatches


def run_arbiter_lassos(args) -> int:
    """Product against the conjunct oracle on seeded random lassos over the
    3-client arbiter, its unrealizable variant and the 4-client arbiter; each
    arbiter's product size, product build time and synthesis time (one run
    each) are printed too."""
    rng = random.Random(args.seed + 2)
    disagreements = 0
    ends = {LIVE: 0, GUARANTEE_DEAD: 0}
    sizes = []
    started = time.perf_counter()
    for n, unrealizable in ARBITERS:
        spec = normalize_problem(arbiter_problem(n, unrealizable=unrealizable))
        built = time.perf_counter()
        pa = build_product(spec)
        built = time.perf_counter() - built
        synthesized = time.perf_counter()
        synthesize(spec)
        synthesized = time.perf_counter() - synthesized
        sizes.append(f"{'unrealizable ' if unrealizable else ''}{n}-client "
                     f"{pa.n_states} states, product {built:.3f}s, "
                     f"synthesis {synthesized:.3f}s")
        lassos = random_lassos(rng, pa.table.n_letters, ARBITER_LASSOS)
        mismatches, arbiter_ends = sampled_differential(spec, pa, lassos)
        if mismatches:
            print(f"  {n}-client arbiter (unrealizable={unrealizable}): "
                  f"{mismatches} disagreements")
        disagreements += mismatches
        for region in ends:
            ends[region] += arbiter_ends[region]
    elapsed = time.perf_counter() - started
    print(f"arbiter lassos: {len(ARBITERS)} arbiters x {ARBITER_LASSOS} "
          f"lassos, {disagreements} disagreements; {ends[GUARANTEE_DEAD]} end in "
          f"the guarantee-dead region, {ends[LIVE]} in the live one; "
          f"{'; '.join(sizes)}; {elapsed:.2f}s")
    return disagreements


def run_solver_cross_check(args) -> int:
    """Zielonka against progress measures, plus certification, on a batch of
    small games and a batch of larger ones, where attractors run more levels."""
    rng = random.Random(args.seed + 1)
    batches = [(args.games, args.max_game_states), LARGE_GAMES]
    disagreements = 0
    started = time.perf_counter()
    for count, max_states in batches:
        for i in range(count):
            game = random_game(rng, max_states=max_states)
            solution = solve_zielonka(game)
            if solve_progress_measures(game) != frozenset(solution.system_region.tolist()):
                disagreements += 1
                print(f"  game {i} (<= {max_states} states): winning regions disagree")
            elif certify_strategy(game, solution) is not None:
                disagreements += 1
                print(f"  game {i} (<= {max_states} states): certification failed")
    elapsed = time.perf_counter() - started
    sizes = " + ".join(f"{count} games of <= {max_states} states"
                       for count, max_states in batches)
    print(f"solvers: {sizes}, {disagreements} disagreements, {elapsed:.2f}s")
    return disagreements


def run_arbiter_certificates() -> int:
    """Solve and certify each arbiter game, 2 to 4 clients in both variants;
    the solve (with the arena it builds) and the certification are timed on
    their own, and the arena's letter edges and its predecessor entries, one
    per distinct (source, target) pair, are counted."""
    failures = 0
    times = []
    for n, unrealizable in CERTIFIED_ARBITERS:
        spec = normalize_problem(arbiter_problem(n, unrealizable=unrealizable))
        game = build_game(build_product(spec), spec.inputs, spec.outputs)
        started = time.perf_counter()
        solution = solve_zielonka(game)
        solved = time.perf_counter()
        counterexample = certify_strategy(game, solution)
        certified = time.perf_counter()
        name = f"{'unrealizable ' if unrealizable else ''}{n}-client"
        if counterexample is not None:
            failures += 1
            print(f"  {name} arbiter: certification failed: {counterexample.reason}")
        times.append(f"{name} {game.n_vertices} vertices, {game.arena.succ_flat.size} "
                     f"letter edges, {game.arena.pred_src.size} predecessor entries, "
                     f"solve {solved - started:.3f}s, certify {certified - solved:.3f}s")
    print(f"arbiter certificates: {len(CERTIFIED_ARBITERS)} arbiters, {failures} "
          f"disagreements;\n  " + ";\n  ".join(times))
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--specs", type=int, default=100)
    parser.add_argument("--games", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-stem", type=int, default=2)
    parser.add_argument("--max-loop", type=int, default=3)
    parser.add_argument("--max-game-states", type=int, default=50)
    args = parser.parse_args()
    bad = (run_differential(args) + run_arbiter_oracle()
           + run_arbiter_lassos(args) + run_solver_cross_check(args)
           + run_arbiter_certificates())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
