"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run pytest with ``-s`` to see them
live) and enforces its runtime budget.
"""

import json
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np

from rabinsynth.automata import Parity
from rabinsynth.cli import load_spec_problem
from rabinsynth.hoa import emit_hoa, parse_hoa
from rabinsynth.ltl import compile_pattern, parse_ltl
from rabinsynth.boolexpr import ApTable
from rabinsynth.mealy import machine_from_json, machine_to_json
from rabinsynth.pipeline import (
    Realizable,
    Unrealizable,
    differential_test,
    normalize_problem,
    sampled_differential,
    synthesize,
    verify_mealy,
)
from rabinsynth.product import (
    ASSUMPTION_DEAD,
    GUARANTEE_DEAD,
    NormalizedSpec,
    build_product,
    raw_product_bound,
)
from rabinsynth.rand import random_game, random_lassos, random_normalized_spec
from rabinsynth.solvers import certify_strategy, solve_progress_measures, solve_zielonka

from helpers import letter_table

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SEED = 20_240_915


class _Criterion:
    def __init__(self, number: int, label: str, budget_seconds: float):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"[criterion {self.number}] {self.label}: {status} "
              f"({elapsed:.2f}s, limit {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)")
        return False


def corpus_specs() -> list[tuple[str, NormalizedSpec]]:
    specs = []
    for path in sorted(CORPUS.glob("*.json")):
        if path.name.endswith(".expected.json"):
            continue
        specs.append((path.name, normalize_problem(load_spec_problem(path))))
    return specs


def random_specs(count: int, *, buchi_only: bool = False) -> list[NormalizedSpec]:
    rng = random.Random(SEED)
    return [random_normalized_spec(rng, buchi_only=buchi_only)
            for _ in range(count)]


def is_buchi_only(spec: NormalizedSpec) -> bool:
    return not spec.cobuchi_assumptions and not spec.cobuchi_guarantees


def gf_spec() -> NormalizedSpec:
    table = ApTable(("r", "g"))
    return NormalizedSpec(
        ("r",), ("g",),
        (compile_pattern(parse_ltl("GF r")[0], table),), (),
        (compile_pattern(parse_ltl("GF g")[0], table),), ())


def test_criterion_1_colour_bound():
    with _Criterion(1, "colour bound <= 4 on corpus and 500 random specs", 10.0):
        population = [spec for _, spec in corpus_specs()] + random_specs(500)
        assert len(population) >= 506
        for spec in population:
            pa = build_product(spec)
            assert set(pa.colours) <= {0, 1, 2, 3, 4}


def test_criterion_2_gr1_degeneration():
    with _Criterion(2, "Buchi-only specs use colours {0,1,2}", 5.0):
        population = [spec for _, spec in corpus_specs()] + random_specs(200)
        population += random_specs(100, buchi_only=True)
        checked = 0
        for spec in population:
            if not is_buchi_only(spec):
                continue
            checked += 1
            pa = build_product(spec)
            assert set(pa.colours) <= {0, 1, 2}
        assert checked >= 100, "population must contain Buchi-only specs"


def test_criterion_3_state_space_bound():
    with _Criterion(3, "reachable product within the raw bound", 5.0):
        assert raw_product_bound(gf_spec()) == 32
        population = [spec for _, spec in corpus_specs()] + random_specs(300)
        for spec in population:
            pa = build_product(spec)
            assert pa.n_states <= raw_product_bound(spec)


def test_criterion_4_differential_oracle():
    with _Criterion(
            4, "product verdicts match the conjunct oracle on all lassos", 120.0):
        for name, spec in corpus_specs():
            width = len(spec.inputs) + len(spec.outputs)
            report = differential_test(spec, 2, 3, max_aps=max(3, width))
            assert report.mismatches == 0, name
            assert report.checked > 0
        for i, spec in enumerate(random_specs(500)):
            report = differential_test(spec, 2, 3)
            assert report.mismatches == 0, f"random spec {i}"


def test_criterion_4_reaches_both_collapsed_regions():
    # the random specs of criterion 4 must include many whose product has a
    # guarantee-dead region and many whose product has the assumption sink,
    # so that the exhaustive oracle covers both.  That oracle reads every
    # conjunct a collapsed state no longer tracks as failing, so it cannot
    # tell a wrongly collapsed state; sampled lassos, checked against the
    # conjunct automata themselves, can.
    rng = random.Random(SEED)
    reached: Counter[int] = Counter()
    ends: Counter[int] = Counter()
    for i, spec in enumerate(random_specs(500)):
        pa = build_product(spec)
        reached.update({state.region for state in pa.states})
        lassos = random_lassos(rng, pa.table.n_letters, 40)
        mismatches, spec_ends = sampled_differential(spec, pa, lassos)
        assert mismatches == 0, f"random spec {i}"
        ends.update(spec_ends)
    assert reached[GUARANTEE_DEAD] >= 100
    assert reached[ASSUMPTION_DEAD] >= 100
    assert ends[GUARANTEE_DEAD] >= 2000
    assert ends[ASSUMPTION_DEAD] >= 2000


def test_criterion_5_solver_cross_check():
    with _Criterion(
            5, "Zielonka vs progress measures on 1000 games, all certified", 60.0):
        rng = random.Random(SEED + 1)
        for i in range(1000):
            game = random_game(rng, max_states=50)
            solution = solve_zielonka(game)
            # the two regions partition the vertices
            regions = np.concatenate([solution.system_region, solution.env_region])
            assert np.array_equal(np.sort(regions), np.arange(game.n_vertices))
            assert solve_progress_measures(game) == frozenset(
                solution.system_region.tolist()), i
            assert certify_strategy(game, solution) is None, i


def test_criterion_6_corpus_verdicts():
    with _Criterion(6, "corpus verdicts with certified machines", 10.0):
        expected = {}
        for path in sorted(CORPUS.glob("*.expected.json")):
            spec_name = path.name.replace(".expected.json", ".json")
            expected[spec_name] = json.loads(path.read_text())["realizable"]
        assert expected["arbiter.json"] is True
        assert expected["unrealizable_gr.json"] is False
        assert expected["gf_arbiter.json"] is True
        assert expected["robust_mutex.json"] is True

        for name, realizable in expected.items():
            problem = load_spec_problem(CORPUS / name)
            outcome = synthesize(problem)
            assert isinstance(
                outcome, Realizable if realizable else Unrealizable), name
            if isinstance(outcome, Realizable):
                pa = build_product(normalize_problem(problem))
                assert verify_mealy(outcome.machine, pa) is None, name
            else:
                assert outcome.counterstrategy, name
        # the unrealizable invariant-on-input spec: the counterstrategy
        # withholds r everywhere
        outcome = synthesize(load_spec_problem(CORPUS / "unrealizable_gr.json"))
        assert all(letter == 0 for letter in outcome.counterstrategy.values())


def test_criterion_7_round_trips():
    with _Criterion(7, "HOA and machine JSON round-trips are stable", 5.0):
        for name, spec in corpus_specs():
            table = spec.table()
            for aut in spec.components:
                text = emit_hoa(aut, table)
                parsed, parsed_table = parse_hoa(text)
                assert parsed.n_states == aut.n_states
                assert parsed.initial == aut.initial
                assert parsed_table.names == table.names
                assert letter_table(parsed, parsed_table) == letter_table(aut, table)
                assert parsed.acceptance == aut.acceptance
                assert emit_hoa(parsed, parsed_table) == text
            pa = build_product(spec)
            text = emit_hoa(pa.automaton, table)
            assert "acc-name: parity max even 5" in text
            parsed, parsed_table = parse_hoa(text)
            assert isinstance(parsed.acceptance, Parity)
            assert parsed.acceptance.colours == pa.colours
            assert letter_table(parsed, parsed_table) == [
                list(row) for row in pa.transitions]
            assert emit_hoa(parsed, parsed_table) == text

            problem = load_spec_problem(CORPUS / name)
            outcome = synthesize(problem)
            if isinstance(outcome, Realizable):
                text = machine_to_json(outcome.machine)
                assert machine_to_json(machine_from_json(text)) == text
