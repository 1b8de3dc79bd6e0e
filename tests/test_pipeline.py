import dataclasses
import json
import random
from pathlib import Path

import pytest

from rabinsynth.automata import (
    Buchi, Lasso, OmegaAutomaton, OnePairRabin, Safety, decompose_rabin, eval_lasso)
from rabinsynth.boolexpr import ApTable, Lit, Not, Var
from rabinsynth.game import ENVIRONMENT, SYSTEM, build_game
from rabinsynth.hoa import emit_hoa, parse_hoa
from rabinsynth.ltl import compile_pattern, parse_ltl
from rabinsynth.mealy import (
    MealyMachine,
    machine_from_dict,
    machine_from_json,
    machine_to_dict,
    machine_to_dot,
    machine_to_json,
    minimise,
)
from rabinsynth.pipeline import (
    CapacityExceeded,
    ConjunctSource,
    IncompatibleAlphabets,
    NormalizationError,
    Realizable,
    SpecProblem,
    Unrealizable,
    differential_test,
    extract_mealy,
    lasso_oracle,
    normalize_problem,
    synthesize,
    verify_mealy,
)
from rabinsynth.product import NormalizedSpec, build_product
from rabinsynth.rand import arbiter_problem, distinguishable_pairs, random_normalized_spec
from rabinsynth.solvers import solve_zielonka

from helpers import (
    all_lassos,
    induced_lasso,
    letter_edges,
    machine_outputs,
    random_machine,
    reference_machine_to_dict,
    reference_machine_to_dot,
    reference_machine_to_json,
    same_automaton,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
REALIZABLE_CORPUS = (
    "arbiter.json", "gf_arbiter.json", "gf_arbiter_hoa.json", "robust_mutex.json")
ALL_CORPUS = REALIZABLE_CORPUS + ("robust_mutex_literal.json", "unrealizable_gr.json")


def load_problem(name: str) -> SpecProblem:
    from rabinsynth.cli import load_spec_problem

    return load_spec_problem(CORPUS / name)


def gf_spec() -> NormalizedSpec:
    table = ApTable(("r", "g"))
    return NormalizedSpec(
        ("r",), ("g",),
        (compile_pattern(parse_ltl("GF r")[0], table),), (),
        (compile_pattern(parse_ltl("GF g")[0], table),), ())


def two_state_hoa(name: str, acceptance) -> str:
    """A document over one proposition: state 0 stays while it holds, state 1
    absorbs."""
    p = Var(name)
    table = ApTable((name,))
    aut = OmegaAutomaton.from_edges(
        table, 0, letter_edges((((p, 0), (Not(p), 1)), ((Lit(True), 1),)), table), acceptance)
    return emit_hoa(aut, table)


class TestNormalizeProblem:
    def test_each_set_keeps_source_order(self):
        # the product's component order, and so its state numbering, is the
        # order of each set
        rabin = OnePairRabin(persistent=frozenset({0}), recurrent=frozenset({0}))
        rabin_b, rabin_x = two_state_hoa("b", rabin), two_state_hoa("x", rabin)
        safety_b, safety_y = two_state_hoa("b", Safety()), two_state_hoa("y", Safety())
        problem = SpecProblem(
            ("a", "b"), ("x", "y"),
            (ConjunctSource(ltl="G F a"), ConjunctSource(hoa=rabin_b),
             ConjunctSource(ltl="F G a"), ConjunctSource(hoa=safety_b),
             ConjunctSource(ltl="G F b")),
            (ConjunctSource(ltl="F G x"), ConjunctSource(hoa=safety_y),
             ConjunctSource(ltl="G F y"), ConjunctSource(hoa=rabin_x),
             ConjunctSource(ltl="F G y")))
        table = ApTable(("a", "b", "x", "y"))

        def ltl(text):
            return compile_pattern(parse_ltl(text)[0], table)

        def safe(text):
            return dataclasses.replace(parse_hoa(text)[0], acceptance=Buchi(frozenset({0})))

        rabin_b_co, rabin_b_bu = decompose_rabin(parse_hoa(rabin_b)[0])
        rabin_x_co, rabin_x_bu = decompose_rabin(parse_hoa(rabin_x)[0])
        spec = normalize_problem(problem)

        def same(got, expected):
            return len(got) == len(expected) and all(map(same_automaton, got, expected))

        assert same(spec.buchi_assumptions,
                    (ltl("G F a"), rabin_b_bu, safe(safety_b), ltl("G F b")))
        assert same(spec.cobuchi_assumptions, (rabin_b_co, ltl("F G a")))
        assert same(spec.buchi_guarantees, (safe(safety_y), ltl("G F y"), rabin_x_bu))
        assert same(spec.cobuchi_guarantees, (ltl("F G x"), rabin_x_co, ltl("F G y")))

    def test_more_than_twenty_propositions_are_refused(self):
        problem = SpecProblem(
            tuple(f"i{k}" for k in range(21)), ("o",), (), (ConjunctSource(ltl="G o"),))
        with pytest.raises(NormalizationError, match="limit of 20"):
            normalize_problem(problem)

    @pytest.mark.parametrize("name", ["false", "true", "F", "GF", "XUG"])
    def test_proposition_pattern_text_cannot_name_is_refused(self, name):
        # "G false" would read as the constant, "G F" as two operators
        problem = SpecProblem(("i",), (name,), (), (ConjunctSource(ltl=f"G {name}"),))
        with pytest.raises(NormalizationError, match=repr(name)):
            normalize_problem(problem)
        problem = SpecProblem(
            (name,), ("o",), (ConjunctSource(hoa=two_state_hoa(name, Safety())),),
            (ConjunctSource(ltl="G o"),))
        with pytest.raises(NormalizationError, match=repr(name)):
            normalize_problem(problem)

    def test_automaton_conjuncts_may_name_any_proposition(self):
        problem = SpecProblem(
            ("false",), ("GF",), (ConjunctSource(hoa=two_state_hoa("false", Safety())),),
            (ConjunctSource(hoa=two_state_hoa("GF", Safety())),))
        assert isinstance(synthesize(problem), Realizable)


class TestSynthesize:
    def test_arbiter_realizable_and_grants_requests(self):
        outcome = synthesize(load_problem("arbiter.json"))
        assert isinstance(outcome, Realizable)
        machine = outcome.machine
        request = 1  # single input proposition
        for s in range(machine.n_states):
            _, output = machine.transitions[s][request]
            assert output & 1, "a request must be granted in the same cycle"

    def test_unrealizable_invariant_on_input(self):
        outcome = synthesize(load_problem("unrealizable_gr.json"))
        assert isinstance(outcome, Unrealizable)
        # the positional counterstrategy keeps r false everywhere
        assert outcome.counterstrategy
        assert all(letter == 0 for letter in outcome.counterstrategy.values())
        assert outcome.initial_vertex in outcome.counterstrategy

    def test_long_guarantee_chain_synthesizes(self):
        # G (a | b | a | ...): 1,600 literals in one flat chain
        chain = " | ".join(["a", "b"] * 800)
        outcome = synthesize(SpecProblem(("a",), ("b",), (), (ConjunctSource(ltl=f"G ({chain})"),)))
        assert isinstance(outcome, Realizable)

    def test_recurrence_implication_realizable(self):
        outcome = synthesize(load_problem("gf_arbiter.json"))
        assert isinstance(outcome, Realizable)

    def test_hoa_file_conjunct(self):
        outcome = synthesize(load_problem("gf_arbiter_hoa.json"))
        assert isinstance(outcome, Realizable)

    def test_robust_mutex_corrected_realizable(self):
        outcome = synthesize(load_problem("robust_mutex.json"))
        assert isinstance(outcome, Realizable)
        machine = outcome.machine
        # mutual exclusion holds on every reachable transition
        for s in range(machine.n_states):
            for x in range(4):
                _, y = machine.transitions[s][x]
                assert y != 0b11

    def test_robust_mutex_literal_unrealizable(self):
        outcome = synthesize(load_problem("robust_mutex_literal.json"))
        assert isinstance(outcome, Unrealizable)

    def test_realizable_iff_initial_wins(self):
        for name in ("arbiter.json", "unrealizable_gr.json", "robust_mutex.json"):
            problem = load_problem(name)
            spec = normalize_problem(problem)
            pa = build_product(spec)
            game = build_game(pa, spec.inputs, spec.outputs)
            solution = solve_zielonka(game)
            outcome = synthesize(problem)
            assert isinstance(outcome, Realizable) == (
                solution.winner[game.initial] == SYSTEM)

    def test_counterstrategy_is_the_reachable_slice(self):
        problem = load_problem("unrealizable_gr.json")
        spec = normalize_problem(problem)
        pa = build_product(spec)
        game = build_game(pa, spec.inputs, spec.outputs)
        solution = solve_zielonka(game)
        outcome = synthesize(problem)
        for v in outcome.counterstrategy:
            assert solution.winner[v] == ENVIRONMENT
            assert v < game.n_states  # environment vertices only

    def test_zero_guarantees_gives_constant_machine(self):
        problem = SpecProblem(
            ("r",), ("g",), (ConjunctSource(ltl="GF r"),), ())
        outcome = synthesize(problem)
        assert isinstance(outcome, Realizable)
        assert outcome.machine.n_states == 1
        assert all(
            target == 0 and output == 0
            for target, output in outcome.machine.transitions[0])

    def test_machine_output_is_deterministic(self):
        first = synthesize(load_problem("robust_mutex.json"))
        second = synthesize(load_problem("robust_mutex.json"))
        assert machine_to_json(first.machine) == machine_to_json(second.machine)

    def test_machine_language_is_included_in_the_specification(self):
        # every induced word of a synthesized machine satisfies the oracle
        for name in REALIZABLE_CORPUS:
            problem = load_problem(name)
            spec = normalize_problem(problem)
            outcome = synthesize(problem)
            machine = outcome.machine
            in_table = machine.input_table()
            for input_lasso in all_lassos(in_table, 2, 2):
                word = induced_lasso(machine, input_lasso)
                assert lasso_oracle(spec, word), (name, input_lasso)

    def test_solvers_agree_on_every_corpus_spec(self):
        from rabinsynth.solvers import solve_progress_measures

        for name in ALL_CORPUS:
            spec = normalize_problem(load_problem(name))
            pa = build_product(spec)
            game = build_game(pa, spec.inputs, spec.outputs)
            solution = solve_zielonka(game)
            region = solve_progress_measures(game)
            assert region == frozenset(solution.system_region.tolist()), name
            assert (game.initial in region) == (
                solution.winner[game.initial] == SYSTEM)

    def test_inline_hoa_conjunct(self):
        hoa_text = (CORPUS / "gf_r.hoa").read_text(encoding="utf-8")
        problem = SpecProblem(
            ("r",), ("g",),
            (ConjunctSource(hoa=hoa_text),),
            (ConjunctSource(ltl="GF g"),))
        outcome = synthesize(problem)
        assert isinstance(outcome, Realizable)

    def test_top_level_and_beside_or_is_refused(self):
        # read as "(o | i) & !o" the guarantee is unrealizable; read by the
        # grammar's precedence, "o | (i & !o)", it is realizable
        def problem(text):
            return SpecProblem(("i",), ("o",), (), (ConjunctSource(ltl=text),))

        with pytest.raises(NormalizationError, match="parenthesise"):
            synthesize(problem("o | i & !o"))
        assert isinstance(synthesize(problem("o | (i & !o)")), Realizable)
        assert isinstance(synthesize(problem("(o | i) & !o")), Unrealizable)

    def test_unknown_proposition_is_a_normalization_error(self):
        from rabinsynth.pipeline import NormalizationError

        problem = SpecProblem(
            ("r",), ("g",), (), (ConjunctSource(ltl="G unknown_ap"),))
        with pytest.raises(NormalizationError, match="unknown_ap"):
            synthesize(problem)

    @pytest.mark.parametrize("inputs", [
        (["x"],), (1,), tuple(f"p{i}" for i in range(22)), ("r", "r")],
        ids=["unhashable", "not-a-name", "too-many", "duplicate"])
    def test_bad_proposition_list_is_a_normalization_error(self, inputs):
        problem = SpecProblem(inputs, ("g",), (), (ConjunctSource(ltl="GF g"),))
        with pytest.raises(NormalizationError, match="proposition"):
            normalize_problem(problem)

    def test_empty_output_alphabet(self):
        # guarantees over inputs only still synthesize (one output letter)
        realizable = SpecProblem(
            ("r",), (), (ConjunctSource(ltl="GF r"),),
            (ConjunctSource(ltl="GF r"),))
        outcome = synthesize(realizable)
        assert isinstance(outcome, Realizable)
        assert differential_test(
            normalize_problem(realizable), 2, 3).mismatches == 0

        hopeless = SpecProblem(
            ("r",), (), (), (ConjunctSource(ltl="G r"),))
        outcome = synthesize(hopeless)
        assert isinstance(outcome, Unrealizable)
        assert all(letter == 0 for letter in outcome.counterstrategy.values())

    def test_empty_input_alphabet(self):
        problem = SpecProblem((), ("g",), (), (ConjunctSource(ltl="G g"),))
        outcome = synthesize(problem)
        assert isinstance(outcome, Realizable)
        machine = outcome.machine
        assert machine.inputs == ()
        # single input letter, grant always emitted
        for row in machine.transitions:
            assert len(row) == 1
            assert row[0][1] == 1
        text = machine_to_json(machine)
        assert machine_to_json(machine_from_json(text)) == text


class TestExtract:
    def test_machine_states_within_winning_region(self):
        spec = gf_spec()
        pa = build_product(spec)
        game = build_game(pa, spec.inputs, spec.outputs)
        solution = solve_zielonka(game)
        machine = extract_mealy(game, solution)
        assert machine.n_states <= len(
            [v for v in solution.system_region if v < game.n_states])
        # totality over the input alphabet
        for row in machine.transitions:
            assert len(row) == 2


def is_minimal(machine: MealyMachine) -> bool:
    n = machine.n_states
    return len(distinguishable_pairs(machine)) == n * (n - 1) // 2


def reachable_states(machine: MealyMachine) -> set[int]:
    seen = {machine.initial}
    stack = [machine.initial]
    while stack:
        for target, _ in machine.transitions[stack.pop()]:
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


def side_by_side(first: MealyMachine, second: MealyMachine) -> MealyMachine:
    """Both machines as one, the second's states after the first's."""
    shifted = tuple(tuple((t + first.n_states, y) for t, y in row)
                    for row in second.transitions)
    return dataclasses.replace(
        first, n_states=first.n_states + second.n_states,
        transitions=first.transitions + shifted)


class TestMinimise:
    def test_corpus_and_arbiter_machines_are_minimal(self):
        problems = [load_problem(name) for name in ALL_CORPUS]
        problems += [arbiter_problem(2), arbiter_problem(3)]
        machines = [outcome.machine for outcome in map(synthesize, problems)
                    if isinstance(outcome, Realizable)]
        assert len(machines) == len(REALIZABLE_CORPUS) + 2
        assert all(is_minimal(machine) for machine in machines)

    @pytest.mark.parametrize("n, states", [(2, 21), (3, 69)])
    def test_arbiter_machine_sizes(self, n, states):
        outcome = synthesize(arbiter_problem(n))
        assert outcome.machine.n_states == states
        assert outcome.stats.machine_states == states

    def test_random_spec_machines_are_minimal(self):
        rng = random.Random(8)
        realizable = 0
        for _ in range(240):
            outcome = synthesize(random_normalized_spec(rng))
            if isinstance(outcome, Realizable):
                realizable += 1
                assert is_minimal(outcome.machine)
        assert realizable >= 100

    def test_preserves_behaviour_on_random_machines(self):
        rng = random.Random(3)
        shrunk = unreachable = no_inputs = single = 0
        for _ in range(400):
            machine = random_machine(rng)
            small = minimise(machine)
            n_inputs = 1 << len(machine.inputs)
            for _ in range(10):
                word = [rng.randrange(n_inputs) for _ in range(rng.randint(0, 16))]
                assert machine_outputs(small, word) == machine_outputs(machine, word)
            # exact: the two initial states are equivalent in the joint machine
            joint = side_by_side(machine, small)
            assert (machine.initial, machine.n_states + small.initial) not in (
                distinguishable_pairs(joint))
            assert is_minimal(small)
            assert reachable_states(small) == set(range(small.n_states))
            assert minimise(small) == small
            shrunk += small.n_states < len(reachable_states(machine))
            unreachable += len(reachable_states(machine)) < machine.n_states
            no_inputs += not machine.inputs
            single += machine.n_states == 1
        assert min(shrunk, unreachable, no_inputs, single) >= 20

    def test_keeps_a_minimal_machine_and_numbers_it_breadth_first(self):
        # 0 -a-> 2, 0 -b-> 1: renumbered so that the a-successor comes first
        machine = MealyMachine(
            inputs=("b",), outputs=("g",), n_states=3, initial=0,
            transitions=(((2, 0), (1, 1)), ((1, 1), (0, 0)), ((0, 1), (0, 0))))
        assert minimise(machine).transitions == (
            ((1, 0), (2, 1)), ((0, 1), (0, 0)), ((2, 1), (0, 0)))


class TestVerify:
    def constant_machine(self, output: int) -> MealyMachine:
        return MealyMachine(
            inputs=("request",), outputs=("grant",), n_states=1, initial=0,
            transitions=(((0, output), (0, output)),))

    def arbiter_product(self):
        return build_product(normalize_problem(load_problem("arbiter.json")))

    def test_always_grant_passes(self):
        assert verify_mealy(self.constant_machine(1), self.arbiter_product()) is None

    def test_never_grant_fails_with_request_witness(self):
        pa = self.arbiter_product()
        violation = verify_mealy(self.constant_machine(0), pa)
        assert violation is not None
        lasso = violation.lasso
        # the witness raises a request that is never granted and the product
        # rejects it (the failure sink carries the odd-dominated cycle)
        assert any(letter & 1 for letter in lasso.stem + lasso.loop)
        assert not eval_lasso(pa.automaton, lasso, pa.table)
        # the lasso is consistent with the machine: outputs stay empty
        assert all(not letter >> 1 & 1 for letter in lasso.stem + lasso.loop)

    def test_empty_specification_accepts_any_machine(self):
        spec = NormalizedSpec(("request",), ("grant",), (), (), (), ())
        pa = build_product(spec)
        for output in (0, 1):
            assert verify_mealy(self.constant_machine(output), pa) is None

    def test_incompatible_alphabets(self):
        machine = MealyMachine(
            inputs=("x",), outputs=("grant",), n_states=1, initial=0,
            transitions=(((0, 0), (0, 0)),))
        with pytest.raises(IncompatibleAlphabets):
            verify_mealy(machine, self.arbiter_product())

    @pytest.mark.parametrize("n_states, initial, transitions", [
        (1, 0, (((0, 1),),)),                 # a row that covers input 0 only
        (1, 0, (((0, -1), (0, -1)),)),        # an output letter below 0
        (1, 0, (((0, 3), (0, 3)),)),          # an output letter beyond one output proposition
        (1, 0, (((0, 1), (1, 1)),)),          # a target beyond the one state
        (2, 0, (((1, 1), (1, 1)),)),          # no row for state 1
        (1, 1, (((0, 1), (0, 1)),)),          # an initial state beyond the one state
    ], ids=["short row", "negative output", "output beyond the outputs", "target beyond",
            "missing row", "initial beyond"])
    def test_malformed_machine_is_refused(self, n_states, initial, transitions):
        machine = MealyMachine(inputs=("request",), outputs=("grant",), n_states=n_states,
                               initial=initial, transitions=transitions)
        with pytest.raises(ValueError, match="needs one transition"):
            verify_mealy(machine, self.arbiter_product())

    def test_witnesses_of_mutated_machines_are_violating_runs(self):
        """Each synthesized machine with one transition redirected or one
        output changed: every witness found is a run of the mutated machine
        that the oracle and the product both reject."""
        rng = random.Random(20_261_020)
        problems = [load_problem(name) for name in REALIZABLE_CORPUS]
        problems += [arbiter_problem(n) for n in (2, 3)]
        violations = 0
        for problem in problems:
            spec = normalize_problem(problem)
            pa = build_product(spec)
            machine = synthesize(spec).machine
            bits = len(machine.inputs)
            for _ in range(40):
                rows = [list(row) for row in machine.transitions]
                s, x = rng.randrange(machine.n_states), rng.randrange(1 << bits)
                target, y = rows[s][x]
                rows[s][x] = ((rng.randrange(machine.n_states), y) if rng.random() < 0.5
                              else (target, rng.randrange(1 << len(machine.outputs))))
                mutated = dataclasses.replace(
                    machine, transitions=tuple(tuple(row) for row in rows))
                violation = verify_mealy(mutated, pa)
                if violation is None:
                    continue
                violations += 1
                lasso = violation.lasso
                assert not lasso_oracle(spec, lasso)
                assert not eval_lasso(pa.automaton, lasso, pa.table)
                # the machine emits every output of the word, and its state
                # comes back to where the loop started
                state = mutated.initial
                for i, letter in enumerate(lasso.stem + lasso.loop):
                    if i == len(lasso.stem):
                        loop_start = state
                    state, y = mutated.transitions[state][letter & (1 << bits) - 1]
                    assert y == letter >> bits
                assert state == loop_start
        assert violations >= 40


class TestLassoOracle:
    def test_no_guarantees_is_vacuously_true(self):
        spec = NormalizedSpec(("r",), ("g",), (), (), (), ())
        for lasso in all_lassos(spec.table(), 1, 2):
            assert lasso_oracle(spec, lasso)

    def test_failing_assumption_accepts(self):
        spec = gf_spec()
        never_r = Lasso((), (0,))
        assert lasso_oracle(spec, never_r)

    def test_held_assumption_and_failing_guarantee_rejects(self):
        spec = gf_spec()
        r_no_g = Lasso((), (spec.table().letter(["r"]),))
        assert not lasso_oracle(spec, r_no_g)

    def test_matches_conjunct_evaluation(self):
        spec = gf_spec()
        table = spec.table()
        for lasso in all_lassos(table, 2, 2):
            assumption_rejects = not eval_lasso(
                spec.buchi_assumptions[0], lasso, table)
            guarantee_accepts = eval_lasso(
                spec.buchi_guarantees[0], lasso, table)
            assert lasso_oracle(spec, lasso) == (
                assumption_rejects or guarantee_accepts)

    def test_long_guard_chain_gets_a_verdict(self):
        # "F r" with a 1,600-literal guard; the conjunct reads over ("r",),
        # the problem over ("r", "g")
        chain = " | ".join(["0"] * 1600)
        text = (f'HOA: v1\nStates: 2\nStart: 0\nAP: 1 "r"\nacc-name: Buchi\n'
                f'Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n[{chain}] 1\n[!0] 0\n'
                f'State: 1 {{0}}\n[t] 1\n--END--\n')
        aut, own = parse_hoa(text)
        spec = normalize_problem(SpecProblem(("r",), ("g",), (), (ConjunctSource(hoa=text),)))
        table = spec.table()
        r = table.letter(["r"])
        for lasso, holds in ((Lasso((0, r | 2), (2,)), True), (Lasso((), (0, 2)), False)):
            assert eval_lasso(aut, lasso, table) is holds
            own_word = (tuple(a & 1 for a in word) for word in (lasso.stem, lasso.loop))
            assert eval_lasso(aut, Lasso(*own_word), own) is holds
            assert lasso_oracle(spec, lasso) is holds


class TestLetterTables:
    """Guards are evaluated when a conjunct automaton is made, and never after."""

    @pytest.mark.parametrize("problem", [
        arbiter_problem(2), load_problem("gf_arbiter_hoa.json")], ids=["arbiter2", "gf_hoa"])
    def test_no_guard_is_evaluated_after_normalisation(self, problem, monkeypatch):
        from rabinsynth import boolexpr, hoa, ltl

        spec = normalize_problem(problem)

        def no_guards(*args):
            raise AssertionError("a guard was evaluated")

        # pattern conditions, HOA guards, and any automaton built from letter sets
        monkeypatch.setattr(boolexpr, "letter_set", no_guards)
        monkeypatch.setattr(ltl, "letter_set", no_guards)
        monkeypatch.setattr(hoa, "read_formula", no_guards)
        monkeypatch.setattr(OmegaAutomaton, "from_edges", no_guards)
        pa = build_product(spec)
        assert differential_test(spec, 1, 2, max_aps=4).mismatches == 0
        for lasso in all_lassos(spec.table(), 1, 1):
            assert lasso_oracle(spec, lasso) == eval_lasso(pa.automaton, lasso, pa.table)
        assert isinstance(synthesize(spec), Realizable)


class TestDifferential:
    def test_gf_spec_exhaustive(self):
        report = differential_test(gf_spec(), 2, 3)
        assert report.checked == 1764  # 21 stems x 84 loops over 4 letters
        assert report.mismatches == 0

    def test_empty_spec(self):
        spec = NormalizedSpec(("r",), ("g",), (), (), (), ())
        report = differential_test(spec, 2, 3)
        assert report.mismatches == 0

    def test_matches_scalar_comparison(self):
        # the vectorised report agrees with per-lasso evaluation
        spec = gf_spec()
        pa = build_product(spec)
        mism = sum(
            1 for lasso in all_lassos(spec.table(), 2, 2)
            if eval_lasso(pa.automaton, lasso, pa.table) != lasso_oracle(spec, lasso))
        report = differential_test(spec, 2, 2)
        assert report.mismatches == mism == 0

    def test_random_specs_have_no_mismatches(self):
        rng = random.Random(4242)
        for _ in range(40):
            spec = random_normalized_spec(rng)
            report = differential_test(spec, 2, 3)
            assert report.mismatches == 0, spec

    def test_lasso_counts_beyond_int64_are_refused(self):
        # over 8 letters, the 8 ** 21 stems of length 21 alone pass 2 ** 63
        with pytest.raises(CapacityExceeded, match="2\\*\\*63"):
            differential_test(NormalizedSpec(("a",), ("b", "c"), (), (), (), ()), 21, 1)
        # over 4 letters, stems up to 30 and loops of 1 are the most that fit
        report = differential_test(gf_spec(), 30, 1)
        assert report.checked == sum(4 ** i for i in range(31)) * 4
        assert report.mismatches == 0
        with pytest.raises(CapacityExceeded):
            differential_test(gf_spec(), 31, 1)

    @pytest.mark.parametrize("max_stem, max_loop", [(-1, 3), (2, 0), (2, -1), (-5, -5)])
    def test_bounds_that_define_no_lasso_are_refused(self, monkeypatch, max_stem, max_loop):
        from rabinsynth import pipeline

        def no_product(spec):
            raise AssertionError("the product was built")

        monkeypatch.setattr(pipeline, "build_product", no_product)
        with pytest.raises(ValueError, match="max_stem >= 0 and max_loop >= 1"):
            differential_test(gf_spec(), max_stem, max_loop)

    def test_smallest_bounds_check_the_one_letter_loops(self):
        report = differential_test(gf_spec(), 0, 1)
        assert (report.checked, report.mismatches) == (4, 0)

    def test_alphabet_guard(self):
        spec = NormalizedSpec(("a", "b"), ("c", "d"), (), (), (), ())
        with pytest.raises(CapacityExceeded):
            differential_test(spec, 1, 1)
        assert differential_test(spec, 1, 1, max_aps=4).mismatches == 0

    def test_counter_heavy_specs(self):
        # several Buchi assumptions cycling the round-robin counter against
        # co-Buchi guarantees resetting the serviced flag
        from rabinsynth.rand import random_letter_automaton

        rng = random.Random(2718)
        table = ApTable(("i0", "o0"))

        def some(kind, count_range):
            return tuple(
                random_letter_automaton(rng, table, rng.randrange(2, 4), kind)
                for _ in range(rng.randrange(*count_range)))

        for trial in range(15):
            spec = NormalizedSpec(
                ("i0",), ("o0",),
                some("buchi", (2, 5)), some("cobuchi", (0, 2)),
                some("buchi", (0, 3)), some("cobuchi", (1, 3)))
            report = differential_test(spec, 3, 4)
            assert report.mismatches == 0, trial

    def test_counts_every_disagreeing_lasso(self, monkeypatch):
        # a product with wrong colours: the report must count exactly the
        # lassos on which it disagrees with the oracle, over several chunks
        from rabinsynth import pipeline
        from rabinsynth.rand import arbiter_problem

        spec = normalize_problem(arbiter_problem(2))
        pa = build_product(spec)
        assert (pa.n_states, pa.table.n_letters) == (218, 16)
        colours = tuple((c + 1) % 5 if s % 7 == 3 else c
                        for s, c in enumerate(pa.colours))
        wrong = dataclasses.replace(pa, colours=colours)
        monkeypatch.setattr(pipeline, "build_product", lambda spec, **kw: wrong)
        lassos = list(all_lassos(spec.table(), 1, 2))
        expected = sum(
            eval_lasso(wrong.automaton, lasso, wrong.table) != lasso_oracle(spec, lasso)
            for lasso in lassos)
        report = differential_test(spec, 1, 2, max_aps=4)
        assert expected > 0
        assert report.checked == len(lassos)
        assert report.mismatches == expected

    @pytest.mark.parametrize("chunk_cells", [None, 2000], ids=["one_chunk", "ten_chunks"])
    def test_counts_disagreeing_lassos_on_long_orbits(self, monkeypatch, chunk_cells):
        # Buchi rings of 7 and 11 states, each advancing on its own letter:
        # reading {r, g} from the initial state runs round a 77-state cycle
        from rabinsynth import pipeline

        table = ApTable(("r", "g"))

        def ring(size, bit):
            targets = [[(s + 1) % size if letter >> bit & 1 else s for letter in table.letters()]
                       for s in range(size)]
            return OmegaAutomaton(table, 0, targets, Buchi(frozenset({0})))

        spec = NormalizedSpec(("r",), ("g",), (ring(7, 0),), (), (ring(11, 1),), ())
        pa = build_product(spec)
        index: dict[int, int] = {}
        state = pa.initial
        while state not in index:
            index[state] = len(index)
            state = pa.transitions.item(state, 0b11)
        assert len(index) - index[state] == 77
        colours = tuple((c + 1) % 5 if s % 13 == 2 else c
                        for s, c in enumerate(pa.colours))
        wrong = dataclasses.replace(pa, colours=colours)
        monkeypatch.setattr(pipeline, "build_product", lambda spec, **kw: wrong)
        if chunk_cells is not None:
            # about nine loop words a chunk, so chunks mix loop lengths
            monkeypatch.setattr(pipeline, "_CHUNK_CELLS", chunk_cells)
        lassos = list(all_lassos(spec.table(), 1, 3))
        expected = sum(
            eval_lasso(wrong.automaton, lasso, wrong.table) != lasso_oracle(spec, lasso)
            for lasso in lassos)
        report = differential_test(spec, 1, 3)
        assert expected > 0
        assert report.checked == len(lassos)
        assert report.mismatches == expected

    def test_memory_stays_within_a_few_chunks(self):
        # 4,368 loop words x 218 states: the whole (words x states) tables
        # would take more than 15 MB
        import tracemalloc

        spec = normalize_problem(arbiter_problem(2))
        tracemalloc.start()
        try:
            report = differential_test(spec, 1, 3, max_aps=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.checked == 17 * 4368
        assert report.mismatches == 0
        assert peak < 4 * 2 ** 20

    def test_conjunct_limit_is_checked_before_the_product(self, monkeypatch):
        from rabinsynth import pipeline

        def no_product(*args, **kwargs):
            raise AssertionError("the product was built")

        table = ApTable(("r", "g"))
        trivial = compile_pattern(parse_ltl("G (g | !g)")[0], table)
        spec = NormalizedSpec(("r",), ("g",), (), (), (trivial,) * 59, ())
        monkeypatch.setattr(pipeline, "build_product", no_product)
        with pytest.raises(CapacityExceeded, match="too many conjuncts"):
            differential_test(spec, 1, 1)


class TestMachineSerialisation:
    def test_round_trip_is_bit_exact(self):
        outcome = synthesize(load_problem("robust_mutex.json"))
        text = machine_to_json(outcome.machine)
        assert machine_to_json(machine_from_json(text)) == text

    def test_letters_are_sorted_name_arrays(self):
        outcome = synthesize(load_problem("robust_mutex.json"))
        data = json.loads(machine_to_json(outcome.machine))
        for entry in data["transitions"]:
            assert entry["on"] == sorted(entry["on"])
            assert entry["out"] == sorted(entry["out"])

    def test_rejects_partial_machines(self):
        data = {
            "inputs": ["r"], "outputs": ["g"], "states": 1, "initial": 0,
            "transitions": [
                {"from": 0, "on": [], "to": 0, "out": []},
            ],
        }
        with pytest.raises(ValueError):
            machine_from_json(json.dumps(data))

    def test_matches_the_per_row_reference(self):
        # proposition names out of alphabetical order, so that a letter's
        # sorted names differ from its bit order
        rng = random.Random(5)
        shapes = set()
        for _ in range(300):
            machine = random_machine(rng, max_states=4)
            machine = dataclasses.replace(
                machine,
                inputs=("zi", "ai", "mi")[:len(machine.inputs)],
                outputs=("yo", "bo", "ko")[:len(machine.outputs)])
            shapes.add((len(machine.inputs), len(machine.outputs)))
            assert machine_to_json(machine) == reference_machine_to_json(machine)
            assert machine_to_dict(machine) == reference_machine_to_dict(machine)
            assert machine_to_dot(machine) == reference_machine_to_dot(machine)
        assert len(shapes) == 16

    def test_synthesized_machine_matches_the_per_row_reference(self):
        machine = synthesize(load_problem("robust_mutex.json")).machine
        assert machine_to_json(machine) == reference_machine_to_json(machine)
        assert json.dumps(machine_to_dict(machine), indent=2) == json.dumps(
            reference_machine_to_dict(machine), indent=2)

    def test_huge_state_count_is_refused_before_allocating(self):
        import tracemalloc

        data = {"inputs": ["r"], "outputs": ["g"], "states": 10 ** 12,
                "initial": 0, "transitions": []}
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="transitions"):
                machine_from_dict(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("field, value", [
        ("states", True), ("states", "1"), ("initial", 0.0), ("from", 0.7),
        ("to", False), ("on", "r"), ("out", None), ("transitions", {}),
        ("on", ["r", "r"]), ("on", [1]), ("out", ["r"]), ("inputs", [1]),
    ])
    def test_malformed_fields_are_value_errors(self, field, value):
        data = {
            "inputs": ["r"], "outputs": ["g"], "states": 1, "initial": 0,
            "transitions": [{"from": 0, "on": [], "to": 0, "out": []},
                            {"from": 0, "on": ["r"], "to": 0, "out": ["g"]}],
        }
        machine_from_dict(data)  # well-formed as given
        if field in data:
            data[field] = value
        else:
            data["transitions"][1][field] = value
        with pytest.raises(ValueError):
            machine_from_dict(data)

    def test_dot_mirrors_transitions(self):
        outcome = synthesize(load_problem("arbiter.json"))
        dot = machine_to_dot(outcome.machine)
        assert dot.count("->") >= outcome.machine.n_states * 2
        assert "digraph" in dot
