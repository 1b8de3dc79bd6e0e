import hashlib
import random

import numpy as np
import pytest

from rabinsynth.automata import (
    Buchi,
    MissingEdge,
    NondeterministicEdge,
    OmegaAutomaton,
    RangeError,
    ValidationError,
    eval_lasso,
    validate,
)
from rabinsynth import product
from rabinsynth.boolexpr import ApTable, Not, Var
from rabinsynth.hoa import emit_hoa, parse_hoa
from rabinsynth.ltl import Persistence, Recurrence, compile_pattern, parse_ltl
from rabinsynth.product import (
    ASSUMPTION_DEAD,
    GUARANTEE_DEAD,
    LIVE,
    CapacityExceeded,
    NormalizedSpec,
    ProductState,
    build_product,
    raw_product_bound,
)
from rabinsynth.pipeline import (
    ConjunctSource,
    Realizable,
    SpecProblem,
    normalize_problem,
    sampled_differential,
    synthesize,
)
from rabinsynth.rand import arbiter_problem, random_lassos, random_normalized_spec

from helpers import (
    all_lassos, colour_of, control_successor, letter_edges, reference_product)


def gf_spec():
    table = ApTable(("r", "g"))
    assumption = compile_pattern(parse_ltl("GF r")[0], table)
    guarantee = compile_pattern(parse_ltl("GF g")[0], table)
    return NormalizedSpec(("r",), ("g",), (assumption,), (), (guarantee,), ())


class TestControlSuccessor:
    def test_increment_on_accepting_component(self):
        nxt, _, _ = control_successor(1, 0, False, [True, False], [], [])
        assert nxt == 2

    def test_free_slot_always_advances(self):
        nxt, _, _ = control_successor(0, 0, False, [False, False], [], [])
        assert nxt == 1

    def test_wraparound_sets_serviced_flag(self):
        nxt, _, serviced = control_successor(
            2, 0, False, [False, True], [], [True])
        assert nxt == 0
        assert serviced is True  # regardless of the rejecting flag

    def test_rejecting_guarantee_clears_flag_when_stalled(self):
        nxt, _, serviced = control_successor(
            2, 0, True, [False, False], [], [True])
        assert nxt == 2
        assert serviced is False

    def test_no_assumptions_keeps_counter_at_zero(self):
        nxt, _, serviced = control_successor(0, 0, False, [], [], [])
        assert nxt == 0
        assert serviced is True

    def test_guarantee_counter_mirrors_assumption_counter(self):
        _, nxt, _ = control_successor(0, 1, True, [], [False, True], [])
        assert nxt == 1
        _, nxt, _ = control_successor(0, 2, True, [], [False, True], [])
        assert nxt == 0


class TestColour:
    def setup_method(self):
        self.spec = robust_spec()

    def test_rejecting_cobuchi_assumption_dominates(self):
        # component order: buchi assumptions, cobuchi assumptions,
        # buchi guarantees, cobuchi guarantees
        state = ProductState((0, 0, 0), 0, 0, True)
        assert colour_of(state, self.spec) == 4

    def test_serviced_rejecting_guarantee(self):
        state = ProductState((1, 1, 0), 1, 1, True)
        assert colour_of(state, self.spec) == 3

    def test_unserviced_rejecting_guarantee_is_not_three(self):
        state = ProductState((1, 1, 0), 1, 1, False)
        assert colour_of(state, self.spec) == 0

    def test_guarantee_free_slot(self):
        state = ProductState((1, 1, 1), 1, 0, False)
        assert colour_of(state, self.spec) == 2

    def test_assumption_free_slot(self):
        state = ProductState((1, 1, 1), 0, 1, False)
        assert colour_of(state, self.spec) == 1

    def test_quiet_state(self):
        state = ProductState((1, 1, 1), 1, 1, False)
        assert colour_of(state, self.spec) == 0


def robust_spec():
    """One Buchi assumption, one co-Buchi assumption, one co-Buchi guarantee.

    Components (in order): recurrence tracker on i0 (rejecting-free Buchi,
    accepting {1}), persistence tracker on i0 (co-Buchi rejecting {0}),
    persistence tracker on o0 (co-Buchi rejecting {0}).
    """
    table = ApTable(("i0", "o0"))
    buchi_a = compile_pattern(Recurrence(Var("i0")), table)
    cobuchi_a = compile_pattern(Persistence(Var("i0")), table)
    cobuchi_g = compile_pattern(Persistence(Var("o0")), table)
    return NormalizedSpec(
        ("i0",), ("o0",), (buchi_a,), (cobuchi_a,), (), (cobuchi_g,))


class TestBuildProduct:
    def test_gf_spec_bound_and_colours(self):
        spec = gf_spec()
        assert raw_product_bound(spec) == 32
        pa = build_product(spec)
        assert pa.n_states <= 32
        assert set(pa.colours) <= {0, 1, 2}

    def test_initial_state(self):
        pa = build_product(gf_spec())
        assert pa.states[pa.initial] == ProductState((0, 0), 0, 0, False)

    def test_deterministic_and_total(self):
        pa = build_product(gf_spec())
        for row in pa.transitions:
            assert len(row) == pa.table.n_letters
            assert all(0 <= t < pa.n_states for t in row)

    def test_cobuchi_guarantee_only(self):
        table = ApTable(("g",))
        guarantee = compile_pattern(Persistence(Var("g")), table)
        spec = NormalizedSpec((), ("g",), (), (), (), (guarantee,))
        pa = build_product(spec)
        assert set(pa.colours) <= {2, 3}
        assert all(s.awaiting_assumption == 0 for s in pa.states)
        assert all(s.awaiting_guarantee == 0 for s in pa.states)
        # accepted exactly when the loop avoids the rejecting tracker state
        for lasso in all_lassos(table, 2, 3):
            assert (eval_lasso(pa.automaton, lasso, pa.table)
                    == eval_lasso(guarantee, lasso, table))

    def test_empty_spec(self):
        spec = NormalizedSpec((), ("g",), (), (), (), ())
        assert raw_product_bound(spec) == 2
        pa = build_product(spec)
        assert pa.n_states <= 2
        assert set(pa.colours) == {2}
        for lasso in all_lassos(spec.table(), 1, 2):
            assert eval_lasso(pa.automaton, lasso, pa.table)

    def test_state_bound_on_random_specs(self):
        rng = random.Random(123)
        for _ in range(50):
            spec = random_normalized_spec(rng)
            pa = build_product(spec)
            assert pa.n_states <= raw_product_bound(spec)
            assert set(pa.colours) <= {0, 1, 2, 3, 4}

    def test_gr1_degeneration(self):
        rng = random.Random(321)
        for _ in range(40):
            spec = random_normalized_spec(rng, buchi_only=True)
            assert not spec.cobuchi_assumptions and not spec.cobuchi_guarantees
            pa = build_product(spec)
            assert set(pa.colours) <= {0, 1, 2}

    def test_capacity_limit(self):
        with pytest.raises(CapacityExceeded):
            build_product(gf_spec(), state_limit=10)

    def test_rebuild_is_identical(self):
        a = build_product(gf_spec())
        b = build_product(gf_spec())
        assert np.array_equal(a.transitions, b.transitions)
        assert a.colours == b.colours
        assert a.states == b.states

    def test_concurrent_builds_share_no_state(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = random.Random(55)
        specs = [random_normalized_spec(rng) for _ in range(12)]
        sequential = [build_product(s) for s in specs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(build_product, specs))
        for a, b in zip(sequential, concurrent):
            assert np.array_equal(a.transitions, b.transitions)
            assert a.colours == b.colours

    def test_transitions_are_one_read_only_array(self):
        pa = build_product(gf_spec())
        assert pa.transitions.shape == (pa.n_states, pa.table.n_letters)
        with pytest.raises(ValueError):
            pa.transitions[0, 0] = 0
        with pytest.raises(ValueError):
            pa.keys[0] = 0

    def test_automaton_reads_the_transition_array(self):
        for spec in (gf_spec(), robust_spec()):
            pa = build_product(spec)
            aut = pa.automaton
            assert aut is pa.automaton
            assert np.shares_memory(aut.targets, pa.transitions)
            assert (aut.table, aut.initial) == (pa.table, pa.initial)
            assert (aut.acceptance.colours, aut.acceptance.n_colours) == (pa.colours, 5)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("unrealizable", [False, True])
    def test_product_document_reads_back(self, n, unrealizable):
        pa = build_product(normalize_problem(arbiter_problem(n, unrealizable=unrealizable)))
        parsed, table = parse_hoa(emit_hoa(pa.automaton, pa.table))
        assert table == pa.table
        assert np.array_equal(parsed.targets, pa.transitions)
        assert parsed.acceptance == pa.automaton.acceptance

    def test_states_are_numbered_in_discovery_order(self):
        # reading the array row-major, every new state id is the next one;
        # the first spec is the 2-client arbiter
        rng = random.Random(2024)
        specs = [normalize_problem(arbiter_problem(2))]
        specs += [random_normalized_spec(rng) for _ in range(50)]
        for spec in specs:
            pa = build_product(spec)
            first_seen = list(dict.fromkeys([0] + pa.transitions.ravel().tolist()))
            assert first_seen == list(range(pa.n_states))

    def test_bound_beyond_int64_is_refused(self):
        # state keys are int64, so even an unlimited build stops at 2**63
        table = ApTable(("g",))
        guarantee = compile_pattern(Persistence(Var("g")), table)
        spec = NormalizedSpec((), ("g",), (), (), (), (guarantee,) * 64)
        assert raw_product_bound(spec) >= 2 ** 63
        with pytest.raises(CapacityExceeded):
            build_product(spec, state_limit=2 ** 70)

    def test_invalid_component_raises_the_issues_of_validate(self):
        # no edge on !r & !g (letter 0), two edges on r & g (letter 3)
        table = ApTable(("r", "g"))
        with pytest.raises(ValidationError) as raised:
            OmegaAutomaton.from_edges(table, 0, letter_edges(
                (((Var("r"), 0), (Var("g"), 0)),), table), Buchi(frozenset({0})))
        assert raised.value.issues == [MissingEdge(0, 0), NondeterministicEdge(0, 3)]
        # a component over a proposition outside the spec
        rx = ApTable(("r", "x"))
        foreign = OmegaAutomaton.from_edges(
            rx, 0, letter_edges((((Var("x"), 0), (Not(Var("x")), 0)),), rx),
            Buchi(frozenset({0})))
        issues = validate(foreign, table)
        assert issues == [RangeError("proposition 'x' is not in the table")]
        spec = NormalizedSpec(("r",), ("g",), (), (), (foreign,), ())
        with pytest.raises(ValidationError) as raised:
            build_product(spec)
        assert raised.value.issues == issues


class TestReferenceProduct:
    """``build_product`` steps whole levels as arrays; the reference steps one
    ``ProductState`` and one letter at a time."""

    def assert_matches_reference(self, spec):
        pa = build_product(spec)
        transitions, colours, states = reference_product(spec)
        assert pa.transitions.tolist() == transitions
        assert list(pa.colours) == colours
        assert list(pa.states) == states

    @pytest.mark.parametrize("n, unrealizable", [
        (2, False), (2, True), (3, False), (3, True)])
    def test_arbiters(self, n, unrealizable):
        self.assert_matches_reference(
            normalize_problem(arbiter_problem(n, unrealizable=unrealizable)))

    def test_random_specs(self):
        # every third spec is larger; 24 of them have key spaces too large to
        # step whole, so their levels are stepped one at a time
        rng = random.Random(4242)
        for i in range(300):
            self.assert_matches_reference(
                random_normalized_spec(rng) if i % 3 else random_normalized_spec(
                    rng, max_conjuncts_per_side=3, max_component_states=4))

    # with no key space small enough to be stepped whole in one pass, every
    # spec goes through both stages (the arbiters do at any threshold)
    @pytest.mark.parametrize("n, unrealizable", [
        (2, False), (2, True), (3, False), (3, True)])
    def test_arbiters_in_two_stages(self, n, unrealizable, monkeypatch):
        monkeypatch.setattr(product, "_SMALL_CELLS", 0)
        self.test_arbiters(n, unrealizable)

    def test_random_specs_in_two_stages(self, monkeypatch):
        monkeypatch.setattr(product, "_SMALL_CELLS", 0)
        self.test_random_specs()


class TestNumbering:
    """States are numbered in breadth-first discovery order, checked on the
    array alone, so it also reaches products too large for the reference."""

    def assert_numbered_in_discovery_order(self, pa):
        # reading row-major with state 0 seen, each state first appears as
        # one more than the largest seen so far
        cells = np.concatenate([[0], pa.transitions.ravel()])
        largest_seen = np.maximum.accumulate(cells)[:-1]
        assert (cells[1:] >= 0).all() and (cells[1:] <= largest_seen + 1).all()
        assert cells.max() == pa.n_states - 1 == len(pa.keys) - 1
        assert len(np.unique(pa.keys)) == pa.n_states
        assert not pa.transitions.flags.writeable and not pa.keys.flags.writeable

    @pytest.mark.parametrize("n, unrealizable, states", [
        (2, False, 218), (2, True, 254), (3, False, 1425), (3, True, 1635),
        (4, False, 7932), (4, True, 8964)])
    def test_arbiters(self, n, unrealizable, states):
        pa = build_product(normalize_problem(arbiter_problem(n, unrealizable=unrealizable)))
        assert pa.n_states == states
        self.assert_numbered_in_discovery_order(pa)

    def test_random_specs(self):
        # every third spec is larger; some of those step level by level
        rng = random.Random(2020)
        level_stepped = 0
        for i in range(300):
            spec = random_normalized_spec(rng) if i % 3 else random_normalized_spec(
                rng, max_conjuncts_per_side=3, max_component_states=4)
            pa = build_product(spec)
            self.assert_numbered_in_discovery_order(pa)
            key_space = int(pa.key_space.bases[-1]) + 1
            level_stepped += key_space * pa.table.n_letters > product._SMALL_CELLS
        assert level_stepped >= 10

    def test_numbering_array_that_does_not_fit_is_refused(self, monkeypatch):
        spec = normalize_problem(arbiter_problem(2))
        key_space = int(build_product(spec).key_space.bases[-1]) + 1
        zeros = np.zeros

        def no_memory_for_the_key_space(shape, *args, **kwargs):
            if shape == key_space:
                raise MemoryError
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", no_memory_for_the_key_space)
        with pytest.raises(CapacityExceeded, match=f"numbering array for key space {key_space}"):
            build_product(spec)

    def test_numbers_beyond_the_array_dtype_are_refused(self, monkeypatch):
        # a level whose positions or numbers pass the dtype's maximum raises
        # rather than wraps; the maximum is lowered here to reach it
        spec = normalize_problem(arbiter_problem(2))
        monkeypatch.setattr(product, "_INT32_MAX", 100)
        with pytest.raises(CapacityExceeded, match="overflows int32 state numbers"):
            build_product(spec)


class TestTwoStages:
    """The first stage explores the counter-free product, the second adds the
    counters and the flag by table lookup."""

    @pytest.mark.parametrize("n, unrealizable, tuples", [
        (2, False, 20), (2, True, 23), (3, False, 63), (3, True, 72),
        (4, False, 206), (4, True, 233)])
    def test_counter_free_tuples(self, n, unrealizable, tuples):
        pa = build_product(normalize_problem(arbiter_problem(n, unrealizable=unrealizable)))
        assert len({(s.region, s.components) for s in pa.states}) == tuples

    # digests of the product that a one-stage search built: the reference
    # product is too slow at this size
    @pytest.mark.parametrize("unrealizable, transitions, colours, keys", [
        (False, "3e683c1edfcf2052a32db62b3f0a597b1e50657cd0f20ce068749a2293804e7a",
         "a2044d0246e29756dd2c0506bb99036efcfae81599f1fb6a0aa82e096f81f4be",
         "3b6e29f65d236538b544d988e99ff8d32d1ce57c476da280476b2703f503d694"),
        (True, "1b92e7ae3b3e3a4ac63c410b9488d0b94b0332d03519559921ae8541590a5502",
         "c7138df87dd2a7db58bae490df0413fda150d963a8425650da65fc8dd2329727",
         "80ae062f2d6664f51d3785e02e575d5356acb0be592910aa164912d9d6f36c0f")],
        ids=["realizable", "unrealizable"])
    def test_four_client_arbiter_is_unchanged(self, unrealizable, transitions, colours, keys):
        pa = build_product(normalize_problem(arbiter_problem(4, unrealizable=unrealizable)))
        assert hashlib.sha256(pa.transitions.astype("<i4").tobytes()).hexdigest() == transitions
        assert hashlib.sha256(bytes(pa.colours)).hexdigest() == colours
        assert hashlib.sha256(pa.keys.astype("<i8").tobytes()).hexdigest() == keys


def ltl_problem(inputs, outputs, assumptions, guarantees) -> SpecProblem:
    return SpecProblem(
        tuple(inputs), tuple(outputs),
        tuple(ConjunctSource(ltl=a) for a in assumptions),
        tuple(ConjunctSource(ltl=g) for g in guarantees))


class TestDeadRegions:
    def test_safety_guarantee_takes_no_counter_slot(self):
        mutex = ltl_problem(["r"], ["g0", "g1"], [], ["G !(g0 & g1)"])
        pa = build_product(normalize_problem(mutex))
        assert {s.region for s in pa.states} == {LIVE, GUARANTEE_DEAD}
        assert all(s.awaiting_guarantee == 0 for s in pa.states)
        # a recurrence guarantee next to it gets the counter's only slot
        both = ltl_problem(["r"], ["g0", "g1"], [], ["G !(g0 & g1)", "G F g0"])
        pa = build_product(normalize_problem(both))
        assert {s.awaiting_guarantee for s in pa.states} == {0, 1}

    def test_states_after_a_violation_use_assumption_colours(self):
        problem = ltl_problem(
            ["i0"], ["o0"], ["G F i0", "F G i0"], ["F G o0", "G !o0"])
        pa = build_product(normalize_problem(problem))
        dead = [c for c, s in zip(pa.colours, pa.states) if s.region == GUARANTEE_DEAD]
        assert set(dead) == {0, 1, 4}
        assert all(len(s.components) == 2 for s in pa.states
                   if s.region == GUARANTEE_DEAD)
        assert set(pa.colours) == {0, 1, 2, 3, 4}

    def test_assumption_sink_collapses_to_one_state(self):
        problem = ltl_problem(["i0", "i1"], ["o0"], ["G i0", "G (i1 -> X i0)"],
                              ["G F o0", "G (i0 -> F o0)"])
        pa = build_product(normalize_problem(problem))
        sinks = [s for s, p in enumerate(pa.states) if p.region == ASSUMPTION_DEAD]
        assert len(sinks) == 1
        (sink,) = sinks
        assert pa.states[sink] == ProductState((), 0, 0, False, ASSUMPTION_DEAD)
        assert pa.colours[sink] == 0
        assert (pa.transitions[sink] == sink).all()

    @pytest.mark.parametrize("n, unrealizable, states", [
        (2, False, 218), (3, False, 1425), (3, True, 1635), (4, False, 7932)])
    def test_arbiter_sizes(self, n, unrealizable, states):
        spec = normalize_problem(arbiter_problem(n, unrealizable=unrealizable))
        pa = build_product(spec)
        assert pa.n_states == states
        assert pa.n_states <= raw_product_bound(spec)

    def test_four_client_arbiter_is_realizable(self):
        # a Realizable outcome carries a machine that passed verify_mealy
        outcome = synthesize(arbiter_problem(4))
        assert isinstance(outcome, Realizable)

    @pytest.mark.parametrize("n, unrealizable", [(3, False), (3, True), (4, False)])
    def test_sampled_lasso_differential_on_arbiters(self, n, unrealizable):
        spec = normalize_problem(arbiter_problem(n, unrealizable=unrealizable))
        pa = build_product(spec)
        count = 2000
        lassos = random_lassos(random.Random(n), pa.table.n_letters, count)
        mismatches, ends = sampled_differential(spec, pa, lassos)
        assert mismatches == 0
        assert ends[GUARANTEE_DEAD] >= count // 2
        assert ends[LIVE] >= count // 20
