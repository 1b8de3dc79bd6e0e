import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from rabinsynth.automata import (
    Buchi,
    CoBuchi,
    Lasso,
    MissingEdge,
    NondeterministicEdge,
    OmegaAutomaton,
    OnePairRabin,
    Parity,
    RangeError,
    Safety,
    ValidationError,
    WrongAcceptanceKind,
    decompose_rabin,
    eval_lasso,
    transition_table,
    validate,
)
from rabinsynth.boolexpr import (
    FALSE, And, ApTable, Iff, Implies, Lit, Not, Or, TRUE, Var, letter_set, proposition_sets)
from rabinsynth.rand import random_letter_automaton

from helpers import (
    all_lassos, guard_issues, guard_table, letter_table, minterm_edges, naive_lasso_verdict)

P = ApTable(("p",))
PQ = ApTable(("p", "q"))


def letter_sets(edges, table) -> tuple:
    """Guard-labelled edges with each guard read by ``letter_set``."""
    return tuple(tuple((letter_set(g, table), t) for g, t in row) for row in edges)


def tracker(acceptance) -> OmegaAutomaton:
    """Two states: 1 is entered exactly on letters satisfying p."""
    p = Var("p")
    row = ((Not(p), 0), (p, 1))
    return OmegaAutomaton.from_edges(P, 0, letter_sets((row, row), P), acceptance)


def issues_of(table, initial, edges, acceptance) -> list:
    """The issues :meth:`OmegaAutomaton.from_edges` raises on guard-labelled
    edges, or ``[]``."""
    try:
        OmegaAutomaton.from_edges(table, initial, letter_sets(edges, table), acceptance)
    except ValidationError as exc:
        return exc.issues
    return []


class TestValidate:
    """The issues the constructor raises."""

    def test_true_self_loop_is_total(self):
        aut = OmegaAutomaton.from_edges(P, 0, (((0b11, 0),),), Buchi(frozenset({0})))
        assert aut.targets.tolist() == [[0, 0]]
        assert validate(aut, P) == validate(aut, PQ) == []

    def test_overlapping_guards(self):
        issues = issues_of(
            PQ, 0, (((Var("p"), 0), (Or(Var("p"), Var("q")), 0)),), Safety())
        both = PQ.letter(["p", "q"])
        assert NondeterministicEdge(0, both) in issues

    def test_missing_edge(self):
        issues = issues_of(P, 0, (((TRUE, 1),), ((Var("p"), 1),)), Safety())
        assert issues == [MissingEdge(1, 0)]

    def test_target_out_of_range(self):
        issues = issues_of(P, 0, (((TRUE, 3),),), Safety())
        assert any(isinstance(i, RangeError) for i in issues)

    def test_acceptance_set_out_of_range(self):
        issues = issues_of(P, 0, (((TRUE, 0),),), Buchi(frozenset({5})))
        assert any(isinstance(i, RangeError) for i in issues)

    def test_parity_colour_map_checked(self):
        issues = issues_of(P, 0, (((TRUE, 0),), ((TRUE, 1),)), Parity((0,), 2))
        assert any(isinstance(i, RangeError) for i in issues)

    def test_table_without_its_propositions_is_refused(self):
        aut = OmegaAutomaton.from_edges(PQ, 0, (((0b1111, 0),),), Safety())
        assert validate(aut, P) == [RangeError("proposition 'q' is not in the table")]
        with pytest.raises(ValidationError):
            transition_table(aut, P)


def disguised(guard, rng: random.Random):
    """The same letter set written with ``Implies``, ``Iff`` or ``Lit``."""
    return rng.choice([
        lambda g: Implies(Not(g), FALSE),
        lambda g: Iff(g, TRUE),
        lambda g: Iff(Not(g), Lit(False)),
        lambda g: And(Implies(TRUE, g), Lit(True)),
        lambda g: Or(g, Iff(Var("p"), Not(Var("p")))),
    ])(guard)


def random_guarded_edges(rng: random.Random):
    """(table, automaton, its edges with some guards disguised)."""
    table = ApTable(("p", "q", "r", "s")[:rng.randint(1, 4)])
    aut = random_letter_automaton(
        rng, table, rng.randint(1, 4), rng.choice(("buchi", "cobuchi", "rabin", "safety")))
    edges = tuple(tuple((disguised(g, rng) if rng.random() < 0.5 else g, t) for g, t in row)
                  for row in minterm_edges(aut))
    return table, aut, edges


class TestTransitionTable:
    """``letter_set`` evaluates guards once each, as letter sets, and the
    constructor fills the table from those sets; the reference evaluates every
    guard on every letter.  Over a larger table, ``transition_table`` projects
    each letter; the reference reads each letter by proposition name."""

    def test_matches_per_letter_evaluation(self):
        rng = random.Random(99)
        for _ in range(300):
            table, aut, edges = random_guarded_edges(rng)
            built = OmegaAutomaton.from_edges(
                table, aut.initial, letter_sets(edges, table), aut.acceptance)
            assert built.targets.tolist() == guard_table(edges, table)
            assert transition_table(built, table) is built.targets
            wider = ApTable(("x",) + table.names[::-1] + ("y",))
            assert transition_table(built, wider).tolist() == letter_table(built, wider)

    def test_issues_match_per_letter_evaluation(self):
        rng = random.Random(98)
        for _ in range(300):
            table, aut, edges = random_guarded_edges(rng)
            rows = [list(row) for row in edges]
            for row in rows:
                if rng.random() < 0.5 and row:
                    del row[rng.randrange(len(row))]            # letters go missing
                if rng.random() < 0.5:
                    row.append((Var(rng.choice(table.names)), 0))  # letters overlap
            expected = guard_issues(rows, table)
            assert issues_of(table, aut.initial, rows, aut.acceptance) == expected

    def test_unknown_name_raises_key_error(self):
        with pytest.raises(KeyError, match="unknown proposition: 'z'"):
            letter_set(Not(Var("z")), PQ)

    def test_twenty_proposition_sets_are_fast(self):
        proposition_sets.cache_clear()
        started = time.perf_counter()
        sets = proposition_sets(20)
        assert time.perf_counter() - started < 1.0
        for i in (0, 7, 19):
            assert [letter for letter in range(0, 1 << 20, 4099)
                    if sets[i] >> letter & 1] == [
                letter for letter in range(0, 1 << 20, 4099) if letter >> i & 1]


class TestEvalLasso:
    def test_all_states_accepting_buchi(self):
        aut = tracker(Buchi(frozenset({0, 1})))
        for lasso in all_lassos(P, 1, 2):
            assert eval_lasso(aut, lasso, P)

    def test_gf_tracker_alternating_loop(self):
        # both states recur, the accepting one among them
        aut = tracker(Buchi(frozenset({1})))
        lasso = Lasso((), (P.letter(["p"]), 0))
        assert eval_lasso(aut, lasso, P) is True

    def test_cobuchi_rejects_alternating_loop(self):
        aut = tracker(CoBuchi(frozenset({0})))
        lasso = Lasso((), (P.letter(["p"]), 0))
        assert eval_lasso(aut, lasso, P) is False

    def test_rabin_empty_recurrence_rejects_everything(self):
        aut = tracker(OnePairRabin(frozenset({0, 1}), frozenset()))
        for lasso in all_lassos(P, 1, 2):
            assert eval_lasso(aut, lasso, P) is False

    def test_safety_accepts_every_run(self):
        aut = tracker(Safety())
        for lasso in all_lassos(P, 1, 2):
            assert eval_lasso(aut, lasso, P) is True

    def test_parity_max_even(self):
        aut = tracker(Parity((1, 2), 3))
        assert eval_lasso(aut, Lasso((), (P.letter(["p"]), 0)), P)  # max 2
        assert not eval_lasso(aut, Lasso((), (0,)), P)  # stuck at colour 1

    def test_matches_naive_simulation_on_random_instances(self):
        rng = random.Random(7)
        kinds = ("buchi", "cobuchi", "rabin", "safety")
        for _ in range(60):
            aut = random_letter_automaton(
                rng, PQ, rng.randrange(2, 5), rng.choice(kinds))
            for _ in range(25):
                stem = tuple(rng.randrange(4) for _ in range(rng.randrange(3)))
                loop = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 4)))
                lasso = Lasso(stem, loop)
                assert eval_lasso(aut, lasso, PQ) == naive_lasso_verdict(
                    aut, lasso, PQ)


letters2 = st.integers(min_value=0, max_value=3)
lassos = st.tuples(
    st.lists(letters2, max_size=3).map(tuple),
    st.lists(letters2, min_size=1, max_size=4).map(tuple),
).map(lambda pair: Lasso(*pair))


def automata2():
    kinds = st.sampled_from(["buchi", "cobuchi", "rabin", "safety"])
    return st.builds(
        lambda seed, kind: random_letter_automaton(
            random.Random(seed), PQ, 3, kind),
        st.integers(min_value=0, max_value=10_000), kinds)


@settings(max_examples=150, deadline=None)
@given(automata2(), lassos, st.data())
def test_rotation_invariance(aut, lasso, data):
    split = data.draw(st.integers(min_value=0, max_value=len(lasso.loop) - 1))
    head, tail = lasso.loop[:split], lasso.loop[split:]
    rotated = Lasso(lasso.stem + head, tail + head)
    assert eval_lasso(aut, lasso, PQ) == eval_lasso(aut, rotated, PQ)


@settings(max_examples=150, deadline=None)
@given(automata2(), lassos)
def test_unrolling_invariance(aut, lasso):
    doubled = Lasso(lasso.stem, lasso.loop + lasso.loop)
    assert eval_lasso(aut, lasso, PQ) == eval_lasso(aut, doubled, PQ)


@settings(max_examples=60, deadline=None)
@given(automata2(), lassos)
def test_repeated_evaluation_is_deterministic(aut, lasso):
    assert eval_lasso(aut, lasso, PQ) == eval_lasso(aut, lasso, PQ)


class TestDecomposeRabin:
    def test_complement_arithmetic(self):
        aut = tracker(OnePairRabin(frozenset({0, 1}), frozenset({1})))
        co, bu = decompose_rabin(aut)
        assert co.acceptance == CoBuchi(frozenset())
        assert bu.acceptance == Buchi(frozenset({1}))

    def test_full_persistence_set_gives_trivial_cobuchi(self):
        aut = tracker(OnePairRabin(frozenset({0, 1}), frozenset({0})))
        co, _ = decompose_rabin(aut)
        for lasso in all_lassos(P, 1, 2):
            assert eval_lasso(co, lasso, P)

    def test_wrong_acceptance_kind(self):
        with pytest.raises(WrongAcceptanceKind):
            decompose_rabin(tracker(Buchi(frozenset({1}))))

    def test_conjunction_equivalence_on_random_automata(self):
        rng = random.Random(2024)
        one_ap = ApTable(("p",))
        lassos = list(all_lassos(one_ap, 2, 3))
        for _ in range(200):
            aut = random_letter_automaton(rng, one_ap, 3, "rabin")
            co, bu = decompose_rabin(aut)
            for lasso in lassos:
                whole = eval_lasso(aut, lasso, one_ap)
                parts = eval_lasso(co, lasso, one_ap) and eval_lasso(
                    bu, lasso, one_ap)
                assert whole == parts
