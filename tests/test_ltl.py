import random

import pytest
from hypothesis import given, settings, strategies as st

from rabinsynth.automata import Buchi, CoBuchi, Parity, Safety, eval_lasso, validate
from rabinsynth.boolexpr import MAX_GUARD_DEPTH, And, ApTable, Iff, Implies, Not, Or, Var
from rabinsynth.ltl import (
    Always,
    LtlError,
    NextResponse,
    Persistence,
    Recurrence,
    Response,
    StateInit,
    UnsupportedAcceptance,
    UnsupportedFragment,
    compile_pattern,
    format_pattern,
    normalize,
    parse_ltl,
)
from rabinsynth.rand import random_bool_expr, random_letter_automaton, random_pattern

from helpers import all_lassos, letter_table, never_enters, pattern_holds, table_lasso_verdict

RG = ApTable(("request", "grant"))
PQ = ApTable(("p", "q"))


class TestParse:
    def test_invariant_with_implication(self):
        assert parse_ltl("G (request -> grant)") == [
            Always(Implies(Var("request"), Var("grant")))]

    def test_recurrence_compact(self):
        assert parse_ltl("GF p") == [Recurrence(Var("p"))]

    def test_persistence(self):
        assert parse_ltl("FG (!r1 | !r2)") == [
            Persistence(Or(Not(Var("r1")), Not(Var("r2"))))]

    def test_until_is_rejected(self):
        with pytest.raises(UnsupportedFragment) as err:
            parse_ltl("p U q")
        assert err.value.operator == "U"

    def test_lone_next_is_rejected(self):
        with pytest.raises(UnsupportedFragment):
            parse_ltl("X p")

    def test_lone_eventually_is_rejected(self):
        with pytest.raises(UnsupportedFragment):
            parse_ltl("F p")

    def test_nested_temporal_is_rejected(self):
        with pytest.raises(UnsupportedFragment):
            parse_ltl("G (p -> (X q))")

    def test_top_level_conjunction_splits(self):
        assert parse_ltl("G p & GF q") == [Always(Var("p")), Recurrence(Var("q"))]

    @pytest.mark.parametrize("text,expected", [
        ("p & G q", [StateInit(Var("p")), Always(Var("q"))]),
        ("(p | q) & r", [StateInit(Or(Var("p"), Var("q"))), StateInit(Var("r"))]),
        ("!p & (q -> r)", [StateInit(Not(Var("p"))), StateInit(Implies(Var("q"), Var("r")))]),
    ])
    def test_top_level_conjunction_alone_splits(self, text, expected):
        assert parse_ltl(text) == expected

    @pytest.mark.parametrize("text", [
        "o | i & !o", "i & o | o", "i -> o & o", "o & i -> o", "i <-> o & o",
        "o & i <-> o", "G p & q | r", "p & q -> F r"])
    def test_top_level_conjunction_beside_a_looser_operator_is_refused(self, text):
        with pytest.raises(LtlError, match="ambiguous"):
            parse_ltl(text)

    def test_conjunction_inside_an_invariant_binds_tighter(self):
        assert parse_ltl("G (o | i & !o)") == [
            Always(Or(Var("o"), And(Var("i"), Not(Var("o")))))]

    def test_parenthesised_conjunction_stays_boolean(self):
        assert parse_ltl("(p & q)") == [StateInit(And(Var("p"), Var("q")))]

    def test_next_response(self):
        assert parse_ltl("G (p -> X q)") == [NextResponse(Var("p"), Var("q"))]

    def test_response(self):
        assert parse_ltl("G (p -> F q)") == [Response(Var("p"), Var("q"))]

    def test_message_points_to_automaton_path(self):
        with pytest.raises(UnsupportedFragment, match="automaton"):
            parse_ltl("p U q")

    def test_syntax_errors(self):
        for bad in ("", "G", "p &", "(p", "p )", "G p q"):
            with pytest.raises(LtlError):
                parse_ltl(bad)

    def test_implication_is_right_associative(self):
        [pattern] = parse_ltl("p -> q -> p")
        assert pattern == StateInit(
            Implies(Var("p"), Implies(Var("q"), Var("p"))))


class TestNestingDepth:
    """Nesting deeper than ``MAX_GUARD_DEPTH`` raises :class:`LtlError`;
    flat ``&`` and ``|`` chains parse at any length."""

    @pytest.mark.parametrize("text", [
        "!" * 3000 + "p",
        "(" * 3000 + "p" + ")" * 3000,
        "G " + "(" * 3000 + "p" + ")" * 3000,
        "G F " + "!" * 3000 + "p",
        " -> ".join(["p"] * 3000),
        " <-> ".join(["p"] * 3000),
        "G (" + " -> ".join(["p"] * 3000) + ")",
        "G (p -> q " + "<-> q " * 3000 + ")",
    ], ids=["not", "parentheses", "invariant", "recurrence",
            "implication", "equivalence", "invariant-implication", "invariant-equivalence"])
    def test_deep_formula_is_refused(self, text):
        with pytest.raises(LtlError, match="nested deeper"):
            parse_ltl(text)

    def test_nesting_up_to_the_bound_parses(self):
        depth = MAX_GUARD_DEPTH
        [pattern] = parse_ltl("!" * depth + "p")
        assert letter_table(compile_pattern(pattern, PQ), PQ) == letter_table(
            compile_pattern(StateInit(Var("p")), PQ), PQ)
        [pattern] = parse_ltl(" <-> ".join(["p"] * (depth + 1)))
        assert isinstance(pattern.condition, Iff)
        with pytest.raises(LtlError, match="nested deeper"):
            parse_ltl("(" + "!" * depth + "p)")

    @pytest.mark.parametrize("op", ["|", "&"])
    def test_flat_chain_of_any_length_parses(self, op):
        [pattern] = parse_ltl("G (" + f" {op} ".join(["p", "!q"] * 800) + ")")
        aut = compile_pattern(pattern, PQ)
        assert letter_table(aut, PQ) == letter_table(
            compile_pattern(Always(Or(Var("p"), Not(Var("q"))) if op == "|"
                                   else And(Var("p"), Not(Var("q")))), PQ), PQ)

    @pytest.mark.parametrize("op", ["|", "&"])
    def test_flat_chain_of_any_length_formats(self, op):
        for text in ("G (" + f" {op} ".join(["p", "!q"] * 800) + ")",
                     "G (" + f" {op} ".join(["a"] * 1600) + ")"):
            [pattern] = parse_ltl(text)
            assert format_pattern(pattern) == text


def patterns_strategy():
    bools = st.builds(
        lambda seed: random_bool_expr(random.Random(seed), PQ.names, depth=2),
        st.integers(min_value=0, max_value=100_000))
    return st.one_of(
        st.builds(StateInit, bools),
        st.builds(Always, bools),
        st.builds(Recurrence, bools),
        st.builds(Persistence, bools),
        st.builds(NextResponse, bools, bools),
        st.builds(Response, bools, bools),
    )


@settings(max_examples=200, deadline=None)
@given(patterns_strategy())
def test_parse_format_identity(pattern):
    assert parse_ltl(format_pattern(pattern)) == [pattern]


class TestCompile:
    def test_sizes(self):
        sizes = {
            StateInit(Var("p")): 3,
            Always(Var("p")): 2,
            Recurrence(Var("p")): 2,
            Persistence(Var("p")): 2,
            NextResponse(Var("p"), Var("q")): 3,
            Response(Var("p"), Var("q")): 2,
        }
        for pattern, expected in sizes.items():
            aut = compile_pattern(pattern, PQ)
            assert aut.n_states == expected
            assert validate(aut, PQ) == []

    def test_invariant_examples(self):
        aut = compile_pattern(parse_ltl("G (request -> grant)")[0], RG)
        both = RG.letter(["request", "grant"])
        req = RG.letter(["request"])
        from rabinsynth.automata import Lasso

        assert eval_lasso(aut, Lasso((), (both,)), RG)
        assert not eval_lasso(aut, Lasso((), (req,)), RG)

    def test_recurrence_examples(self):
        aut = compile_pattern(Recurrence(Var("p")), PQ)
        from rabinsynth.automata import Lasso

        assert eval_lasso(aut, Lasso((), (PQ.letter(["p"]), 0)), PQ)
        assert not eval_lasso(aut, Lasso((), (0,)), PQ)

    def test_persistence_examples(self):
        aut = compile_pattern(Persistence(Var("p")), PQ)
        from rabinsynth.automata import Lasso

        assert eval_lasso(aut, Lasso((0,), (PQ.letter(["p"]),)), PQ)
        assert not eval_lasso(aut, Lasso((), (PQ.letter(["p"]), 0)), PQ)

    def test_response_examples(self):
        aut = compile_pattern(Response(Var("p"), Var("q")), PQ)
        from rabinsynth.automata import Lasso

        assert eval_lasso(
            aut, Lasso((), (PQ.letter(["p"]), PQ.letter(["q"]))), PQ)
        assert not eval_lasso(aut, Lasso((), (PQ.letter(["p"]),)), PQ)

    @pytest.mark.parametrize("pattern", [
        StateInit(Var("p")),
        Always(Implies(Var("p"), Var("q"))),
        Recurrence(Var("p")),
        Persistence(Or(Var("p"), Var("q"))),
        NextResponse(Var("p"), Var("q")),
        Response(Var("p"), Var("q")),
    ], ids=lambda p: type(p).__name__)
    def test_semantics_match_direct_evaluation(self, pattern):
        # exhaustive comparison against lasso position analysis
        aut = compile_pattern(pattern, PQ)
        tt = letter_table(aut, PQ)
        for lasso in all_lassos(PQ, 3, 4):
            compiled = table_lasso_verdict(tt, aut.initial, aut.acceptance, lasso)
            assert compiled == pattern_holds(pattern, lasso, PQ), lasso

    def test_semantics_of_random_patterns(self):
        rng = random.Random(31)
        for _ in range(25):
            pattern = random_pattern(rng, PQ.names)
            aut = compile_pattern(pattern, PQ)
            tt = letter_table(aut, PQ)
            for lasso in all_lassos(PQ, 2, 3):
                compiled = table_lasso_verdict(
                    tt, aut.initial, aut.acceptance, lasso)
                assert compiled == pattern_holds(pattern, lasso, PQ), (pattern, lasso)


class TestNormalize:
    def test_rabin_splits_into_both_kinds(self):
        rng = random.Random(3)
        aut = random_letter_automaton(rng, PQ, 3, "rabin")
        parts = normalize(aut)
        assert [type(c.acceptance) for c in parts] == [CoBuchi, Buchi]

    def test_buchi_passes_through(self):
        rng = random.Random(4)
        aut = random_letter_automaton(rng, PQ, 3, "buchi")
        [conjunct] = normalize(aut)
        assert isinstance(conjunct.acceptance, Buchi)
        assert conjunct is aut

    def test_safety_accepting_set_excludes_sink(self):
        aut = compile_pattern(Always(Var("p")), PQ)
        safety = as_safety(aut)
        [conjunct] = normalize(safety)
        assert conjunct.acceptance == Buchi(frozenset({0}))

    def test_safety_language_is_sink_avoidance(self):
        rng = random.Random(8)
        for _ in range(40):
            aut = random_letter_automaton(rng, PQ, 3, "safety")
            [conjunct] = normalize(aut)
            tt = letter_table(aut, PQ)
            sinks = frozenset(
                s for s in range(aut.n_states)
                if all(t == s for t in tt[s]))
            for lasso in all_lassos(PQ, 1, 2):
                assert eval_lasso(conjunct, lasso, PQ) == never_enters(
                    tt, aut.initial, lasso, sinks)

    def test_normalize_preserves_language(self):
        rng = random.Random(77)
        for _ in range(60):
            kind = rng.choice(("buchi", "cobuchi", "rabin"))
            aut = random_letter_automaton(rng, PQ, 3, kind)
            parts = normalize(aut)
            for lasso in all_lassos(PQ, 1, 2):
                whole = eval_lasso(aut, lasso, PQ)
                split = all(eval_lasso(c, lasso, PQ) for c in parts)
                assert whole == split

    def test_parity_is_rejected(self):
        aut = compile_pattern(Always(Var("p")), PQ)
        from dataclasses import replace

        parity = replace(aut, acceptance=Parity((0, 1), 2))
        with pytest.raises(UnsupportedAcceptance):
            normalize(parity)


def as_safety(aut):
    from dataclasses import replace

    return replace(aut, acceptance=Safety())
