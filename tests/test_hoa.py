import random
import re

import pytest

from rabinsynth.automata import (
    Buchi,
    CoBuchi,
    OmegaAutomaton,
    OnePairRabin,
    Parity,
    Safety,
    ValidationError,
)
from rabinsynth import hoa
from rabinsynth.boolexpr import And, ApTable, Lit, Not, Or, Var
from rabinsynth.hoa import (
    MAX_GUARD_DEPTH,
    HoaError,
    UnsupportedFeature,
    emit_hoa,
    parse_hoa,
)
from rabinsynth.rand import random_bool_expr, random_letter_automaton

from helpers import evaluate, letter_edges, letter_table, same_automaton

MINIMAL_BUCHI = """\
HOA: v1
States: 1
Start: 0
AP: 1 "p"
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0 {0}
[t] 0
--END--
"""


class TestParse:
    def test_minimal_buchi_document(self):
        aut, table = parse_hoa(MINIMAL_BUCHI)
        assert aut.n_states == 1
        assert aut.initial == 0
        assert table.names == ("p",)
        assert aut.acceptance == Buchi(frozenset({0}))

    def test_unsupported_acceptance_name(self):
        text = MINIMAL_BUCHI.replace("acc-name: Buchi", "acc-name: Streett 2")
        with pytest.raises(UnsupportedFeature):
            parse_hoa(text)

    def test_unknown_header(self):
        text = MINIMAL_BUCHI.replace("Start: 0", "Start: 0\nname: \"x\"")
        with pytest.raises(UnsupportedFeature):
            parse_hoa(text)

    def test_nondeterministic_document_fails_validation(self):
        text = MINIMAL_BUCHI.replace("[t] 0", "[t] 0\n[0] 0")
        with pytest.raises(ValidationError):
            parse_hoa(text)

    def test_partial_document_fails_validation(self):
        text = MINIMAL_BUCHI.replace("[t] 0", "[0] 0")
        with pytest.raises(ValidationError):
            parse_hoa(text)

    def test_mismatched_acceptance_line(self):
        text = MINIMAL_BUCHI.replace("Acceptance: 1 Inf(0)", "Acceptance: 1 Fin(0)")
        with pytest.raises(HoaError):
            parse_hoa(text)

    def test_missing_header(self):
        text = MINIMAL_BUCHI.replace('AP: 1 "p"\n', "")
        with pytest.raises(HoaError):
            parse_hoa(text)

    def test_error_carries_line_number(self):
        text = MINIMAL_BUCHI.replace("[t] 0", "[t] x")
        with pytest.raises(HoaError) as err:
            parse_hoa(text)
        assert err.value.line == 9

    def test_state_block_out_of_range_is_refused_at_its_line(self):
        text = MINIMAL_BUCHI.replace("[t] 0\n", "[t] 0\nState: 1\n[t] 0\n")
        with pytest.raises(HoaError) as err:
            parse_hoa(text)
        assert err.value.line == 10

    def test_missing_blocks_are_reported_without_listing_them(self):
        import tracemalloc

        text = MINIMAL_BUCHI.replace("States: 1", "States: 2000000")
        tracemalloc.start()
        try:
            with pytest.raises(HoaError) as err:
                parse_hoa(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert len(str(err.value)) < 200
        assert "the first for state 1" in str(err.value)

    def test_more_than_twenty_propositions_are_refused_at_the_ap_line(self):
        names = " ".join(f'"p{k}"' for k in range(21))
        text = MINIMAL_BUCHI.replace('AP: 1 "p"', f"AP: 21 {names}")
        with pytest.raises(HoaError) as err:
            parse_hoa(text)
        assert err.value.line == 4

    @pytest.mark.parametrize("old, new, line", [
        ("States: 1", "States: \u00b2", 2),
        ("Start: 0", "Start: \u00b2", 3),
        ('AP: 1 "p"', 'AP: \u00b2 "p"', 4),
        ("[t] 0", "[\u00b2] 0", 9),
    ], ids=["states", "start", "ap", "guard"])
    def test_digits_int_cannot_read_are_refused_at_their_line(self, old, new, line):
        with pytest.raises(HoaError) as err:
            parse_hoa(MINIMAL_BUCHI.replace(old, new))
        assert err.value.line == line

    def test_huge_parity_colour_count_is_refused_at_once(self):
        text = MINIMAL_BUCHI.replace("acc-name: Buchi", "acc-name: parity max even 3000000000")
        text = text.replace("Acceptance: 1 Inf(0)", "Acceptance: 3000000000 Inf(0)")
        with pytest.raises(HoaError, match="does not match") as err:
            parse_hoa(text)
        assert err.value.line == 6

    def test_rabin_sets_orientation(self):
        text = """\
HOA: v1
States: 2
Start: 0
AP: 1 "p"
acc-name: Rabin 1
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {0}
[t] 1
State: 1 {1}
[t] 1
--END--
"""
        aut, _ = parse_hoa(text)
        # set 0 is the complement of the persistence set, set 1 the recurrence set
        assert aut.acceptance == OnePairRabin(
            persistent=frozenset({1}), recurrent=frozenset({1}))

    def test_parity_needs_exactly_one_colour_per_state(self):
        text = """\
HOA: v1
States: 1
Start: 0
AP: 1 "p"
acc-name: parity max even 2
Acceptance: 2 Inf(1) | (Fin(0))
--BODY--
State: 0
[t] 0
--END--
"""
        with pytest.raises(HoaError):
            parse_hoa(text)


class TestGuardDepth:
    """Deep guards raise :class:`HoaError` at their line; long flat chains,
    which the writer emits, parse and validate."""

    def refused_at_guard_line(self, guard: str):
        with pytest.raises(HoaError, match="nested deeper") as err:
            parse_hoa(MINIMAL_BUCHI.replace("[t] 0", f"[{guard}] 0"))
        assert err.value.line == 9

    def test_long_negation_run_is_refused(self):
        self.refused_at_guard_line("!" * 3000 + "t")

    def test_deep_parentheses_are_refused(self):
        self.refused_at_guard_line("(" * 3000 + "t" + ")" * 3000)

    def test_nesting_up_to_the_bound_parses(self):
        deepest = "!" + "(" * (MAX_GUARD_DEPTH - 2) + "!t" + ")" * (MAX_GUARD_DEPTH - 2)
        aut, table = parse_hoa(MINIMAL_BUCHI.replace("[t] 0", f"[{deepest}] 0"))
        assert letter_table(aut, table) == [[0, 0]]
        self.refused_at_guard_line("(" + deepest + ")")

    @pytest.mark.parametrize("op", ["|", "&"])
    def test_flat_chain_of_any_length_parses(self, op):
        literals = ["0", "!0"] * 800 if op == "|" else ["t"] * 1600
        guard = f" {op} ".join(literals)
        aut, table = parse_hoa(MINIMAL_BUCHI.replace("[t] 0", f"[{guard}] 0"))
        # (the reference evaluator in helpers recurses along the chain)
        assert aut.targets.tolist() == [[0, 0]]

    @pytest.mark.parametrize("closing", [True, False], ids=["balanced", "unbalanced"])
    def test_deep_acceptance_formula_is_refused(self, closing):
        formula = "(" * 3000 + "Inf(0)" + ")" * 3000 * closing
        text = MINIMAL_BUCHI.replace("Acceptance: 1 Inf(0)", f"Acceptance: 1 {formula}")
        with pytest.raises(HoaError, match="nested deeper") as err:
            parse_hoa(text)
        assert err.value.line == 6

    def test_acceptance_nesting_up_to_the_bound_parses(self):
        formula = "(" * MAX_GUARD_DEPTH + "Inf(0)" + ")" * MAX_GUARD_DEPTH
        aut, _ = parse_hoa(
            MINIMAL_BUCHI.replace("Acceptance: 1 Inf(0)", f"Acceptance: 1 {formula}"))
        assert aut.acceptance == Buchi(frozenset({0}))

    def test_long_written_guard_reads_back(self):
        table = ApTable(tuple(f"p{k}" for k in range(11)))
        row = [0] * (table.n_letters - 1) + [1]
        text = emit_hoa(OmegaAutomaton(table, 0, [row, row], Safety()), table)
        aut, parsed_table = parse_hoa(text)
        assert aut.targets.tolist() == [row, row]
        assert emit_hoa(aut, parsed_table) == text


def with_acceptance(acc_name: str, n_sets: int, formula: str) -> str:
    """:data:`MINIMAL_BUCHI` under another acceptance; its one state is in
    set 0, unless the acceptance has no sets."""
    text = MINIMAL_BUCHI.replace("acc-name: Buchi", f"acc-name: {acc_name}")
    text = text.replace("Acceptance: 1 Inf(0)", f"Acceptance: {n_sets} {formula}")
    return text if n_sets else text.replace("State: 0 {0}", "State: 0")


class TestAcceptanceSpellings:
    """An ``Acceptance:`` line is read as a formula and compared with the
    acc-name's canonical one: parentheses and spaces are free, the order and
    grouping of the atoms are not."""

    @pytest.mark.parametrize("acc_name, n_sets, formula, kind", [
        ("Buchi", 1, "(Inf(0))", Buchi),
        ("Buchi", 1, "((Inf ( 0 )))", Buchi),
        ("co-Buchi", 1, "(Fin(0))", CoBuchi),
        ("Rabin 1", 2, "Fin(0)&Inf(1)", OnePairRabin),
        ("Rabin 1", 2, "(Fin(0)) & (Inf(1))", OnePairRabin),
        ("Rabin 1", 2, "((Fin(0) & Inf(1)))", OnePairRabin),
        ("parity max even 1", 1, "(Inf(0))", Parity),
        ("parity max even 3", 3, "Inf(2) | Fin(1) & Inf(0)", Parity),
        ("parity max even 3", 3, "(Inf(2)|(Fin(1)&(Inf(0))))", Parity),
        ("parity max even 4", 4, "Fin(3) & (Inf(2) | Fin(1) & Inf(0))", Parity),
        ("safety", 0, "(t)", Safety),
    ])
    def test_accepted(self, acc_name, n_sets, formula, kind):
        aut, _ = parse_hoa(with_acceptance(acc_name, n_sets, formula))
        assert type(aut.acceptance) is kind

    @pytest.mark.parametrize("acc_name, n_sets, formula", [
        ("Buchi", 1, "Fin(0)"),
        ("Buchi", 1, "Inf(1)"),
        ("Buchi", 1, "!Inf(0)"),
        ("Buchi", 1, "Inf(0) | f"),
        ("Buchi", 1, "Inf(0))"),
        ("Buchi", 1, "Inf(0"),
        ("co-Buchi", 1, "Inf(0)"),
        ("Rabin 1", 2, "Inf(1) & Fin(0)"),
        ("Rabin 1", 2, "Fin(0) | Inf(1)"),
        ("Rabin 1", 2, "Fin(0) & Inf(1) & t"),
        ("parity max even 3", 3, "(Inf(2) | Fin(1)) & Inf(0)"),
        ("parity max even 3", 3, "Fin(1) & Inf(0) | Inf(2)"),
        ("parity max even 3", 3, "Inf(2) | (Fin(1) & (Inf(0) & Inf(0)))"),
        ("parity max even 4", 4, "Fin(3) & Inf(2) | Fin(1) & Inf(0)"),
        ("safety", 0, "f"),
    ])
    def test_refused_at_its_line(self, acc_name, n_sets, formula):
        with pytest.raises(HoaError) as err:
            parse_hoa(with_acceptance(acc_name, n_sets, formula))
        assert err.value.line == 6

    def test_canonical_formula_is_parsed_once_per_name_and_set_count(self, monkeypatch):
        parsed = []
        parse = hoa._parse_acc_formula
        monkeypatch.setattr(hoa, "_parse_acc_formula",
                            lambda text, line: parsed.append(text) or parse(text, line))
        hoa._canonical_formula.cache_clear()
        documents = [("Buchi", 1, "Inf(0)"), ("parity max even 3", 3, "Inf(2) | Fin(1) & Inf(0)")]
        for _ in range(3):
            for acc_name, n_sets, formula in documents:
                parse_hoa(with_acceptance(acc_name, n_sets, formula))
        # each document's own formula, plus each canonical formula once
        assert len(parsed) == 3 * len(documents) + len(documents)


def hoa_guard(expr, table: ApTable, rng: random.Random, context: int = 0) -> str:
    """``expr`` written in the HOA guard grammar, with parentheses where the
    context needs them (0: a disjunct, 1: a conjunct, 2: an operand of ``!``)
    and, at random, where it does not."""
    match expr:
        case Var(name):
            text, level = str(table.bit(name)), 2
        case Lit(value):
            text, level = "t" if value else "f", 2
        case Not(arg):
            text, level = "!" + hoa_guard(arg, table, rng, 2), 2
        case And(left, right) | Or(left, right):
            level = 1 if isinstance(expr, And) else 0
            op = rng.choice(["&", " & "] if level else ["|", " | "])
            text = (hoa_guard(left, table, rng, level) + op
                    + hoa_guard(right, table, rng, level))
    return f"({text})" if level < context or rng.random() < 0.2 else text


class TestGuardGrammar:
    """Malformed guards raise :class:`HoaError` at their line; well-formed
    ones hold on the letters the per-letter reference finds."""

    @pytest.mark.parametrize("guard, why", [
        ("", "unexpected end"),
        ("0 &", "unexpected end"),
        ("(0 | !0", "unexpected end"),
        ("0 | !0 )", "trailing tokens near ')'"),
        ("0 !0", "trailing tokens near '!'"),
        ("(0 t", "expected ')'"),
        ("1", "AP index 1 out of range"),
        ("0 | 7", "AP index 7 out of range"),
        ("p", "unexpected token 'p'"),
        ("0 & |", "unexpected token '|'"),
        ("()", "unexpected token ')'"),
    ])
    def test_malformed_guard_is_refused_at_its_line(self, guard, why):
        with pytest.raises(HoaError, match="bad guard") as err:
            parse_hoa(MINIMAL_BUCHI.replace("[t] 0", f"[{guard}] 0"))
        assert why in str(err.value)
        assert err.value.line == 9

    def test_random_guards_hold_on_the_reference_letters(self):
        rng = random.Random(17)
        for _ in range(300):
            table = ApTable(("p", "q", "r")[:rng.randint(1, 3)])
            expr = random_bool_expr(rng, table.names, depth=4)
            guard = hoa_guard(expr, table, rng)
            aps = " ".join(f'"{n}"' for n in table.names)
            text = (f"HOA: v1\nStates: 2\nStart: 0\nAP: {table.size} {aps}\n"
                    f"acc-name: Buchi\nAcceptance: 1 Inf(0)\n--BODY--\n"
                    f"State: 0\n[{guard}] 1\n[!({guard})] 0\nState: 1 {{0}}\n[t] 1\n"
                    f"--END--\n")
            aut, parsed_table = parse_hoa(text)
            assert parsed_table == table
            assert aut.targets.tolist()[0] == [
                int(evaluate(expr, letter, table)) for letter in table.letters()], guard


def assert_isomorphic(a, ta, b, tb):
    assert a.n_states == b.n_states
    assert a.initial == b.initial
    assert ta.names == tb.names
    assert letter_table(a, ta) == letter_table(b, tb)
    assert type(a.acceptance) is type(b.acceptance)
    assert a.acceptance == b.acceptance


class TestRoundTrip:
    TABLE = ApTable(("p", "q"))

    def sample_automata(self):
        rng = random.Random(99)
        for kind in ("buchi", "cobuchi", "rabin", "safety"):
            for _ in range(10):
                yield random_letter_automaton(rng, self.TABLE, 3, kind)

    def test_round_trip_all_kinds(self):
        for aut in self.sample_automata():
            text = emit_hoa(aut, self.TABLE)
            parsed, table = parse_hoa(text)
            assert_isomorphic(aut, self.TABLE, parsed, table)

    def test_random_automaton_is_its_document(self):
        for aut in self.sample_automata():
            assert same_automaton(parse_hoa(emit_hoa(aut, self.TABLE))[0], aut)

    def test_round_trip_parity(self):
        rng = random.Random(5)
        base = random_letter_automaton(rng, self.TABLE, 4, "buchi")
        aut = with_parity_acceptance(base)
        text = emit_hoa(aut, self.TABLE)
        parsed, table = parse_hoa(text)
        assert_isomorphic(aut, self.TABLE, parsed, table)
        assert "parity max even 5" in text

    def test_emit_is_stable(self):
        aut, table = parse_hoa(MINIMAL_BUCHI)
        once = emit_hoa(aut, table)
        again = emit_hoa(*parse_hoa(once))
        assert once == again

    def test_safety_header(self):
        rng = random.Random(11)
        aut = random_letter_automaton(rng, self.TABLE, 3, "safety")
        text = emit_hoa(aut, self.TABLE)
        assert "acc-name: safety" in text
        assert "Acceptance: 0 t" in text

    @pytest.mark.parametrize("edges", [
        ((Var("p"), 0), (Var("p"), 0), (Not(Var("p")), 0)),  # p guards two edges
        ((Var("p"), 0),),  # no edge for !p
    ], ids=["nondeterministic", "partial"])
    def test_invalid_automaton_is_refused(self, edges):
        with pytest.raises(ValidationError):
            OmegaAutomaton.from_edges(
                self.TABLE, 0, letter_edges((edges,), self.TABLE), Buchi(frozenset({0})))

    def test_emitted_guard_grammar(self):
        for aut in self.sample_automata():
            text = emit_hoa(aut, self.TABLE)
            for line in text.splitlines():
                if line.startswith("["):
                    guard = line[1:line.index("]")]
                    assert re.fullmatch(r"[t!&|()\d ]+", guard), guard


def with_parity_acceptance(base):
    from dataclasses import replace

    colours = tuple(s % 5 for s in range(base.n_states))
    return replace(base, acceptance=Parity(colours, 5))
