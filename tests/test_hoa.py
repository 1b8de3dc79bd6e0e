import random
import re

import pytest

from rabinsynth.automata import (
    Buchi,
    OmegaAutomaton,
    OnePairRabin,
    Parity,
    Safety,
    ValidationError,
)
from rabinsynth.boolexpr import ApTable, Not, Var
from rabinsynth.hoa import (
    MAX_GUARD_DEPTH,
    HoaError,
    UnsupportedFeature,
    emit_hoa,
    emit_letter_table,
    parse_hoa,
)
from rabinsynth.rand import random_letter_automaton

from helpers import letter_table, same_automaton

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
        text = emit_letter_table([row, row], 0, Safety(), table)
        aut, parsed_table = parse_hoa(text)
        assert aut.targets.tolist() == [row, row]
        assert emit_hoa(aut, parsed_table) == text


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
            OmegaAutomaton.from_edges(self.TABLE, 0, (edges,), Buchi(frozenset({0})))

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
