"""Mutation fuzzing of the text front ends: whatever text ``parse_hoa`` and
``parse_ltl`` are given, only their documented errors may escape.

Seeds are well-formed inputs: documents written by ``emit_hoa`` for random
automata of every acceptance kind, and pattern texts written by
``format_pattern``.  Each example applies a few mutations to one seed:
deleting a slice, repeating a chunk up to thousands of times (long chains),
nesting one formula of the input (an acceptance formula, a guard, a
proposition) in parentheses or behind ``!`` up to thousands of levels deep,
replacing one character, replacing a number (by a huge one or by digits
``int`` does not read), or duplicating, dropping or swapping lines.
"""

import random
import re
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from rabinsynth.automata import Parity, ValidationError
from rabinsynth.boolexpr import ApTable
from rabinsynth.hoa import HoaError, emit_hoa, parse_hoa
from rabinsynth.ltl import LtlError, format_pattern, parse_ltl
from rabinsynth.rand import arbiter_problem, random_letter_automaton, random_pattern


def hoa_seeds() -> list[str]:
    rng = random.Random(17)
    seeds = []
    for table in (ApTable(("p",)), ApTable(("p", "q"))):
        for kind in ("buchi", "cobuchi", "rabin", "safety"):
            aut = random_letter_automaton(rng, table, 3, kind)
            seeds.append(emit_hoa(aut, table))
        seeds.append(emit_hoa(replace(aut, acceptance=Parity((0, 3, 4), 5)), table))
    return seeds


def ltl_seeds() -> list[str]:
    rng = random.Random(19)
    problem = arbiter_problem(2)
    return ([format_pattern(random_pattern(rng, ("p", "q", "r"))) for _ in range(20)]
            + [c.ltl for c in problem.assumptions + problem.guarantees])


HOA_CHUNKS = ("(", ")", "!", "&", "|", "t", "f", "0", "1", "9", " ", "\n", "[", "]",
              "{", "}", ":", '"', "Inf(0) | ", "Fin(1) & ", "[t] 0\n", "State: 0\n",
              "parity max even ", "²", "٣")
LTL_CHUNKS = ("(", ")", "!", "&", "|", "->", "<->", "G", "F", "X", "U", "p", "true",
              " ", "G F ", "!(", "p | ", "p & ", "p -> ", "p <-> ", "²", "é")
#: the formulas of each input kind, one pattern per kind of formula
HOA_FORMULAS = (r"(?<=Acceptance: \d ).*", r"(?<=\[)[^\]\n]*")
LTL_FORMULAS = (r"\([^()]*\)", r"\b(?![GFXU]\b)[a-z]\w*")


@st.composite
def mutated(draw, seeds: list[str], chunks: tuple[str, ...], formulas: tuple[str, ...]) -> str:
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["delete", "repeat", "nest", "replace", "number", "lines"]))
        if op == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 8)):]
        elif op == "repeat":
            chunk = draw(st.sampled_from(chunks))
            text = text[:at] + chunk * draw(st.sampled_from([1, 2, 7, 120, 3000])) + text[at:]
        elif op == "nest":
            spans = [m.span() for m in re.finditer(draw(st.sampled_from(formulas)), text)]
            if spans:
                i, j = draw(st.sampled_from(spans))
                k = draw(st.sampled_from([1, 120, 3000]))
                before, after = draw(st.sampled_from([("(", ")"), ("!", "")]))
                text = text[:i] + before * k + text[i:j] + after * k + text[j:]
        elif op == "replace":
            text = text[:at] + draw(st.sampled_from(chunks))[:1] + text[at + 1:]
        elif op == "number":
            spans = [m.span() for m in re.finditer(r"\d+", text)]
            if spans:
                i, j = draw(st.sampled_from(spans))
                new = draw(st.sampled_from(["0", "2", "99", "12345678901", "²", "٣"]))
                text = text[:i] + new + text[j:]
        else:
            lines = text.split("\n")
            i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            how = draw(st.sampled_from(["duplicate", "drop", "swap"]))
            if how == "duplicate":
                lines.insert(i, lines[j])
            elif how == "drop":
                del lines[i]
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated(hoa_seeds(), HOA_CHUNKS, HOA_FORMULAS))
def test_parse_hoa_raises_only_its_errors(text):
    try:
        parse_hoa(text)
    except (HoaError, ValidationError):
        pass


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated(ltl_seeds(), LTL_CHUNKS, LTL_FORMULAS))
def test_parse_ltl_raises_only_its_errors(text):
    try:
        parse_ltl(text)
    except LtlError:
        pass
