import pytest
from hypothesis import given, settings, strategies as st

from rabinsynth.boolexpr import (
    And,
    ApTable,
    Iff,
    Implies,
    Lit,
    Not,
    Or,
    Var,
    format_expr,
    free_names,
    letter_set,
    read_formula,
)
from rabinsynth.ltl import LtlError, StateInit, parse_ltl
from rabinsynth.ltl import _OPERATORS, _atom, _fail, _tokenize  # the pattern grammar

from helpers import evaluate

NAMES = ("a", "b", "c")


def exprs(depth=3):
    leaves = st.one_of(
        st.sampled_from([Var(n) for n in NAMES]),
        st.sampled_from([Lit(True), Lit(False)]),
    )

    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Implies, children, children),
            st.builds(Iff, children, children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def parse_bool(text):
    tokens = _tokenize(text)
    expr, end = read_formula(tokens, _OPERATORS, _atom, Not, _fail)
    assert end == len(tokens)
    return expr


class TestApTable:
    def test_letter_round_trip(self):
        table = ApTable(("req", "grant", "err"))
        letter = table.letter(["err", "req"])
        assert letter == 0b101
        assert table.letter_names(letter) == ("err", "req")

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ApTable(("a", "a"))

    def test_rejects_bad_identifier(self):
        with pytest.raises(ValueError):
            ApTable(("1bad",))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            ApTable(("a",)).letter(["b"])

    def test_rejects_more_than_twenty_names(self):
        ApTable(tuple(f"p{k}" for k in range(20)))
        with pytest.raises(ValueError, match="limit of 20"):
            ApTable(tuple(f"p{k}" for k in range(21)))


class TestEvaluate:
    def test_connectives(self):
        table = ApTable(("a", "b"))
        a, b = Var("a"), Var("b")
        only_a = table.letter(["a"])
        assert evaluate(And(a, Not(b)), only_a, table)
        assert evaluate(Implies(b, a), only_a, table)
        assert not evaluate(Iff(a, b), only_a, table)
        assert evaluate(Or(b, Lit(True)), 0, table)


@given(exprs())
def test_letter_set_matches_evaluate(expr):
    table = ApTable(NAMES)
    letters = letter_set(expr, table)
    assert [letters >> letter & 1 == 1 for letter in table.letters()] == [
        evaluate(expr, letter, table) for letter in table.letters()]


@pytest.mark.parametrize("op", [And, Or])
def test_free_names_walks_a_long_chain(op):
    chain = Var("a")
    for k in range(1600):
        chain = op(chain, Not(Var("bc"[k % 2])))
    assert sorted(set(free_names(chain))) == ["a", "b", "c"]


@given(exprs())
def test_format_parse_identity(expr):
    assert parse_bool(format_expr(expr)) == expr


@given(exprs(), st.integers(min_value=0, max_value=7))
def test_format_preserves_semantics(expr, letter):
    table = ApTable(NAMES)
    assert evaluate(parse_bool(format_expr(expr)), letter, table) == evaluate(
        expr, letter, table)


@settings(derandomize=True, max_examples=300)
@given(exprs())
def test_pattern_text_means_its_formula(expr):
    """Read as pattern text, a formula is refused or means what it says: a
    top-level ``&`` splits it into conjuncts that hold together exactly
    where the formula does."""
    table = ApTable(NAMES)
    try:
        conjuncts = parse_ltl(format_expr(expr))
    except LtlError:
        return
    letters = (1 << table.n_letters) - 1
    for conjunct in conjuncts:
        assert isinstance(conjunct, StateInit)
        letters &= letter_set(conjunct.condition, table)
    assert letters == letter_set(expr, table)
