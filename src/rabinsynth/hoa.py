"""Reader and writer for a small HOA-style automaton interchange format.

Supported documents consist of the headers ``HOA: v1``, ``States:``,
``Start:``, ``AP:``, ``acc-name:``, ``Acceptance:`` followed by a ``--BODY--``
section of per-state blocks with guarded edges, closed by ``--END--``.
Acceptance is state-based; automata must be deterministic and total.
Emitted guards are ``t`` or a disjunction of minterms over AP indices
(``0 & !1 | !0 & 1``); read guards may use ``t f ! & |`` and parentheses,
with ``!`` and parentheses nested at most :data:`MAX_GUARD_DEPTH` deep, as
are the parentheses of an acceptance formula.

Recognised acceptance names and their canonical ``Acceptance:`` lines:

=====================  ===============================================
``Buchi``              ``1 Inf(0)``                 (set 0: accepting)
``co-Buchi``           ``1 Fin(0)``                 (set 0: rejecting)
``Rabin 1``            ``2 Fin(0) & Inf(1)``        (set 0: complement of
                       the persistence set, set 1: recurrence set)
``parity max even n``  max-even chain over n sets   (set c: colour c)
``safety``             ``0 t``                      (no sets)
=====================  ===============================================
"""

from __future__ import annotations

import functools
import re
from operator import and_, or_

from .automata import (
    Buchi,
    CoBuchi,
    OmegaAutomaton,
    OnePairRabin,
    Parity,
    Safety,
    transition_table,
)
from .boolexpr import MAX_GUARD_DEPTH, ApTable, proposition_sets, read_formula


class HoaError(Exception):
    """Malformed document; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class UnsupportedFeature(HoaError):
    def __init__(self, name: str, line: int | None = None):
        self.feature = name
        super().__init__(f"unsupported feature: {name}", line)


# ---------------------------------------------------------------------------
# formulas: guards and acceptance conditions share one grammar


def _read_whole(tokens: list[str], operators, atom, negate, fail):
    """:func:`~rabinsynth.boolexpr.read_formula` over all of ``tokens``."""
    value, end = read_formula(tokens, operators, atom, negate, fail)
    if end != len(tokens):
        fail(f"trailing tokens near {tokens[end]!r}")
    return value


# ---------------------------------------------------------------------------
# acceptance formulas


def _parity_max_even_formula(n_sets: int) -> str:
    """``Inf(0)``, then each further set c wrapping what came before:
    ``Inf(c) | (...)`` for even c, ``Fin(c) & (...)`` for odd c."""
    if n_sets == 0:
        return ""
    heads = [f"Inf({c}) | (" if c % 2 == 0 else f"Fin({c}) & (" for c in range(n_sets - 1, 0, -1)]
    return "".join(heads) + "Inf(0)" + ")" * (n_sets - 1)


_CANONICAL_ACCEPTANCE = {
    "Buchi": (1, "Inf(0)"),
    "co-Buchi": (1, "Fin(0)"),
    "Rabin 1": (2, "Fin(0) & Inf(1)"),
    "safety": (0, "t"),
}

_ACC_TOKEN = re.compile(r"(?:Fin|Inf)\s*\(\s*\d+\s*\)|\d+|\S")
_ACC_ATOM = re.compile(r"(Fin|Inf)\s*\(\s*(\d+)\s*\)")


def _parse_acc_formula(text: str, line: int):
    """Parse an acceptance formula into a normalised nested-tuple form:
    ``("fin", k)``, ``("inf", k)``, ``("t",)``, ``("f",)``, and ``("and",
    ...)``/``("or", ...)`` with nested chains of the same operator flattened."""
    def fail(why: str):
        raise HoaError(f"malformed acceptance formula {text!r}: {why}", line)

    def atom(tok: str):
        m = _ACC_ATOM.fullmatch(tok)
        if m:
            return (m[1].lower(), int(m[2]))
        if tok in ("t", "f"):
            return (tok,)
        fail(f"unexpected token {tok!r}")

    def flat(op: str):
        return lambda x, y: (op, *(x[1:] if x[0] == op else (x,)),
                             *(y[1:] if y[0] == op else (y,)))

    operators = (("|", flat("or"), "flat"), ("&", flat("and"), "flat"))
    return _read_whole(_ACC_TOKEN.findall(text), operators, atom,
                       lambda _: fail("unexpected token '!'"), fail)


@functools.lru_cache
def _canonical_formula(acc_name: str, n_sets: int):
    """The canonical acceptance formula of ``acc_name`` over ``n_sets`` sets,
    parsed once per pair."""
    return _parse_acc_formula(_parity_max_even_formula(n_sets) if acc_name == "parity"
                              else _CANONICAL_ACCEPTANCE[acc_name][1], None)


def _check_acceptance_line(acc_name: str, n_sets: int, formula: str, line: int) -> None:
    mismatch = HoaError(
        f"acceptance formula {formula!r} does not match acc-name {acc_name!r}", line)
    if acc_name.startswith("parity"):
        # the canonical formula names each set once: count before writing it out
        if len(re.findall(r"Fin|Inf", formula)) != n_sets:
            raise mismatch
    else:
        expected_sets = _CANONICAL_ACCEPTANCE[acc_name][0]
        if n_sets != expected_sets:
            raise HoaError(
                f"acceptance declares {n_sets} sets, {acc_name} uses {expected_sets}",
                line)
    if _parse_acc_formula(formula, line) != _canonical_formula(acc_name, n_sets):
        raise mismatch


# ---------------------------------------------------------------------------
# guards over AP indices


_GUARD_TOKEN = re.compile(r"\d+|\S")
_STATE_LINE = re.compile(r"(\d+)\s*(?:\{([\d\s]*)\})?")  # after "State:"
_EDGE_TARGET = re.compile(r"\d+")
_GUARD_OPERATORS = (("|", or_, "flat"), ("&", and_, "flat"))


def _guard_reader(table: ApTable):
    """``read(text, line)``: the letters of ``table`` a guard holds on, as a
    letter set (see :func:`~rabinsynth.boolexpr.proposition_sets`)."""
    full = (1 << table.n_letters) - 1
    atoms = {"t": full, "f": 0, **{str(i): s for i, s in enumerate(proposition_sets(table.size))}}

    def read(text: str, line: int) -> int:
        def fail(why: str):
            raise HoaError(f"bad guard: {why}", line)

        def atom(tok: str) -> int:
            letters = atoms.get(tok)
            if letters is None:
                if not tok.isdecimal():
                    fail(f"unexpected token {tok!r}")
                index = int(tok)
                if index >= table.size:
                    fail(f"AP index {index} out of range")
                letters = atoms[str(index)]
            return letters

        return _read_whole(_GUARD_TOKEN.findall(text), _GUARD_OPERATORS, atom, full.__xor__, fail)

    return read


# ---------------------------------------------------------------------------
# emitter


def emit_hoa(aut: OmegaAutomaton, table: ApTable) -> str:
    """Serialise an automaton through its letter table over ``table`` (see
    :func:`~rabinsynth.automata.transition_table`); stable under parse/emit
    round-trips.

    Each state gets one edge per target, in ascending target order.  Its
    guard is ``t`` if the edge covers every letter, and otherwise the
    disjunction of its letters' minterms (``0 & !1 & 2``) in letter order."""
    rows = transition_table(aut, table).tolist()
    match aut.acceptance:
        case Buchi(accepting):
            acc_name = "Buchi"
            sets = [accepting]
        case CoBuchi(rejecting):
            acc_name = "co-Buchi"
            sets = [rejecting]
        case OnePairRabin(persistent, recurrent):
            acc_name = "Rabin 1"
            sets = [frozenset(range(len(rows))) - persistent, recurrent]
        case Parity(colours, n_colours):
            acc_name = f"parity max even {n_colours}"
            sets = [frozenset(s for s, c in enumerate(colours) if c == k)
                    for k in range(n_colours)]
        case Safety():
            acc_name = "safety"
            sets = []
        case _:
            raise UnsupportedFeature(type(aut.acceptance).__name__)
    formula = (_parity_max_even_formula(len(sets)) if isinstance(aut.acceptance, Parity)
               else _CANONICAL_ACCEPTANCE[acc_name][1])
    lines = [
        "HOA: v1",
        f"States: {len(rows)}",
        f"Start: {aut.initial}",
        "AP: " + " ".join([str(table.size)] + [f'"{n}"' for n in table.names]),
        f"acc-name: {acc_name}",
        f"Acceptance: {len(sets)} {formula}",
        "--BODY--",
    ]
    minterms = [" & ".join(str(i) if letter >> i & 1 else f"!{i}" for i in range(table.size))
                for letter in table.letters()]
    for s, row in enumerate(rows):
        membership = [k for k, ss in enumerate(sets) if s in ss]
        suffix = " {" + " ".join(map(str, membership)) + "}" if membership else ""
        lines.append(f"State: {s}{suffix}")
        by_target: dict[int, list[str]] = {}
        for term, target in zip(minterms, row):
            by_target.setdefault(target, []).append(term)
        for target in sorted(by_target):
            terms = by_target[target]
            guard = "t" if len(terms) == len(minterms) else " | ".join(terms)
            lines.append(f"[{guard}] {target}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser


_HEADERS = ("HOA", "States", "Start", "AP", "acc-name", "Acceptance")


def parse_hoa(text: str) -> tuple[OmegaAutomaton, ApTable]:
    """Parse a document into an automaton over the table of its ``AP:`` line.
    Raises :class:`HoaError` on a malformed document and
    :class:`~rabinsynth.automata.ValidationError` on a nondeterministic or
    partial automaton."""
    headers: dict[str, tuple[str, int]] = {}
    lines = text.splitlines()
    body_start = None
    for i, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            continue
        if line == "--BODY--":
            body_start = i + 1
            break
        if ":" not in line:
            raise HoaError(f"expected a 'name: value' header, got {line!r}", i + 1)
        name, value = line.split(":", 1)
        name = name.strip()
        if name not in _HEADERS:
            raise UnsupportedFeature(name, i + 1)
        if name in headers:
            raise HoaError(f"duplicate header {name!r}", i + 1)
        headers[name] = (value.strip(), i + 1)
    if body_start is None:
        raise HoaError("missing --BODY-- marker")
    for required in _HEADERS:
        if required not in headers:
            raise HoaError(f"missing header {required!r}")
    if headers["HOA"][0] != "v1":
        raise UnsupportedFeature(f"HOA version {headers['HOA'][0]}",
                                 headers["HOA"][1])

    value, line_no = headers["States"]
    if not value.isdecimal() or int(value) == 0:
        raise HoaError(f"bad state count {value!r}", line_no)
    n_states = int(value)

    value, line_no = headers["Start"]
    if not value.isdecimal():
        raise HoaError(f"bad start state {value!r}", line_no)
    initial = int(value)

    value, line_no = headers["AP"]
    parts = re.findall(r'"([^"]*)"|(\S+)', value)
    flat = [a or b for a, b in parts]
    if not flat or not flat[0].isdecimal():
        raise HoaError(f"bad AP header {value!r}", line_no)
    if int(flat[0]) != len(flat) - 1:
        raise HoaError("AP count does not match the number of names", line_no)
    try:
        table = ApTable(tuple(flat[1:]))
    except ValueError as exc:
        raise HoaError(str(exc), line_no) from exc

    acc_name, acc_line = headers["acc-name"]
    n_colours = None
    if acc_name not in _CANONICAL_ACCEPTANCE:
        m = re.fullmatch(r"parity max even (\d+)", acc_name)
        if not m:
            raise UnsupportedFeature(acc_name, acc_line)
        n_colours = int(m.group(1))
        if n_colours == 0:
            raise HoaError("parity automata need at least one colour", acc_line)

    value, line_no = headers["Acceptance"]
    m = re.match(r"(\d+)\s*(.*)\Z", value)
    if not m:
        raise HoaError(f"bad acceptance header {value!r}", line_no)
    n_sets = int(m.group(1))
    _check_acceptance_line(
        acc_name if n_colours is None else "parity",
        n_sets if n_colours is None else n_colours,
        m.group(2), line_no)
    if n_colours is not None and n_sets != n_colours:
        raise HoaError("parity set count must equal the colour count", line_no)

    # body
    memberships: dict[int, frozenset[int]] = {}
    edges: dict[int, list[tuple[int, int]]] = {}
    read_guard = _guard_reader(table)
    current: int | None = None
    end_seen = False
    for i in range(body_start, len(lines)):
        line = lines[i].strip()
        line_no = i + 1
        if not line:
            continue
        if line == "--END--":
            end_seen = True
            for j in range(i + 1, len(lines)):
                if lines[j].strip():
                    raise HoaError("content after --END--", j + 1)
            break
        if line.startswith("State:"):
            rest = line[len("State:"):].strip()
            m = _STATE_LINE.fullmatch(rest)
            if not m:
                raise HoaError(f"bad state line {line!r}", line_no)
            current = int(m.group(1))
            if current >= n_states:
                raise HoaError(f"state {current} out of range", line_no)
            if current in edges:
                raise HoaError(f"duplicate block for state {current}", line_no)
            edges[current] = []
            member = frozenset(int(x) for x in (m.group(2) or "").split())
            if any(k >= n_sets for k in member):
                raise HoaError("acceptance set id out of range", line_no)
            memberships[current] = member
        elif line.startswith("["):
            if current is None:
                raise HoaError("edge before the first state block", line_no)
            close = line.find("]")
            if close < 0:
                raise HoaError("unterminated guard", line_no)
            target_text = line[close + 1:].strip()
            if not _EDGE_TARGET.fullmatch(target_text):
                raise HoaError(f"bad edge target {target_text!r}", line_no)
            edges[current].append((read_guard(line[1:close], line_no), int(target_text)))
        else:
            raise HoaError(f"unexpected body line {line!r}", line_no)
    if not end_seen:
        raise HoaError("missing --END-- marker")
    if len(edges) < n_states:  # every block names a distinct state below n_states
        first = next(s for s in range(n_states) if s not in edges)
        raise HoaError(
            f"missing {n_states - len(edges)} state blocks, the first for state {first}")

    def in_set(k: int) -> frozenset[int]:
        return frozenset(s for s in range(n_states) if k in memberships[s])

    acceptance: object
    if acc_name == "Buchi":
        acceptance = Buchi(in_set(0))
    elif acc_name == "co-Buchi":
        acceptance = CoBuchi(in_set(0))
    elif acc_name == "Rabin 1":
        acceptance = OnePairRabin(
            persistent=frozenset(range(n_states)) - in_set(0),
            recurrent=in_set(1))
    elif acc_name == "safety":
        if any(memberships[s] for s in memberships):
            raise HoaError("safety automata carry no acceptance sets")
        acceptance = Safety()
    else:
        colours = []
        for s in range(n_states):
            member = memberships[s]
            if len(member) != 1:
                raise HoaError(
                    f"state {s} must belong to exactly one colour set")
            colours.append(next(iter(member)))
        acceptance = Parity(tuple(colours), n_colours)

    aut = OmegaAutomaton.from_edges(
        table, initial, [edges[s] for s in range(n_states)], acceptance)
    return aut, table
