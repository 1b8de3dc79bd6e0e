"""Mutation fuzzing of the front ends: whatever text ``parse_hoa`` and
``parse_ltl`` are given, and whatever JSON documents the spec and machine
loaders are given, only their documented errors may escape.

Seeds are well-formed inputs: documents written by ``emit_hoa`` for random
automata of every acceptance kind, and pattern texts written by
``format_pattern``.  Each example applies a few mutations to one seed:
deleting a slice, repeating a chunk up to thousands of times (long chains),
nesting one formula of the input (an acceptance formula, a guard, a
proposition) in parentheses or behind ``!`` up to thousands of levels deep,
replacing one character, replacing a number (by a huge one or by digits
``int`` does not read), or duplicating, dropping or swapping lines.

Document seeds are the corpus specs, the 2-client arbiter with an inline
automaton, and the machines synthesized for the realizable corpus specs.
Each example replaces, deletes, duplicates, inserts or wraps a few values
anywhere in one seed's JSON tree.  Mutated machines are also checked end to
end, by ``rabinsynth verify`` against the spec they were synthesized for, and
mutated specs by ``rabinsynth product``, ``synth`` and ``oracle-test``.
"""

import contextlib
import copy
import io
import json
import random
import re
import shutil
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings, strategies as st

from rabinsynth.automata import Lasso, Parity, ValidationError
from rabinsynth.boolexpr import ApTable
from rabinsynth.cli import SpecFileError, load_spec_problem, run, spec_problem_from_dict
from rabinsynth.hoa import HoaError, emit_hoa, parse_hoa
from rabinsynth.ltl import LtlError, format_pattern, parse_ltl
from rabinsynth.mealy import machine_from_dict, machine_to_dict
from rabinsynth.pipeline import (
    NormalizationError, Realizable, lasso_oracle, normalize_problem, synthesize)
from rabinsynth.rand import arbiter_problem, random_letter_automaton, random_pattern

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_SPECS = sorted(p for p in CORPUS.glob("*.json") if not p.name.endswith(".expected.json"))


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
            + [c.ltl for c in problem.assumptions + problem.guarantees]
            # an ambiguous top-level & and names the tokenizer reads otherwise
            + ["o | i & !o", "p -> q & G r", "p & q <-> r", "G false & G (true -> X GF)",
               "G (F -> F XU)"])


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


def spec_seeds() -> list[dict]:
    seeds = [json.loads(path.read_text(encoding="utf-8")) for path in CORPUS_SPECS]
    problem = arbiter_problem(2)
    table = ApTable(problem.inputs + problem.outputs)
    aut = random_letter_automaton(random.Random(23), table, 2, "buchi")
    seeds.append({"inputs": list(problem.inputs), "outputs": list(problem.outputs),
                  "assumptions": [{"ltl": c.ltl} for c in problem.assumptions],
                  "guarantees": [{"ltl": c.ltl} for c in problem.guarantees]
                  + [{"hoa": emit_hoa(aut, table)}]})
    return seeds


def verify_seeds() -> list[tuple[Path, dict]]:
    """Each realizable corpus spec with the machine synthesized for it."""
    outcomes = ((path, synthesize(load_spec_problem(path))) for path in CORPUS_SPECS)
    return [(path, machine_to_dict(o.machine)) for path, o in outcomes
            if isinstance(o, Realizable)]


def machine_seeds() -> list[dict]:
    return [machine for _, machine in verify_seeds()]


#: values put into documents; short name lists only, since every guard pass
#: of a table walks all 2 ** size letters
VALUES = (None, True, False, 0, 1, -1, 7, 2 ** 70, 1.5, "", "r", "g", "x", "é", "a\x00b",
          "G F r", "gf_r.hoa", "missing.hoa", "..", [], {}, ["x"], [["x"]], [1], ["r", "r"],
          [f"p{i}" for i in range(22)], {"ltl": "G r"}, {"hoa": "HOA: v1"},
          {"hoa_file": "gf_r.hoa"}, {"ltl": "G r", "hoa": "HOA: v1"},
          {"from": 0, "on": [], "to": 0, "out": []})
KEYS = ("inputs", "outputs", "assumptions", "guarantees", "ltl", "hoa", "hoa_file",
        "states", "initial", "transitions", "from", "on", "to", "out", "extra")


def json_paths(node, path=()):
    """The key path of every value in a JSON tree, the root first."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from json_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from json_paths(child, path + (i,))


@st.composite
def mutated_document(draw, seeds: list[dict]):
    doc = {"root": copy.deepcopy(draw(st.sampled_from(seeds)))}
    for _ in range(draw(st.integers(1, 3))):
        path = ("root",) + draw(st.sampled_from(list(json_paths(doc["root"]))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        value = copy.deepcopy(draw(st.sampled_from(VALUES)))
        op = draw(st.sampled_from(["replace", "delete", "duplicate", "insert", "wrap"]))
        if op == "replace":
            parent[path[-1]] = value
        elif op == "delete" and len(path) > 1:
            del parent[path[-1]]
        elif op == "duplicate" and isinstance(node, list) and node:
            node.insert(draw(st.integers(0, len(node))),
                        copy.deepcopy(draw(st.sampled_from(node))))
        elif op == "insert" and isinstance(node, list):
            node.insert(draw(st.integers(0, len(node))), value)
        elif op == "insert" and isinstance(node, dict):
            node[draw(st.sampled_from(KEYS))] = value
        elif op == "wrap":
            parent[path[-1]] = draw(st.sampled_from(
                [[node], {draw(st.sampled_from(KEYS)): node}]))
    return doc["root"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_document(spec_seeds()))
def test_spec_documents_raise_only_their_errors(doc):
    try:
        normalize_problem(spec_problem_from_dict(doc, base_dir=CORPUS))
    except (SpecFileError, NormalizationError):
        pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_document(machine_seeds()))
def test_machine_documents_raise_only_their_errors(doc):
    try:
        machine_from_dict(doc)
    except ValueError:
        pass


VERIFY_SEEDS = verify_seeds()
NORMALIZED = {path: normalize_problem(load_spec_problem(path)) for path, _ in VERIFY_SEEDS}


@st.composite
def redirected_machine(draw, seed: dict) -> dict:
    """A well-formed machine: the seed with a few transitions sent to other
    states or given other outputs."""
    doc = copy.deepcopy(seed)
    for _ in range(draw(st.integers(1, 3))):
        transition = draw(st.sampled_from(doc["transitions"]))
        if draw(st.booleans()):
            transition["to"] = draw(st.integers(0, doc["states"] - 1))
        else:
            transition["out"] = draw(st.lists(st.sampled_from(doc["outputs"]), unique=True))
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(VERIFY_SEEDS).flatmap(lambda seed: st.tuples(
    st.just(seed[0]), st.one_of(redirected_machine(seed[1]), mutated_document([seed[1]])))))
def test_verify_command_on_mutated_machines(tmp_path_factory, case):
    """``rabinsynth verify`` exits 0, 1 or 2 on a mutated machine, and every
    witness it prints is a word that the specification rejects."""
    spec_path, doc = case
    machine = tmp_path_factory.getbasetemp() / "machine.json"
    machine.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(["verify", "--json", str(spec_path), str(machine)])
    assert code in (0, 1, 2)
    if code == 1:
        spec = NORMALIZED[spec_path]
        table = spec.table()
        witness = json.loads(out.getvalue())["violation"]
        lasso = Lasso(*(tuple(map(table.letter, witness[part])) for part in ("stem", "loop")))
        assert not lasso_oracle(spec, lasso)


#: each command with the exit codes a mutated spec may give: an oracle
#: mismatch (1 from ``oracle-test``) is a fault of the product, never of the spec
COMMANDS = {"product": (0, 2), "synth": (0, 1, 2),
            "oracle-test": (0, 2)}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_document(spec_seeds()), st.sampled_from(sorted(COMMANDS)))
def test_commands_on_mutated_specs(tmp_path_factory, doc, command):
    """``rabinsynth product``, ``synth`` and ``oracle-test`` run a mutated spec
    to an outcome or a documented error: no internal error (exit 3) and no
    exception escapes."""
    workdir = tmp_path_factory.getbasetemp()
    shutil.copy(CORPUS / "gf_r.hoa", workdir)  # the automaton file a seed names
    spec = workdir / "spec.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, str(spec)]
    if command == "oracle-test":
        argv += ["--max-stem", "1", "--max-loop", "2", "--max-aps", "4"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in COMMANDS[command]
