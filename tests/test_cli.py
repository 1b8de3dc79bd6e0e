import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rabinsynth import pipeline
from rabinsynth.automata import Lasso
from rabinsynth.cli import SpecFileError, load_spec_problem, run, spec_problem_from_dict
from rabinsynth.hoa import parse_hoa
from rabinsynth.mealy import machine_from_json
from rabinsynth.pipeline import normalize_problem
from rabinsynth.product import build_product
from rabinsynth.rand import arbiter_problem

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus(name: str) -> str:
    return str(CORPUS / name)


class TestCheck:
    def test_realizable_exits_zero(self, capsys):
        assert run(["check", corpus("arbiter.json")]) == 0
        assert capsys.readouterr().out.strip() == "realizable"

    def test_unrealizable_exits_one(self, capsys):
        assert run(["check", corpus("unrealizable_gr.json")]) == 1
        assert capsys.readouterr().out.strip() == "unrealizable"

    def test_json_output(self, capsys):
        assert run(["check", "--json", corpus("arbiter.json")]) == 0
        assert json.loads(capsys.readouterr().out) == {"realizable": True}

    def test_missing_file_exits_two(self, capsys):
        assert run(["check", "no_such_spec.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_spec_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"inputs": "nope"}', encoding="utf-8")
        assert run(["check", str(bad)]) == 2

    def test_bad_formula_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "inputs": ["p"], "outputs": ["q"],
            "assumptions": [], "guarantees": [{"ltl": "p U q"}],
        }), encoding="utf-8")
        assert run(["check", str(bad)]) == 2
        assert "fragment" in capsys.readouterr().err

    def test_proposition_pattern_text_cannot_name_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "inputs": ["i"], "outputs": ["false"],
            "assumptions": [], "guarantees": [{"ltl": "G false"}],
        }), encoding="utf-8")
        assert run(["check", str(bad)]) == 2
        assert "'false'" in capsys.readouterr().err


class TestSynth:
    def test_writes_machine_and_dot(self, tmp_path, capsys):
        out = tmp_path / "machine.json"
        dot = tmp_path / "machine.dot"
        code = run(["synth", corpus("arbiter.json"),
                    "--out", str(out), "--dot", str(dot)])
        assert code == 0
        machine = machine_from_json(out.read_text(encoding="utf-8"))
        assert machine.inputs == ("request",)
        assert "digraph" in dot.read_text(encoding="utf-8")

    def test_machine_verifies(self, tmp_path, capsys):
        out = tmp_path / "machine.json"
        assert run(["synth", corpus("robust_mutex.json"), "--out", str(out)]) == 0
        assert run(["verify", corpus("robust_mutex.json"), str(out)]) == 0

    def test_counterstrategy_export(self, tmp_path, capsys):
        cs = tmp_path / "cs.json"
        code = run(["synth", corpus("unrealizable_gr.json"),
                    "--counterstrategy", str(cs)])
        assert code == 1
        data = json.loads(cs.read_text(encoding="utf-8"))
        assert data["inputs"] == ["r"]
        assert all(move["input"] == [] for move in data["moves"])

    def test_json_machine_on_stdout(self, capsys):
        assert run(["synth", "--json", corpus("arbiter.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["realizable"] is True
        assert payload["machine"]["inputs"] == ["request"]

    def test_diagnostics_go_to_stderr(self, capsys):
        run(["synth", corpus("arbiter.json")])
        captured = capsys.readouterr()
        assert "product states" in captured.err
        assert "product states" not in captured.out
        assert "minimised machine states: " in captured.err


class TestProduct:
    def test_emits_parseable_hoa(self, tmp_path, capsys):
        out = tmp_path / "product.hoa"
        assert run(["product", corpus("gf_arbiter.json"), "--out", str(out)]) == 0
        aut, table = parse_hoa(out.read_text(encoding="utf-8"))
        assert table.names == ("r", "g")
        assert "parity" in out.read_text(encoding="utf-8")

    def test_stdout_default(self, capsys):
        assert run(["product", corpus("arbiter.json")]) == 0
        assert capsys.readouterr().out.startswith("HOA: v1")

    def test_three_client_arbiter_within_budget(self, tmp_path, capsys):
        problem = arbiter_problem(3)
        spec = tmp_path / "arbiter3.json"
        spec.write_text(json.dumps({
            "inputs": list(problem.inputs), "outputs": list(problem.outputs),
            "assumptions": [{"ltl": c.ltl} for c in problem.assumptions],
            "guarantees": [{"ltl": c.ltl} for c in problem.guarantees],
        }), encoding="utf-8")
        out = tmp_path / "product.hoa"
        started = time.perf_counter()
        assert run(["product", str(spec), "--out", str(out)]) == 0
        assert time.perf_counter() - started < 2.0
        n_states = build_product(normalize_problem(problem)).n_states
        assert f"\nStates: {n_states}\n" in out.read_text(encoding="utf-8")


class TestVerifyCommand:
    def test_violation_exits_one(self, tmp_path, capsys):
        never_grant = {
            "inputs": ["request"], "outputs": ["grant"],
            "states": 1, "initial": 0,
            "transitions": [
                {"from": 0, "on": [], "to": 0, "out": []},
                {"from": 0, "on": ["request"], "to": 0, "out": []},
            ],
        }
        machine_path = tmp_path / "machine.json"
        machine_path.write_text(json.dumps(never_grant), encoding="utf-8")
        assert run(["verify", corpus("arbiter.json"), str(machine_path)]) == 1
        out = capsys.readouterr().out
        assert "violation" in out
        assert "request" in out


    def test_machine_with_a_huge_state_count_exits_two(self, tmp_path, capsys):
        machine_path = tmp_path / "machine.json"
        machine_path.write_text(json.dumps({
            "inputs": ["request"], "outputs": ["grant"],
            "states": 1000000000, "initial": 0, "transitions": [],
        }), encoding="utf-8")
        assert run(["verify", corpus("arbiter.json"), str(machine_path)]) == 2
        assert "transitions" in capsys.readouterr().err


class TestOracleTest:
    def test_clean_report_exits_zero(self, capsys):
        assert run(["oracle-test", corpus("gf_arbiter.json"),
                    "--max-stem", "2", "--max-loop", "3"]) == 0
        assert "0 mismatches" in capsys.readouterr().out

    def test_json_report(self, capsys):
        assert run(["oracle-test", "--json", corpus("gf_arbiter.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"checked": 1764, "mismatches": 0}

    def test_lasso_count_beyond_int64_exits_two(self, capsys):
        assert run(["oracle-test", corpus("gf_arbiter.json"), "--max-stem", "40"]) == 2
        assert "2**63" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", [
        ["--max-loop", "-1"], ["--max-loop", "0"], ["--max-stem", "-1"]])
    def test_bounds_that_define_no_lasso_exit_two(self, capsys, bound):
        assert run(["oracle-test", corpus("arbiter.json"), *bound]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_stem >= 0 and max_loop >= 1" in captured.err

    def test_wide_alphabet_needs_flag(self, capsys):
        assert run(["oracle-test", corpus("robust_mutex.json")]) == 2
        assert run(["oracle-test", corpus("robust_mutex.json"),
                    "--max-aps", "4", "--max-loop", "2"]) == 0


class TestInternalFaults:
    def test_failed_model_check_exits_three(self, monkeypatch, capsys):
        monkeypatch.setattr(pipeline, "verify_mealy",
                            lambda machine, pa: pipeline.Violation(Lasso((), (0,))))
        assert run(["synth", "--json", corpus("arbiter.json")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: InternalCertificationFailure")


class TestSpecLoading:
    def test_hoa_file_paths_resolve_against_spec_dir(self):
        problem = load_spec_problem(CORPUS / "gf_arbiter_hoa.json")
        [assumption] = problem.assumptions
        assert assumption.hoa_file is not None
        assert Path(assumption.hoa_file).is_file()

    def test_nul_in_hoa_file_path_is_a_spec_file_error(self):
        doc = {"inputs": [], "outputs": [], "guarantees": [{"hoa_file": "a\0b"}]}
        with pytest.raises(SpecFileError, match="path"):
            spec_problem_from_dict(doc, base_dir=CORPUS)

    def test_console_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "rabinsynth.cli", "check",
             corpus("arbiter.json")],
            capture_output=True, text=True, check=False)
        assert result.returncode == 0
        assert result.stdout.strip() == "realizable"
