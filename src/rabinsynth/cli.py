"""Command-line front end.

Exit codes: 0 for realizable / verified / clean differential, 1 for the
negative verdicts, 2 for any usage, parse or validation problem, 3 for an
internal fault.  Diagnostics go to stderr; machine-readable output appears on
stdout only under ``--json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .automata import Lasso
from .hoa import emit_hoa
from .mealy import machine_from_json, machine_to_dict, machine_to_dot, machine_to_json
from .pipeline import (
    ConjunctSource,
    InternalCertificationFailure,
    Realizable,
    SpecProblem,
    differential_test,
    normalize_problem,
    synthesize,
    verify_mealy,
)
from .product import build_product


class SpecFileError(Exception):
    pass


def load_spec_problem(path: str | Path) -> SpecProblem:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path} is not valid JSON: {exc}") from exc
    return spec_problem_from_dict(data, base_dir=path.parent)


def spec_problem_from_dict(data: dict, *, base_dir: Path) -> SpecProblem:
    if not isinstance(data, dict):
        raise SpecFileError("specification must be a JSON object")
    for key in ("inputs", "outputs"):
        if not isinstance(data.get(key), list):
            raise SpecFileError(f"missing or malformed {key!r} list")

    def conjuncts(key: str) -> tuple[ConjunctSource, ...]:
        entries = data.get(key, [])
        if not isinstance(entries, list):
            raise SpecFileError(f"{key!r} must be a list")
        sources = []
        for entry in entries:
            if not isinstance(entry, dict) or len(entry) != 1:
                raise SpecFileError(
                    f"each {key} entry must be an object with exactly one of "
                    "'ltl', 'hoa' or 'hoa_file'")
            ((kind, value),) = entry.items()
            if kind not in ("ltl", "hoa", "hoa_file") or not isinstance(value, str):
                raise SpecFileError(f"bad {key} entry: {entry!r}")
            if kind == "hoa_file":
                try:
                    value = str((base_dir / value).resolve())
                except (OSError, ValueError) as exc:  # e.g. a NUL in the path
                    raise SpecFileError(f"bad {key} path {value!r}: {exc}") from exc
            sources.append(ConjunctSource(**{kind: value}))
        return tuple(sources)

    return SpecProblem(
        inputs=tuple(data["inputs"]),
        outputs=tuple(data["outputs"]),
        assumptions=conjuncts("assumptions"),
        guarantees=conjuncts("guarantees"),
    )


def _lasso_as_names(lasso: Lasso, table) -> dict:
    return {
        "stem": [list(table.letter_names(a)) for a in lasso.stem],
        "loop": [list(table.letter_names(a)) for a in lasso.loop],
    }


def _counterstrategy_dict(outcome, inputs) -> dict:
    from .boolexpr import ApTable

    in_table = ApTable(tuple(inputs))
    return {
        "inputs": list(inputs),
        "initial": outcome.initial_vertex,
        "moves": [
            {"vertex": v, "input": list(in_table.letter_names(letter))}
            for v, letter in outcome.counterstrategy.items()
        ],
    }


def _cmd_synth(args) -> int:
    problem = load_spec_problem(args.spec)
    outcome = synthesize(problem)
    if isinstance(outcome, Realizable):
        text = machine_to_json(outcome.machine)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        if args.dot:
            Path(args.dot).write_text(
                machine_to_dot(outcome.machine), encoding="utf-8")
        if args.json:
            print(json.dumps({
                "realizable": True,
                "machine": machine_to_dict(outcome.machine),
            }, indent=2))
        else:
            print("realizable")
        _print_stats(outcome.stats)
        return 0
    counterstrategy = _counterstrategy_dict(outcome, problem.inputs)
    if args.counterstrategy:
        Path(args.counterstrategy).write_text(
            json.dumps(counterstrategy, indent=2) + "\n", encoding="utf-8")
    if args.json:
        print(json.dumps({
            "realizable": False,
            "counterstrategy": counterstrategy,
        }, indent=2))
    else:
        print("unrealizable")
    _print_stats(outcome.stats)
    return 1


def _cmd_check(args) -> int:
    outcome = synthesize(load_spec_problem(args.spec))
    realizable = isinstance(outcome, Realizable)
    if args.json:
        print(json.dumps({"realizable": realizable}))
    else:
        print("realizable" if realizable else "unrealizable")
    _print_stats(outcome.stats)
    return 0 if realizable else 1


def _cmd_product(args) -> int:
    spec = normalize_problem(load_spec_problem(args.spec))
    pa = build_product(spec)
    text = emit_hoa(pa.automaton, pa.table)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    spec = normalize_problem(load_spec_problem(args.spec))
    pa = build_product(spec)
    machine = machine_from_json(Path(args.machine).read_text(encoding="utf-8"))
    violation = verify_mealy(machine, pa)
    if violation is None:
        print(json.dumps({"ok": True}) if args.json else "ok")
        return 0
    witness = _lasso_as_names(violation.lasso, pa.table)
    if args.json:
        print(json.dumps({"ok": False, "violation": witness}, indent=2))
    else:
        print("violation")
        print("  stem:", witness["stem"])
        print("  loop:", witness["loop"])
    return 1


def _cmd_oracle_test(args) -> int:
    spec = normalize_problem(load_spec_problem(args.spec))
    report = differential_test(
        spec, args.max_stem, args.max_loop, max_aps=args.max_aps)
    if args.json:
        print(json.dumps({
            "checked": report.checked,
            "mismatches": report.mismatches,
        }))
    else:
        print(f"checked {report.checked} lassos, {report.mismatches} mismatches")
    return 0 if report.mismatches == 0 else 1


def _print_stats(stats) -> None:
    print(
        f"product states: {stats.product_states}, "
        f"game vertices: {stats.game_env_vertices}+{stats.game_system_vertices}, "
        f"minimised machine states: {stats.machine_states}, "
        f"colours: {list(stats.colours_used)}, "
        f"solve time: {stats.solve_seconds:.3f}s",
        file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabinsynth",
        description="Synthesize Mealy machines from assumption/guarantee "
                    "specifications with Rabin-index-1 conjuncts.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize an implementation")
    synth.add_argument("spec")
    synth.add_argument("--out", help="write the machine as JSON")
    synth.add_argument("--dot", help="write the machine as DOT")
    synth.add_argument("--counterstrategy",
                       help="write the counterstrategy as JSON if unrealizable")
    synth.add_argument("--json", action="store_true")
    synth.set_defaults(handler=_cmd_synth)

    check = sub.add_parser("check", help="decide realizability only")
    check.add_argument("spec")
    check.add_argument("--json", action="store_true")
    check.set_defaults(handler=_cmd_check)

    product = sub.add_parser("product", help="emit the parity product automaton")
    product.add_argument("spec")
    product.add_argument("--out", help="output file (default: stdout)")
    product.set_defaults(handler=_cmd_product)

    verify = sub.add_parser("verify", help="check a machine against a specification")
    verify.add_argument("spec")
    verify.add_argument("machine")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(handler=_cmd_verify)

    oracle = sub.add_parser(
        "oracle-test",
        help="compare the product against the conjunct oracle on small lassos")
    oracle.add_argument("spec")
    oracle.add_argument("--max-stem", type=int, default=2)
    oracle.add_argument("--max-loop", type=int, default=3)
    oracle.add_argument("--max-aps", type=int, default=3)
    oracle.add_argument("--json", action="store_true")
    oracle.set_defaults(handler=_cmd_oracle_test)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalise --help to 0
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        raise
    except (InternalCertificationFailure, AssertionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - single translation point to exit codes
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
