#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the rabinsynth pipeline.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload arbiter3 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

One process and one thread run the workload as a closed loop: each spec
starts after the previous one has finished.  A round synthesizes every spec
of the workload (what ``rabinsynth synth --json`` does after start-up) and
oracle-tests it (what ``rabinsynth oracle-test`` does); rounds repeat until
``--seconds`` have passed, and every run does at least one whole round.
The last line of standard output is one JSON object with the result; see
README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

if not (SRC / "rabinsynth" / "__init__.py").is_file():
    sys.exit(f"error: no rabinsynth sources under {SRC}")
sys.path.insert(0, str(SRC))

from rabinsynth import (  # noqa: E402
    ApTable,
    Realizable,
    differential_test,
    machine_to_json,
    normalize_problem,
    synthesize,
)
from rabinsynth.cli import load_spec_problem  # noqa: E402

import checks  # noqa: E402
import specs  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("arbiter3", "unreal-arbiter3", "small-specs")
SMALL_BATCH = 28 * 36  # whole cycles of specs.SHAPES
SETUP_STARTS = 7


@dataclass
class Workload:
    """Spec documents, the verdicts known for them, and the oracle bounds
    ``(max_stem, max_loop, max_aps)``."""

    paths: list[Path]
    expected: dict[Path, bool]
    oracle: tuple[int, int, int]
    lassos_per_machine: int


def make_workload(name: str, seed: int, workdir: Path, *, small: bool) -> Workload:
    """Write the workload's documents into ``workdir``.

    ``small`` swaps in the inputs of the self-test: the 2-client arbiters and
    one random spec of every shape in ``specs.SHAPES``.
    """
    n = 2 if small else 3
    if name in ("arbiter3", "unreal-arbiter3"):
        unrealizable = name == "unreal-arbiter3"
        path = specs.write_document(
            specs.arbiter_document(n, unrealizable=unrealizable),
            workdir / f"{name}.json")
        # the exhaustive oracle over 2n propositions is kept to stem 1, loop 1
        return Workload([path], {path: not unrealizable}, (1, 1, 2 * n), 200)
    if name != "small-specs":
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(seed)
    corpus = specs.corpus_specs(ROOT)
    batch = [specs.write_document(
                 specs.random_document(rng, specs.SHAPES[k % len(specs.SHAPES)]),
                 workdir / f"r{k:04d}.json")
             for k in range(len(specs.SHAPES) if small else SMALL_BATCH)]
    expected = {p: specs.expected_verdict(p) for p in corpus}
    # max_aps 4 admits the two 4-proposition corpus specs
    return Workload(corpus + batch, expected, (2, 3, 4), 10)


def counterstrategy_document(outcome, inputs) -> dict:
    """The counterstrategy in the form ``rabinsynth synth --json`` prints."""
    table = ApTable(tuple(inputs))
    return {"inputs": list(inputs), "initial": outcome.initial_vertex,
            "moves": [{"vertex": v, "input": list(table.letter_names(letter))}
                      for v, letter in outcome.counterstrategy.items()]}


@dataclass
class Round:
    synth_seconds: list[float] = field(default_factory=list)
    oracle_seconds: float = 0.0
    lassos: int = 0
    strategy_states: int = 0
    # per spec: (path, realizable, serialised document) for the checks
    outputs: list[tuple[Path, bool, str]] = field(default_factory=list)
    raised: int = 0
    mismatched: int = 0


def run_round(workload: Workload, tracer: Tracer | None) -> Round:
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    result = Round()
    for spec_id, path in enumerate(workload.paths):
        if tracer:
            tracer.spec = spec_id
        try:
            started = perf_counter()
            with span("synth"):
                with span("cli.load"):
                    problem = load_spec_problem(path)
                with span("pipeline.synthesize") as record:
                    outcome = synthesize(problem)
                realizable = isinstance(outcome, Realizable)
                if realizable:
                    with span("mealy.serialise") as serialise:
                        text = machine_to_json(outcome.machine)
                    size = outcome.machine.n_states
                else:
                    text = json.dumps(counterstrategy_document(outcome, problem.inputs))
                    size = len(outcome.counterstrategy)
            result.synth_seconds.append(perf_counter() - started)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            _report_failure("synth", path, exc)
            result.raised += 1
        else:
            result.strategy_states += size
            result.outputs.append((path, realizable, text))
            if tracer:
                record.counts = {"unrealizable": int(not realizable)}
                if realizable:
                    serialise.counts = {"machine_states": size}

        max_stem, max_loop, max_aps = workload.oracle
        try:
            started = perf_counter()
            with span("oracle-test"):
                with span("cli.load"):
                    problem = load_spec_problem(path)
                with span("pipeline.normalize"):
                    spec = normalize_problem(problem)
                with span("pipeline.oracle") as record:
                    report = differential_test(spec, max_stem, max_loop, max_aps=max_aps)
            result.oracle_seconds += perf_counter() - started
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            _report_failure("oracle-test", path, exc)
            result.raised += 1
            continue
        result.lassos += report.checked
        if tracer:
            record.counts = {"lassos": report.checked}
        if report.mismatches:
            print(f"wrong: {path.name}: {report.mismatches} oracle mismatches",
                  file=sys.stderr)
            result.mismatched += 1
    return result


def _report_failure(operation: str, path: Path, exc: Exception) -> None:
    print(f"failed: {operation} {path.name}: {type(exc).__name__}: {exc}",
          file=sys.stderr)


def check_outputs(workload: Workload, rounds: list[Round], seed: int) -> int:
    """Number of returned results that their reference rejects."""
    wrong = 0
    verdicts: dict[Path, bool] = {}
    for path, realizable, text in (o for r in rounds for o in r.outputs):
        problem = load_spec_problem(path)
        spec = normalize_problem(problem)
        if path not in verdicts:
            verdicts[path] = workload.expected.get(path)
            if verdicts[path] is None:
                verdicts[path] = checks.progress_measure_verdict(spec)
        ok = realizable == verdicts[path]
        if ok and realizable:
            rng = random.Random(f"{seed}:{path.name}")
            ok = checks.machine_violations(
                json.loads(text), spec, rng, workload.lassos_per_machine) == 0
        elif ok:
            ok = checks.counterstrategy_ok(json.loads(text), problem.inputs)
        if not ok:
            print(f"wrong: {path.name}: output rejected by its reference check",
                  file=sys.stderr)
            wrong += 1
    return wrong


def measure_setup(starts: int) -> float:
    """Median wall time of a fresh interpreter importing the CLI module,
    after one start that warms the bytecode caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-c", "import rabinsynth.cli"]
    subprocess.run(command, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(starts):
        started = perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - started)
    return statistics.median(times)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run(workload_name: str, seed: int, seconds: float, trace: bool, *,
        small: bool = False, setup_starts: int = SETUP_STARTS) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = make_workload(workload_name, seed, workdir, small=small)
        setup_s = None if trace else measure_setup(setup_starts)
        tracer = Tracer() if trace else None
        plain: list[Round] = []
        traced: list[Round] = []
        started = perf_counter()
        while not plain or perf_counter() - started < seconds:
            plain.append(run_round(workload, None))
            if tracer:
                with tracer.inner_calls():
                    traced.append(run_round(workload, tracer))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds = plain + traced
        timed = perf_counter() - started
        wrong = check_outputs(workload, rounds, seed)
        print(f"{workload_name}: rounds {len(rounds)}, timed {timed:.1f} s, "
              f"checks {perf_counter() - started - timed:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops_per_round = 2 * len(workload.paths)
    wrong += sum(r.mismatched for r in rounds)
    failed = sum(r.raised for r in rounds) + wrong
    if tracer:
        tracer.write(OUT / f"trace-{workload_name}-{seed}.json")
        figures = layer_metrics(tracer, len(traced))
        figures["trace.overhead_s"] = (
            statistics.median(sum(r.synth_seconds) for r in traced)
            - statistics.median(sum(r.synth_seconds) for r in plain), "s")
    else:
        spec_times = [t for r in plain for t in r.synth_seconds]
        oracle_seconds = sum(r.oracle_seconds for r in plain)
        figures = {
            "setup_s": (setup_s, "s"),
            "synth_s": (statistics.median(sum(r.synth_seconds) for r in plain), "s"),
            "spec_ms_p50": (1000 * statistics.median(spec_times), "ms"),
            "spec_ms_p90": (1000 * p90(spec_times), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "strategy_states": (
                statistics.median(r.strategy_states for r in plain), "count"),
            "oracle_lassos_per_s": (
                sum(r.lassos for r in plain) / oracle_seconds if oracle_seconds else 0.0,
                "1/s"),
        }
    return {
        "correct": wrong == 0,
        "attempted": ops_per_round * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
    }


def self_test() -> int:
    """Every workload path, traced and untraced, on small inputs."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {False: {m["name"] for m in bench["end_to_end"]},
             True: {m["name"] for m in bench["per_layer"]}}
    failures = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            started = perf_counter()
            result = run(workload, 1, 0, trace, small=True, setup_starts=1)
            missing = names[trace] - set(result["metrics"])
            extra = set(result["metrics"]) - names[trace]
            ok = (result["correct"] and result["failed"] == 0
                  and not missing and not extra)
            failures += not ok
            print(f"{'ok' if ok else 'FAIL':4} {workload:16} trace={int(trace)} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"missing={sorted(missing)} extra={sorted(extra)} "
                  f"{perf_counter() - started:.1f}s")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload briefly on small inputs")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
