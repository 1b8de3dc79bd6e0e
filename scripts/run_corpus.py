#!/usr/bin/env python3
"""Synthesize every specification in corpus/ and print a verdict table.

Compares each verdict against its .expected.json sidecar and exits non-zero
on any disagreement.  ``synthesize`` model-checks every machine it returns, so
a failed verification raises ``InternalCertificationFailure`` and the script
also exits non-zero.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from rabinsynth.cli import load_spec_problem
from rabinsynth.pipeline import Realizable, synthesize

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def main() -> int:
    failures = 0
    header = f"{'spec':32} {'verdict':13} {'expected':9} {'product':>8} {'machine':>8} {'time':>8}"
    print(header)
    print("-" * len(header))
    for path in sorted(CORPUS.glob("*.json")):
        if path.name.endswith(".expected.json"):
            continue
        sidecar = path.with_name(path.name.replace(".json", ".expected.json"))
        expected = json.loads(sidecar.read_text())["realizable"]
        problem = load_spec_problem(path)
        started = time.perf_counter()
        outcome = synthesize(problem)
        elapsed = time.perf_counter() - started
        realizable = isinstance(outcome, Realizable)
        ok = realizable == expected
        failures += not ok
        print(f"{path.name:32} {'realizable' if realizable else 'unrealizable':13} "
              f"{str(expected):9} {outcome.stats.product_states:8d} "
              f"{outcome.stats.machine_states:8d} {elapsed:7.3f}s"
              + ("" if ok else "   <-- MISMATCH"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
