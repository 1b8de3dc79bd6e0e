"""Spans recorded around the calls into each layer of ``rabinsynth``.

Spans live in memory and are written out once, when the run ends.  Calls the
benchmark makes itself are wrapped in :meth:`Tracer.span`; calls one layer
makes into another inside ``synthesize``, ``build_product`` and
``differential_test`` are timed by swapping the module attribute the caller
looks up for a timing wrapper, only while a traced round runs.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

from rabinsynth import pipeline, product


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    spec: int | None
    end: float = 0.0
    counts: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.spec: int | None = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(name, perf_counter(), parent, self.spec)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn: Callable, counts: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            record.counts = counts(result)
            return result
        return traced

    @contextlib.contextmanager
    def inner_calls(self) -> Iterator[None]:
        """Time the layer calls made inside the program's entry points."""
        targets = [
            (pipeline, "normalize_problem", "pipeline.normalize",
             lambda spec: {"conjuncts": len(spec.components)}),
            (pipeline, "build_product", "product.build",
             lambda pa: {"states": pa.n_states,
                         "transitions": pa.n_states * pa.table.n_letters,
                         "colours": sorted(set(pa.colours))}),
            (product, "validate", "automata.validate", lambda _: {}),
            (product, "transition_table", "automata.transition_table", lambda _: {}),
            (pipeline, "build_game", "game.build",
             lambda g: {"vertices": g.n_vertices,
                        "edges": g.n_env_vertices * g.n_inputs
                        + g.n_system_vertices * g.n_outputs}),
            (pipeline, "solve_zielonka", "solvers.solve",
             lambda s: {"system_region": len(s.system_region),
                        "env_region": len(s.env_region)}),
            (pipeline, "extract_mealy", "pipeline.extract", lambda _: {}),
            (pipeline, "verify_mealy", "pipeline.verify", lambda _: {}),
        ]
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in targets]
        for module, attr, name, counts in targets:
            setattr(module, attr, self._wrap(name, getattr(module, attr), counts))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def write(self, path: Path) -> None:
        records = [{"name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "spec": s.spec, "counts": s.counts}
                   for s in self.spans]
        path.write_text(json.dumps(records) + "\n", encoding="utf-8")


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round per-layer figures from the spans of ``rounds`` traced rounds.

    Layer figures count the work under each spec's ``synth`` span; the
    oracle figures count the work under its ``oracle-test`` span.
    """
    spans = tracer.spans
    own = tracer.self_seconds()
    root_of: list[str] = []
    for s in spans:
        root_of.append(s.name if s.parent is None else root_of[s.parent])

    def pick(name: str, root: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s.name == name and root_of[i] == root]

    def total(name: str, root: str = "synth") -> float:
        return sum(spans[i].seconds for i in pick(name, root))

    def self_total(name: str, root: str = "synth") -> float:
        return sum(own[i] for i in pick(name, root))

    def count(name: str, key: str, root: str = "synth") -> int:
        return sum(spans[i].counts.get(key, 0) for i in pick(name, root))

    colours = {c for i in pick("product.build", "synth")
               for c in spans[i].counts.get("colours", ())}
    unrealizable = [i for i in pick("pipeline.synthesize", "synth")
                    if spans[i].counts.get("unrealizable")]
    product_seconds = total("product.build")
    figures = {
        "cli.load_s": (total("cli.load"), "s"),
        "pipeline.normalize_s": (total("pipeline.normalize"), "s"),
        "pipeline.conjuncts": (count("pipeline.normalize", "conjuncts"), "count"),
        "automata.validate_s": (total("automata.validate"), "s"),
        "automata.transition_table_s": (total("automata.transition_table"), "s"),
        "product.build_s": (self_total("product.build"), "s"),
        "product.states": (count("product.build", "states"), "count"),
        "product.transitions": (count("product.build", "transitions"), "count"),
        "game.build_s": (total("game.build"), "s"),
        "game.vertices": (count("game.build", "vertices"), "count"),
        "game.edges": (count("game.build", "edges"), "count"),
        "solvers.solve_s": (total("solvers.solve"), "s"),
        "solvers.system_region": (count("solvers.solve", "system_region"), "count"),
        "solvers.env_region": (count("solvers.solve", "env_region"), "count"),
        "pipeline.extract_s": (total("pipeline.extract"), "s"),
        "pipeline.verify_s": (total("pipeline.verify"), "s"),
        "pipeline.counterstrategy_s": (sum(own[i] for i in unrealizable), "s"),
        "mealy.serialise_s": (total("mealy.serialise"), "s"),
        "mealy.machine_states": (count("mealy.serialise", "machine_states"), "count"),
        "pipeline.oracle_s": (self_total("pipeline.oracle", "oracle-test"), "s"),
        "pipeline.oracle_lassos": (count("pipeline.oracle", "lassos", "oracle-test"), "count"),
    }
    # every traced round runs the same specs, so counts divide exactly
    figures = {k: (v // rounds if unit == "count" else v / rounds, unit)
               for k, (v, unit) in figures.items()}
    figures["product.colours"] = (len(colours), "count")
    figures["product.states_per_s"] = (
        count("product.build", "states") / product_seconds if product_seconds else 0.0,
        "1/s")
    return figures
