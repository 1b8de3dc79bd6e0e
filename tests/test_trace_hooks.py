"""The benchmark times each layer by swapping the module attributes its
callers look up (``perfbench/tracing.py``).  Renaming or inlining one of them
would silently zero a per-layer metric, so these tests pin every hook."""

import importlib.util
import sys
from pathlib import Path

from rabinsynth import pipeline, product
from rabinsynth.rand import arbiter_problem

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

SYNTH_SPANS = {"pipeline.normalize", "product.build", "automata.transition_table",
               "game.build", "solvers.solve"}


def load_tracing():
    name = "perfbench_tracing"
    if name not in sys.modules:  # its dataclasses look their module up there
        spec = importlib.util.spec_from_file_location(name, TRACING)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def traced_span_names(call) -> set[str]:
    tracer = load_tracing().Tracer()
    with tracer.inner_calls():
        call()
    return {span.name for span in tracer.spans}


def test_synthesize_records_every_layer():
    realizable = traced_span_names(lambda: pipeline.synthesize(arbiter_problem(2)))
    assert realizable >= SYNTH_SPANS | {"pipeline.extract", "pipeline.verify"}
    unrealizable = traced_span_names(
        lambda: pipeline.synthesize(arbiter_problem(2, unrealizable=True)))
    assert unrealizable >= SYNTH_SPANS


def test_differential_test_records_the_product_build():
    spec = pipeline.normalize_problem(arbiter_problem(2))
    names = traced_span_names(
        lambda: pipeline.differential_test(spec, 1, 1, max_aps=4))
    assert names >= {"product.build", "automata.transition_table"}


def test_validate_hook_still_exists():
    # never called inside the product build; the benchmark still wraps it
    assert callable(product.validate)
