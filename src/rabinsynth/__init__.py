"""Reactive synthesis from Rabin-index-1 assumption/guarantee specifications.

The toolkit compiles an implication-shaped specification whose conjuncts are
deterministic safety, Buchi, co-Buchi or one-pair Rabin automata into a
deterministic parity automaton with at most five colours, solves the induced
two-player game, and either extracts a minimal, verified Mealy machine or
reports unrealizability together with an environment counterstrategy.
"""

from .automata import (
    Buchi,
    CoBuchi,
    Lasso,
    OmegaAutomaton,
    OnePairRabin,
    Parity,
    Safety,
    ValidationError,
    decompose_rabin,
    eval_lasso,
    validate,
)
from .boolexpr import ApTable
from .game import SynthesisGame, build_game
from .hoa import HoaError, UnsupportedFeature, emit_hoa, parse_hoa
from .ltl import (
    UnsupportedAcceptance,
    UnsupportedFragment,
    compile_pattern,
    format_pattern,
    normalize,
    parse_ltl,
)
from .mealy import MealyMachine, machine_from_json, machine_to_json, minimise
from .pipeline import (
    ConjunctSource,
    DifferentialReport,
    Realizable,
    SpecProblem,
    SynthesisOutcome,
    Unrealizable,
    Violation,
    differential_test,
    extract_mealy,
    lasso_oracle,
    normalize_problem,
    sampled_differential,
    synthesize,
    verify_mealy,
)
from .product import (
    CapacityExceeded,
    NormalizedSpec,
    ParityAutomaton,
    ProductState,
    build_product,
    raw_product_bound,
)
from .solvers import (
    ShapeError,
    Solution,
    StrategyCounterexample,
    certify_strategy,
    solve_progress_measures,
    solve_zielonka,
)

__all__ = [
    "ApTable",
    "Buchi",
    "CapacityExceeded",
    "CoBuchi",
    "ConjunctSource",
    "DifferentialReport",
    "HoaError",
    "Lasso",
    "MealyMachine",
    "NormalizedSpec",
    "OmegaAutomaton",
    "OnePairRabin",
    "Parity",
    "ParityAutomaton",
    "ProductState",
    "Realizable",
    "Safety",
    "ShapeError",
    "Solution",
    "SpecProblem",
    "StrategyCounterexample",
    "SynthesisGame",
    "SynthesisOutcome",
    "Unrealizable",
    "UnsupportedAcceptance",
    "UnsupportedFeature",
    "UnsupportedFragment",
    "ValidationError",
    "Violation",
    "build_game",
    "build_product",
    "certify_strategy",
    "compile_pattern",
    "decompose_rabin",
    "differential_test",
    "emit_hoa",
    "eval_lasso",
    "extract_mealy",
    "format_pattern",
    "lasso_oracle",
    "machine_from_json",
    "machine_to_json",
    "minimise",
    "normalize",
    "normalize_problem",
    "parse_hoa",
    "parse_ltl",
    "raw_product_bound",
    "sampled_differential",
    "solve_progress_measures",
    "solve_zielonka",
    "synthesize",
    "validate",
    "verify_mealy",
]
