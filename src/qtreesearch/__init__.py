"""Quantum tree search simulator for constant and non-constant branching factors."""

from .problem_model import (
    BranchingStats,
    MissingHeuristicError,
    ProblemFormatError,
    ProblemSpec,
    SearchLimits,
    UndefinedStatsError,
    ValidationError,
    branching_stats,
    classical_search,
    enumerate_paths,
    load_problem,
    parse_problem,
    path_amplitude,
    write_problem,
)
from .statevector import (
    Entry,
    LayoutMismatchError,
    RegisterLayout,
    TreeState,
    ZeroNormError,
    derive_seed,
    init_ground,
    inner_product,
    measure_paths,
)
from .tree_prep import (
    CorruptedStateError,
    OperatorMisuseError,
    PreparationPlan,
    apply_action_superposition,
    apply_transition,
    prepare_tree_state,
)
from .amplitude_engine import (
    AmplificationSchedule,
    MarkPredicate,
    RunReport,
    StageRecord,
    amplify,
    apply_oracle,
    optimal_iterations,
    predicted_mass,
    reflect_about,
)
from .search_drivers import (
    ComparisonTable,
    PipelinePlan,
    PruningStage,
    StrategyRow,
    compare_strategies,
    greedy_quantum_loop,
    iterative_deepening_search,
    pruned_pipeline,
    pruned_search,
    uninformed_search,
)
from .generators import grid_problem, needle_problem

__version__ = "0.1.0"


def __getattr__(name: str):
    # imported on first use, so `python -m qtreesearch.cli_reporting` does not
    # find its own module already loaded by the package
    if name == "state_dump_lines":
        from .cli_reporting import state_dump_lines

        return state_dump_lines
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
