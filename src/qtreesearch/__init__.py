"""Quantum tree search simulator for constant and non-constant branching factors."""

from .problem_model import (
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
    LayoutMismatchError,
    RegisterLayout,
    ZeroNormError,
    init_ground,
)
from .tree_prep import (
    CorruptedStateError,
    OperatorMisuseError,
    PreparationPlan,
    apply_action_superposition,
    apply_transition,
    measure_paths,
    prepare_tree_state,
)
from .amplitude_engine import (
    AmplificationSchedule,
    MarkPredicate,
    amplify,
    optimal_iterations,
    predicted_mass,
)
from .search_drivers import (
    PipelinePlan,
    PruningStage,
    compare_strategies,
    greedy_quantum_loop,
    iterative_deepening_search,
    pruned_pipeline,
    pruned_search,
    uninformed_search,
)

__version__ = "0.1.0"
