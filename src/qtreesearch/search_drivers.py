"""End-to-end strategies composing preparation and amplification.

Every returned solution is re-validated classically (transition composition
from the root plus the goal test) before it is reported, whatever the policy
that produced it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .amplitude_engine import (
    POLICY_EXPONENTIAL,
    AmplificationSchedule,
    MarkPredicate,
    RunReport,
    StageRecord,
    amplify,
)
from .problem_model import (
    BranchingStats,
    MissingHeuristicError,
    ProblemSpec,
    SearchLimits,
    branching_stats,
    classical_search,
)
from .statevector import _measure_with_rng, derive_seed
from .tree_prep import (  # benchmark/tracing.py binds the two operators here
    PreparationPlan,
    apply_action_superposition,
    apply_transition,
    prepare_tree_state,
)

_VALIDATION_ATTEMPTS = 3  # measurement retries before a run is declared failed
_MAX_EXPANSIONS = 100_000  # classical expansion cap in compare_strategies


@dataclass(frozen=True)
class PruningStage:
    """One intermediate threshold amplification at a partial depth."""

    level: int
    threshold: float
    iterations: int

    def __post_init__(self) -> None:
        if self.level < 0 or self.iterations < 0:
            raise ValueError("stage level and iteration count must be >= 0")


@dataclass(frozen=True)
class PipelinePlan:
    problem: ProblemSpec
    depth: int
    stages: tuple[PruningStage, ...]
    terminal_schedule: AmplificationSchedule
    terminal_predicate: MarkPredicate | None = None

    def __post_init__(self) -> None:
        levels = [s.level for s in self.stages]
        if levels != sorted(set(levels)):
            raise ValueError("stage levels must be strictly increasing")
        if levels and levels[-1] >= self.depth:
            raise ValueError("stage levels must lie below the final depth")

    def goal_predicate(self) -> MarkPredicate:
        return self.terminal_predicate or MarkPredicate.goal_at(self.depth)


def _finalize(
    problem: ProblemSpec,
    predicate: MarkPredicate,
    state,
    report: RunReport,
    sched: AmplificationSchedule,
) -> tuple[tuple[int, ...] | None, RunReport]:
    """Draw validation samples from the final state and return the first good one."""
    if sched.policy == POLICY_EXPONENTIAL:
        # amplify validated each round and stopped at the first sample that held
        if report.samples and predicate.holds_classically(problem, report.samples[-1][0]):
            return report.samples[-1][0], report
        return None, report
    if report.initial_probability == 0.0:
        return None, report
    rng = np.random.default_rng(derive_seed(sched.seed, 0xFEED))
    samples = list(report.samples)
    for _ in range(_VALIDATION_ATTEMPTS):
        (path, node), = _measure_with_rng(state, 1, rng, problem)
        samples.append((path, node))
        if predicate.holds_classically(problem, path):
            return path, replace(
                report, samples=tuple(samples), samples_drawn=len(samples)
            )
    return None, replace(
        report,
        samples=tuple(samples),
        samples_drawn=len(samples),
        warnings=report.warnings + ("sampling_failed",),
    )


def uninformed_search(
    problem: ProblemSpec,
    depth: int,
    sched: AmplificationSchedule,
    predicate: MarkPredicate | None = None,
) -> tuple[tuple[int, ...] | None, RunReport]:
    """Prepare the depth-``depth`` tree, amplify the predicate (goals by default),
    measure, and classically validate the sample."""
    plan = PreparationPlan.for_problem(problem, depth)
    predicate = predicate or MarkPredicate.goal_at(depth)
    x0 = prepare_tree_state(plan)
    final, report = amplify(x0, plan, predicate, sched)
    return _finalize(problem, predicate, final, report, sched)


def iterative_deepening_search(
    problem: ProblemSpec, d_max: int, sched: AmplificationSchedule
) -> tuple[tuple[int, ...] | None, list[RunReport]]:
    """Run the uninformed search at depths 0..d_max, stopping at the first solution.

    Depth zero runs no iterate on the one-prefix tree: it tests the root and
    costs no oracle queries.
    """
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    plan0 = PreparationPlan.for_problem(problem, 0)
    _, report0 = amplify(
        prepare_tree_state(plan0),
        plan0,
        MarkPredicate.goal_at(0),
        AmplificationSchedule(policy="explicit", seed=sched.seed),
    )
    reports = [report0]
    if report0.m_marked:
        return (), reports
    for depth in range(1, d_max + 1):
        depth_sched = replace(sched, seed=derive_seed(sched.seed, depth))
        path, report = uninformed_search(problem, depth, depth_sched)
        reports.append(report)
        if path is not None:
            return path, reports
    return None, reports


def pruned_pipeline(plan: PipelinePlan, seed: int):
    """Run the staged pipeline and return (final state, report) before sampling.

    Each stage reflects about the state the pipeline has prepared at that
    point, the tree of its level weighted by the earlier stages, so the stage
    dynamics follow the closed form with a equal to the current
    below-threshold mass. Stages whose threshold marks nothing are skipped
    with a warning. The terminal search amplifies the full tree under every
    stage's weights. No row is built.
    """
    problem = plan.problem
    if plan.stages and problem.heuristic is None:
        raise MissingHeuristicError("pruning stages need heuristic values")
    full_plan = PreparationPlan.for_problem(problem, plan.depth)
    tree = prepare_tree_state(full_plan).deferred
    weights: tuple = ()  # (level, marks, c_g, c_b) of each stage that marked something
    stage_records: list[StageRecord] = []
    for stage in plan.stages:
        x0 = tree.staged(stage.level, weights)
        predicate = MarkPredicate.threshold_at(stage.level, stage.threshold)
        sub_sched = AmplificationSchedule(
            policy="explicit", iterations=stage.iterations, seed=seed
        )
        amplified, sub = amplify(x0, x0.deferred.plan, predicate, sub_sched)
        if sub.initial_probability == 0.0:  # marks nothing: keep the state, charge nothing
            sub = replace(sub, iterations=0, oracle_queries=0, measured_probability=0.0)
        else:
            rows = amplified.deferred
            weights += ((stage.level, rows.marks, rows.c_g, rows.c_b),)
        stage_records.append(
            StageRecord(
                level=stage.level,
                threshold=stage.threshold,
                iterations=sub.iterations,
                oracle_queries=sub.oracle_queries,
                mass_before=sub.initial_probability,
                mass_after=sub.measured_probability,
                skipped=sub.initial_probability == 0.0,
            )
        )
    terminal_sched = replace(plan.terminal_schedule, seed=seed)
    x0 = tree.staged(plan.depth, weights)
    final, report = amplify(x0, full_plan, plan.goal_predicate(), terminal_sched)
    skip_warnings = tuple("stage_skipped_zero_mass" for r in stage_records if r.skipped)
    report = replace(
        report,
        oracle_queries=report.oracle_queries + sum(r.oracle_queries for r in stage_records),
        stages=tuple(stage_records),
        warnings=report.warnings + skip_warnings,
    )
    return final, report


def pruned_search(
    plan: PipelinePlan, seed: int
) -> tuple[tuple[int, ...] | None, RunReport]:
    """Staged threshold pruning followed by terminal goal amplification and sampling."""
    final, report = pruned_pipeline(plan, seed)
    terminal_sched = replace(plan.terminal_schedule, seed=seed)
    return _finalize(plan.problem, plan.goal_predicate(), final, report, terminal_sched)


def greedy_quantum_loop(
    problem: ProblemSpec,
    d_max: int,
    seed: int,
    step_budget: int = 256,
) -> tuple[tuple[int, ...] | None, list[RunReport]]:
    """Hybrid greedy descent: amplify the minimum-heuristic child, measure, commit.

    Each step runs an unknown-count search over the one-level superposition of
    admissible actions at the current node, marking children whose heuristic
    value attains the minimum among siblings (the threshold is computed
    classically). The measured action is committed classically; coherence is
    not maintained across steps.
    """
    if problem.heuristic is None:
        raise MissingHeuristicError("greedy loop requires heuristic values")
    if step_budget < 0:
        raise ValueError("query budget must be >= 0")
    committed: list[int] = []
    reports: list[RunReport] = []
    current = problem.root
    for step in range(d_max + 1):
        if current in problem.goals:
            return tuple(committed), reports
        if step == d_max:
            break
        children = problem.successors(current)
        if not children:
            if reports:
                reports[-1] = replace(
                    reports[-1], warnings=reports[-1].warnings + ("dead_end_reached",)
                )
            return None, reports
        tau = min(problem.h(child) for _, child in children)
        sub_problem = problem.with_root(current)
        sub_plan = PreparationPlan.for_problem(sub_problem, 1)
        sched = AmplificationSchedule(
            policy=POLICY_EXPONENTIAL,
            seed=derive_seed(seed, step),
            max_oracle_queries=step_budget,
        )
        predicate = MarkPredicate.threshold_at(1, tau)
        _, report = amplify(prepare_tree_state(sub_plan), sub_plan, predicate, sched)
        reports.append(report)
        path, current = report.samples[-1]  # amplify stops at the first sample that holds
        if not predicate.holds_classically(sub_problem, path):
            return None, reports
        committed.append(path[0])
    if reports:
        reports[-1] = replace(
            reports[-1], warnings=reports[-1].warnings + ("depth_limit_reached",)
        )
    return None, reports


@dataclass(frozen=True)
class StrategyRow:
    name: str
    metric: str  # "expansions" or "oracle_queries"
    cost: float
    success_rate: float


@dataclass(frozen=True)
class ComparisonTable:
    problem: str
    depth: int
    stats: BranchingStats
    rows: tuple[StrategyRow, ...]
    seeds: tuple[int, ...]


def compare_strategies(
    problem: ProblemSpec,
    depth: int,
    seeds: tuple[int, ...],
    query_budget: int = 10_000,
) -> ComparisonTable:
    """Classical expansions versus quantum oracle queries on one instance."""
    if not seeds:
        raise ValueError("need at least one seed")
    stats = branching_stats(problem, depth)
    limits = SearchLimits(max_depth=depth, max_expansions=_MAX_EXPANSIONS)
    rows: list[StrategyRow] = []
    classical = ["bfs", "dfs_depth_limited", "iddfs"]
    if problem.heuristic is not None:
        classical.append("greedy_best_first")
    for strategy in classical:
        path, expanded = classical_search(problem, strategy, limits)
        rows.append(StrategyRow(strategy, "expansions", float(expanded), float(path is not None)))
    for policy in ("fixed_optimal", "exponential_search"):
        total_queries = 0
        successes = 0
        for seed in seeds:
            sched = AmplificationSchedule(
                policy=policy, seed=seed, max_oracle_queries=query_budget
            )
            path, report = uninformed_search(problem, depth, sched)
            total_queries += report.oracle_queries
            successes += path is not None
        rows.append(
            StrategyRow(
                name=f"quantum_{policy}",
                metric="oracle_queries",
                cost=total_queries / len(seeds),
                success_rate=successes / len(seeds),
            )
        )
    return ComparisonTable(
        problem=problem.name,
        depth=depth,
        stats=stats,
        rows=tuple(rows),
        seeds=tuple(seeds),
    )
