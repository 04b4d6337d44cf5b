import math

import pytest

from qtreesearch import (
    AmplificationSchedule,
    MarkPredicate,
    MissingHeuristicError,
    PipelinePlan,
    PreparationPlan,
    PruningStage,
    SearchLimits,
    amplify,
    classical_search,
    compare_strategies,
    greedy_quantum_loop,
    iterative_deepening_search,
    prepare_tree_state,
    pruned_pipeline,
    pruned_search,
    uninformed_search,
)
from qtreesearch.generators import needle_problem
from conftest import cli_invoke, fixture_path, load_fixture


def fixed(seed=0, **kw):
    return AmplificationSchedule(policy="fixed_optimal", seed=seed, **kw)


# -- uninformed_search --------------------------------------------------------

def test_uninformed_finds_unique_goal_path(binary7):
    path, report = uninformed_search(binary7, 2, fixed(seed=1))
    assert path == (0, 1)
    assert report.oracle_queries == 1
    assert report.measured_probability == pytest.approx(1.0, abs=1e-12)


def test_mislead_threshold_misses_are_the_three_draws_of_a_three_quarter_mass():
    # a = 0.75 gives k = 0, so all three validation draws miss with probability
    # (1/4)**3 = 1/64: 64 expected misses in 4,096 seeds, sd 7.9; seeds fixed
    problem = load_fixture("mislead")
    predicate = MarkPredicate.threshold_at(2, 2.5)
    misses = []
    for seed in range(4096):
        path, report = uninformed_search(problem, 2, fixed(seed=seed), predicate)
        if path is None:
            misses.append(report)
    assert 33 <= len(misses) <= 96
    for report in misses:
        assert report.initial_probability == pytest.approx(0.75)
        assert report.oracle_queries == 0
        assert "sampling_failed" in report.warnings
        assert report.samples_drawn == len(report.samples) == 3


def test_uninformed_goalless_returns_none():
    p = load_fixture("goalless")
    path, report = uninformed_search(p, 2, fixed(seed=1))
    assert path is None
    assert report.initial_probability == 0.0
    assert report.oracle_queries == 0


def test_uninformed_solution_revalidates_across_seeds(nonconst5):
    for seed in range(30):
        path, _ = uninformed_search(nonconst5, 2, fixed(seed=seed))
        assert path is not None
        assert nonconst5.follow(path) in nonconst5.goals


def test_uninformed_exponential_success_rate(nonconst5):
    hits = 0
    for seed in range(200):
        sched = AmplificationSchedule(
            policy="exponential_search", seed=seed, max_oracle_queries=500
        )
        path, report = uninformed_search(nonconst5, 2, sched)
        if path is not None:
            assert nonconst5.follow(path) in nonconst5.goals
            hits += 1
    assert hits >= 190  # >= 95% of 200 seeds


def test_uninformed_depth_zero_root_goal():
    p = load_fixture("tiny")
    path, report = uninformed_search(p, 0, fixed())
    assert path == ()
    assert report.oracle_queries == 0


# -- iterative deepening --------------------------------------------------------

def test_iddfs_root_goal_costs_nothing():
    p = load_fixture("tiny")
    path, reports = iterative_deepening_search(p, 3, fixed())
    assert path == ()
    assert len(reports) == 1
    assert reports[0].oracle_queries == 0


def test_iddfs_stops_at_shallowest_goal():
    p = load_fixture("deadend")  # goals at depth 1 (frozen later) and depth 2
    path, reports = iterative_deepening_search(p, 4, fixed(seed=3))
    assert path == (1,)
    assert len(reports) == 2  # depth 0 and depth 1 only; depths 2+ never run
    bfs_path, _ = classical_search(p, "bfs", SearchLimits(max_depth=4))
    assert len(path) == len(bfs_path)


def test_iddfs_goal_at_depth_two():
    p = load_fixture("mislead")
    path, reports = iterative_deepening_search(p, 4, fixed(seed=5))
    assert path == (1, 0)
    assert len(reports) == 3
    assert sum(r.oracle_queries for r in reports) == sum(
        r.oracle_queries for r in reports
    )


def test_iddfs_exhausts_without_goal():
    p = load_fixture("goalless")
    path, reports = iterative_deepening_search(p, 3, fixed())
    assert path is None
    assert len(reports) == 4


# -- pruned search ---------------------------------------------------------------

def test_pruning_stage_reaches_certainty():
    # four equal subtrees, one below threshold: a single iterate moves all mass
    p = load_fixture("prune2")
    plan = PipelinePlan(
        problem=p,
        depth=2,
        stages=(PruningStage(level=1, threshold=2.0, iterations=1),),
        terminal_schedule=fixed(),
    )
    path, report = pruned_search(plan, seed=7)
    stage = report.stages[0]
    assert stage.mass_before == pytest.approx(0.25, abs=1e-12)
    assert stage.mass_after == pytest.approx(1.0, abs=1e-12)
    # pruning made the terminal search deterministic
    assert report.initial_probability == pytest.approx(1.0, abs=1e-12)
    assert report.iterations == 0
    assert path == (0, 0)


def test_two_subtree_stage_mass_is_invariant():
    # with two equal subtrees and one marked, the iterate cannot help:
    # a = 1/2 stays 1/2 for every iteration count
    p = load_fixture("deadend")
    import dataclasses

    p = dataclasses.replace(p, heuristic={0: 5.0, 1: 1.0, 2: 9.0, 3: 0.0, 4: 0.0})
    for k in (0, 1, 2, 3):
        plan = PipelinePlan(
            problem=p,
            depth=2,
            stages=(PruningStage(level=1, threshold=2.0, iterations=k),),
            terminal_schedule=fixed(),
        )
        _, report = pruned_search(plan, seed=1)
        assert report.stages[0].mass_after == pytest.approx(0.5, abs=1e-12), k


def test_all_zero_stages_equal_uninformed():
    p = load_fixture("grid4")
    terminal = AmplificationSchedule(policy="explicit", iterations=2, seed=11)
    plan = PipelinePlan(
        problem=p,
        depth=4,
        stages=(
            PruningStage(level=1, threshold=9.0, iterations=0),
            PruningStage(level=2, threshold=9.0, iterations=0),
        ),
        terminal_schedule=terminal,
    )
    pruned_state, pruned_report = pruned_pipeline(plan, seed=11)
    prep_plan = PreparationPlan.for_problem(p, 4)
    plain_state, plain_report = amplify(
        prepare_tree_state(prep_plan), prep_plan, MarkPredicate.goal_at(4), terminal
    )
    assert pruned_state.entries.keys() == plain_state.entries.keys()
    for key, entry in plain_state.entries.items():
        assert pruned_state.entries[key].amp == pytest.approx(entry.amp, abs=1e-12)
    assert pruned_report.measured_probability == pytest.approx(
        plain_report.measured_probability, abs=1e-12
    )


def test_stage_with_zero_mass_is_skipped():
    p = load_fixture("prune2")
    plan = PipelinePlan(
        problem=p,
        depth=2,
        stages=(PruningStage(level=1, threshold=0.5, iterations=1),),  # nothing below 0.5
        terminal_schedule=fixed(),
    )
    path, report = pruned_search(plan, seed=2)
    assert report.stages[0].skipped
    assert "stage_skipped_zero_mass" in report.warnings
    assert path is not None  # terminal search still runs on the unpruned tree


def test_pruning_raises_terminal_probability_on_grid():
    p = load_fixture("grid4")
    depth = 6
    unpruned_path, unpruned = uninformed_search(p, depth, fixed(seed=4))
    plan = PipelinePlan(
        problem=p,
        depth=depth,
        stages=(PruningStage(level=3, threshold=3.5, iterations=1),),
        terminal_schedule=fixed(),
    )
    pruned_path, pruned = pruned_search(plan, seed=4)
    assert pruned.stages[0].mass_after > pruned.stages[0].mass_before
    assert pruned.initial_probability > unpruned.initial_probability
    assert pruned.iterations <= unpruned.iterations
    assert pruned_path is not None and p.follow(pruned_path) in p.goals


def test_stage_levels_must_increase():
    p = load_fixture("prune2")
    with pytest.raises(ValueError):
        PipelinePlan(
            problem=p,
            depth=2,
            stages=(
                PruningStage(level=1, threshold=1.0, iterations=1),
                PruningStage(level=1, threshold=1.0, iterations=1),
            ),
            terminal_schedule=fixed(),
        )
    with pytest.raises(ValueError):
        PipelinePlan(
            problem=p,
            depth=2,
            stages=(PruningStage(level=2, threshold=1.0, iterations=1),),
            terminal_schedule=fixed(),
        )


def test_pruning_requires_heuristic(binary7):
    plan = PipelinePlan(
        problem=binary7,
        depth=2,
        stages=(PruningStage(level=1, threshold=1.0, iterations=1),),
        terminal_schedule=fixed(),
    )
    with pytest.raises(MissingHeuristicError):
        pruned_search(plan, seed=0)


# -- greedy loop -------------------------------------------------------------------

def test_greedy_commits_forced_chain():
    import dataclasses

    p = dataclasses.replace(
        load_fixture("chain4"), heuristic={0: 4.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 0.0}
    )
    path, reports = greedy_quantum_loop(p, 4, seed=0)
    assert path == (0, 0, 0, 0)
    assert len(reports) == 4


def test_greedy_matches_classical_on_strict_grid(grid4):
    path, reports = greedy_quantum_loop(grid4, 8, seed=123)
    classical_path, _ = classical_search(grid4, "greedy_best_first", SearchLimits(max_depth=8))
    assert path == classical_path
    assert len(path) == 6  # shallowest possible on the 4x4 grid
    # committed sequence is seed-independent on a tie-free heuristic
    for seed in range(10):
        other, _ = greedy_quantum_loop(grid4, 8, seed=seed)
        assert other == path


def test_greedy_trapped_by_misleading_heuristic():
    p = load_fixture("mislead")
    path, reports = greedy_quantum_loop(p, 6, seed=5)
    assert path is None
    assert reports[-1].warnings[-1] == "depth_limit_reached"
    classical, _ = classical_search(
        p, "greedy_best_first", SearchLimits(max_depth=8, max_expansions=100)
    )
    assert classical is None


def test_greedy_requires_heuristic(binary7):
    with pytest.raises(MissingHeuristicError):
        greedy_quantum_loop(binary7, 2, seed=0)


def test_greedy_dead_end_returns_partial():
    import dataclasses

    p = dataclasses.replace(
        load_fixture("deadend"),
        heuristic={0: 3.0, 1: 2.0, 2: 1.0, 3: 5.0, 4: 5.0},
        goals=frozenset({4}),  # goal unreachable via the greedy trap
    )
    path, reports = greedy_quantum_loop(p, 4, seed=1)
    assert path is None
    assert reports[-1].warnings[-1] == "dead_end_reached"
    assert len(reports) == 1  # committed straight into the dead end


def test_greedy_root_goal():
    p = load_fixture("tiny")
    import dataclasses

    p = dataclasses.replace(p, heuristic={0: 0.0})
    path, reports = greedy_quantum_loop(p, 3, seed=0)
    assert path == ()
    assert reports == []


# -- strategy comparison -------------------------------------------------------------

def test_compare_quantum_beats_classical_on_needle():
    p = load_fixture("comb10")  # N = 1024, M = 1
    table = compare_strategies(p, 10, seeds=(0, 1, 2))
    by_name = {row.name: row for row in table.rows}
    bfs = by_name["bfs"]
    quantum = by_name["quantum_fixed_optimal"]
    assert quantum.success_rate == 1.0
    assert bfs.success_rate == 1.0
    # ~ (pi/4) sqrt(N) queries versus ~ N expansions
    assert quantum.cost == 25.0
    assert bfs.cost > 1024
    assert quantum.cost < math.sqrt(bfs.cost) * 2
    assert table.stats.b_max == 2


def test_compare_reports_branching_skew():
    p = load_fixture("nonconst5")
    table = compare_strategies(p, 2, seeds=(0,))
    assert table.stats.b_max == 3
    assert table.stats.b_avg < table.stats.b_max
    assert table.stats.b_eff == pytest.approx(table.stats.b_avg, abs=0.2)
    status, text = cli_invoke(
        ["compare", str(fixture_path("nonconst5")), "--depth", "2", "--seeds", "1"]
    )
    assert status == 0
    lines = text.splitlines()
    assert "b_eff" in lines[0]
    assert len(lines) == 2 + len(table.rows)


def test_compare_informed_classical_beats_uninformed_quantum():
    # a sharp heuristic walks straight to the goal in d+1 expansions while the
    # uninformed quantum search still pays ~ (pi/4) sqrt(N) oracle queries
    p = load_fixture("comb10")
    table = compare_strategies(p, 10, seeds=(0, 1))
    by_name = {row.name: row for row in table.rows}
    greedy = by_name["greedy_best_first"]
    quantum = by_name["quantum_fixed_optimal"]
    assert greedy.success_rate == 1.0
    assert greedy.cost == 11.0
    assert greedy.cost < quantum.cost == 25.0


def test_compare_records_are_flat():
    status, text = cli_invoke(
        ["compare", str(fixture_path("nonconst5")), "--depth", "2", "--seeds", "1", "--format", "records"]
    )
    assert status == 0
    lines = text.splitlines()
    assert lines
    for line in lines:
        assert all("=" in part for part in line.split())
