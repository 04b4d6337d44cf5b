"""The classical baselines and branching statistics, read off per-state
tables, against the explicit node-by-node searches of ``reference``."""
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from qtreesearch import SearchLimits, UndefinedStatsError, branching_stats, classical_search
from qtreesearch.generators import grid_problem, needle_problem
from qtreesearch.search_drivers import compare_strategies
from conftest import cli_invoke, connected_problems, fixture_path, load_fixture

UNINFORMED = ("bfs", "dfs_depth_limited", "iddfs")
CAPS = (None, 0, 1, 7, 50)


def _stats_or_undefined(stats, problem, depth):
    try:
        return stats(problem, depth)
    except UndefinedStatsError:
        return "undefined"


@settings(max_examples=80, deadline=None)
@given(problem=connected_problems(), depth=st.integers(0, 6))
def test_tables_match_the_explicit_searches(problem, depth):
    for strategy in UNINFORMED:
        for cap in CAPS:
            limits = SearchLimits(max_depth=depth, max_expansions=cap)
            expected = reference.classical_search(problem, strategy, limits)
            assert classical_search(problem, strategy, limits) == expected, (strategy, cap)
    if depth >= 1:
        assert _stats_or_undefined(branching_stats, problem, depth) == _stats_or_undefined(
            reference.branching_stats, problem, depth
        )


PROBLEMS = {
    **{stem: (lambda stem=stem: load_fixture(stem)) for stem in
       ("tiny", "deadend", "goalless", "chain4", "mislead", "nonconst5", "grid4")},
    "needle_b3_d5": lambda: needle_problem(5, 3),
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@pytest.mark.parametrize("cap", [None, 3, 50, 0, -2])
def test_fixed_problems_match_the_explicit_searches(name, cap):
    problem = PROBLEMS[name]()
    for depth in range(7):
        limits = SearchLimits(max_depth=depth, max_expansions=cap)
        for strategy in UNINFORMED:
            expected = reference.classical_search(problem, strategy, limits)
            assert classical_search(problem, strategy, limits) == expected, (strategy, depth)


def test_root_goal_is_one_pop_whatever_the_cap():
    p = load_fixture("tiny")  # the root is the goal
    for strategy in ("bfs", "dfs_depth_limited"):
        for cap in (None, 1, 0, -5):
            assert classical_search(p, strategy, SearchLimits(3, cap)) == ((), 1)
    # iddfs checks its budget before each limit, so a cap <= 0 pops nothing
    assert classical_search(p, "iddfs", SearchLimits(3, 0)) == (None, 0)
    assert classical_search(p, "iddfs", SearchLimits(3)) == ((), 1)


def test_cap_at_or_below_zero_still_pops_the_root():
    p = load_fixture("binary7")
    for strategy in ("bfs", "dfs_depth_limited"):
        assert classical_search(p, strategy, SearchLimits(2, 0)) == (None, 1)


def test_dead_ends_are_popped_but_not_expanded():
    # deadend: r -a-> live -> {leafA, leafB (goal)}, r -b-> trap (a goal, no actions)
    p = load_fixture("deadend")
    assert classical_search(p, "bfs", SearchLimits(3)) == ((1,), 3)
    assert classical_search(p, "dfs_depth_limited", SearchLimits(3)) == ((0, 1), 4)
    no_goal = replace(p, goals=frozenset())  # every node pops, and the three dead ends end it
    assert classical_search(no_goal, "bfs", SearchLimits(3)) == (None, 5)
    assert classical_search(no_goal, "iddfs", SearchLimits(3)) == (None, 1 + 3 + 5 + 5)


def test_grid_six_by_six_at_depth_twelve():
    # the explicit searches pop every node counted here: about 2 s on their own
    g = grid_problem(6, 6)
    start = time.perf_counter()
    table = compare_strategies(g, 12, (0, 1, 2))
    assert time.perf_counter() - start < 0.2
    costs = {row.name: row.cost for row in table.rows}
    assert (costs["bfs"], costs["dfs_depth_limited"], costs["iddfs"]) == (43_006, 249, 59_975)
    assert table.stats.nodes_generated == 1_971_554
    assert table.stats.internal_nodes == 548_639
    assert table.stats.paths == 1_422_916


def test_stats_counts_paths_without_listing_them():
    # listing the 7.2 M paths took about 2 minutes at a 1.6 GB peak
    start = time.perf_counter()
    status, out = cli_invoke(["stats", str(fixture_path("grid4")), "--depth", "14"])
    assert time.perf_counter() - start < 1.0
    assert status == 0
    assert out.split()[-2:] == ["nodes_generated=10466104", "paths=7231898"]


@pytest.mark.parametrize("stem,rows", [("deadend", 3), ("chain4", 1)])
def test_state_dump_of_a_deep_plan_holds_only_the_levels_it_reaches(stem, rows):
    # every path stops by depth 4, so the rows are those of a shallow plan
    _, shallow = cli_invoke(["prepare", str(fixture_path(stem)), "--depth", "5", "--state-dump"])
    tracemalloc.start()
    try:
        status, deep = cli_invoke(
            ["prepare", str(fixture_path(stem)), "--depth", "1000000", "--state-dump"]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert deep == shallow and deep.count("\n") == rows
    assert peak < 2 * 1024 * 1024
