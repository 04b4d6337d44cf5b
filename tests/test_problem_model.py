import gc
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtreesearch import (
    MissingHeuristicError,
    ProblemFormatError,
    ProblemSpec,
    SearchLimits,
    UndefinedStatsError,
    ValidationError,
    branching_stats,
    classical_search,
    enumerate_paths,
    parse_problem,
    path_amplitude,
    write_problem,
)
from conftest import load_fixture


# -- parsing ---------------------------------------------------------------

def test_degenerate_problem_parses():
    p = load_fixture("tiny")
    assert p.n_states == 1
    assert p.n_actions == 0
    assert p.root in p.goals


def test_binary_tree_document(binary7):
    assert binary7.n_states == 7
    assert binary7.actions == ("L", "R")
    assert all(len(binary7.admissible[s]) == 2 for s in (0, 1, 2))
    assert [t[0] for t in enumerate_paths(binary7, 2)] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_duplicate_edge_rejected():
    text = """
problem dup
actions a
state x
state y
root x
edge x a y
edge x a y
"""
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(text)
    assert exc.value.line == 8


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem("problem p\nactions a\nstate x\nroot x\nedge x b x\n")
    assert "unknown action" in str(exc.value)
    assert exc.value.line == 5
    with pytest.raises(ProblemFormatError):
        parse_problem("actions a\nstate x\nroot x\n")  # missing header


def test_negative_heuristic_rejected():
    with pytest.raises(ProblemFormatError):
        parse_problem("problem p\nactions a\nstate x\nroot x\nh x -1\n")


def test_transition_on_inadmissible_pair_rejected():
    # constructed directly: action index 1 lies outside the one-action alphabet
    # and state index 2 outside the two states, so neither pair is admissible
    for pair, message in (((0, 1), "outside alphabet"), ((2, 0), "outside state range")):
        spec = ProblemSpec(
            name="bad",
            states=("x", "y"),
            actions=("a",),
            transition={pair: 1},
            root=0,
            goals=frozenset(),
        )
        with pytest.raises(ValidationError) as exc:
            spec.validate()
        assert message in str(exc.value)


def test_write_problem_round_trip(tmp_path):
    for stem in ("binary7", "nonconst5", "mislead", "tiny"):
        p = load_fixture(stem)
        out = tmp_path / f"{stem}.problem"
        write_problem(p, out)
        q = parse_problem(out.read_text())
        assert q == p


# -- enumerate_paths -------------------------------------------------------

def test_enumerate_depth_zero(binary7):
    assert enumerate_paths(binary7, 0) == [((), 0, False)]


def test_enumerate_uniform_binary(binary7):
    paths = enumerate_paths(binary7, 2)
    assert len(paths) == 4
    assert [g for _, _, g in paths] == [False, True, False, False]


def test_enumerate_nonconstant(nonconst5):
    # root has 2 actions, left child 3, right child 2: 5 depth-2 paths
    paths = enumerate_paths(nonconst5, 2)
    assert len(paths) == 5
    assert sum(len(nonconst5.admissible[c]) for _, c in nonconst5.successors(nonconst5.root)) == 5


def test_enumerate_excludes_dead_prefixes():
    p = load_fixture("deadend")
    paths = enumerate_paths(p, 2)
    assert [t[0] for t in paths] == [(0, 0), (0, 1)]
    # the dead branch is a valid depth-1 path, though
    assert ((1,), 2, True) in enumerate_paths(p, 1)
    # walking past the dead end stops at it, so the path does not follow
    assert p.walk((1, 0)) == (2, 1)
    assert p.follow((1, 0)) is None


def test_enumerate_leaves_no_reference_cycle():
    # with the cyclic collector off, only reference counting can free the problem
    enabled = gc.isenabled()
    gc.disable()
    try:
        p = load_fixture("nonconst5")
        problem = weakref.ref(p)
        enumerate_paths(p, 2)
        del p
        assert problem() is None
    finally:
        if enabled:
            gc.enable()


def test_paths_revalidate(binary7):
    for path, terminal, is_goal in enumerate_paths(binary7, 2):
        assert binary7.follow(path) == terminal
        assert is_goal == (terminal in binary7.goals)


# -- classical search ------------------------------------------------------

def test_root_goal_costs_one_expansion():
    p = load_fixture("tiny")
    path, expanded = classical_search(p, "bfs", SearchLimits(max_depth=0))
    assert path == ()
    assert expanded == 1


def test_bfs_binary_tree(binary7):
    path, expanded = classical_search(binary7, "bfs", SearchLimits(max_depth=2))
    assert path == (0, 1)
    assert expanded <= 7


def test_bfs_returns_shallowest_goal():
    p = load_fixture("deadend")  # goal at depth 1 and at depth 2
    path, _ = classical_search(p, "bfs", SearchLimits(max_depth=2))
    assert path == (1,)


def test_dfs_and_iddfs(binary7):
    path, _ = classical_search(binary7, "dfs_depth_limited", SearchLimits(max_depth=2))
    assert binary7.follow(path) in binary7.goals
    path, _ = classical_search(binary7, "iddfs", SearchLimits(max_depth=4))
    assert len(path) == 2  # shallowest


def test_greedy_requires_heuristic(binary7):
    with pytest.raises(MissingHeuristicError):
        classical_search(binary7, "greedy_best_first", SearchLimits(max_depth=2))


def test_greedy_beats_bfs_on_grid(grid4):
    limits = SearchLimits(max_depth=6)
    greedy_path, greedy_n = classical_search(grid4, "greedy_best_first", limits)
    bfs_path, bfs_n = classical_search(grid4, "bfs", limits)
    assert grid4.follow(greedy_path) in grid4.goals
    assert grid4.follow(bfs_path) in grid4.goals
    assert greedy_n <= bfs_n


def test_greedy_trapped_by_misleading_heuristic():
    p = load_fixture("mislead")
    path, expanded = classical_search(
        p, "greedy_best_first", SearchLimits(max_depth=8, max_expansions=100)
    )
    assert path is None
    assert expanded == 100
    # the uninformed baseline still finds the depth-2 goal
    bfs_path, _ = classical_search(p, "bfs", SearchLimits(max_depth=2))
    assert bfs_path == (1, 0)


def test_unknown_strategy_rejected(binary7):
    with pytest.raises(ValueError):
        classical_search(binary7, "ucs", SearchLimits(max_depth=1))


# -- branching statistics --------------------------------------------------

def test_constant_branching_fixed_point(binary7):
    stats = branching_stats(binary7, 2)
    assert stats.b_max == 2
    assert stats.b_avg == 2.0
    assert abs(stats.b_eff - 2.0) <= 1e-6


def test_star_tree_stats(quad=None):
    p = load_fixture("quad21")
    stats = branching_stats(p, 1)
    assert stats.b_max == stats.b_avg == 4
    assert abs(stats.b_eff - 4.0) <= 1e-6


def test_mixed_tree_effective_factor():
    # root b=2, one child b=3, the other b=1: 6 generated nodes over 3 internal
    text = """
problem mixed
actions a b c
state r
state u
state v
state u0
state u1
state u2
state v0
root r
edge r a u
edge r b v
edge u a u0
edge u b u1
edge u c u2
edge v a v0
"""
    p = parse_problem(text)
    stats = branching_stats(p, 2)
    assert stats.nodes_generated == 6
    assert stats.internal_nodes == 3
    assert stats.b_avg == pytest.approx(2.0)
    # independent oracle: bisection on 1 + x + x^2 = N + 1 done by hand
    # with N=6 the unique positive root of x^2 + x - 6 is exactly 2
    assert abs(stats.b_eff - 2.0) <= 1e-6


def test_chain_effective_factor_is_one():
    p = load_fixture("chain4")
    stats = branching_stats(p, 4)
    assert stats.b_eff == 1.0
    assert stats.b_max == 1


def test_with_root_shares_the_root_independent_arrays():
    p = load_fixture("grid4")
    moved = p.with_root(3)
    assert moved.root == 3 and p.root != 3
    assert moved.arrays is p.arrays and moved.admissible is p.admissible
    assert moved.successors(3) == p.successors(3)


def test_dead_ends_above_depth_count_as_internal_nodes():
    # deadend at d=3: r, live, trap, leafA, leafB are all internal (the last
    # three are dead ends above depth 3) and generate 2 + 2 + 0 + 0 + 0 nodes
    stats = branching_stats(load_fixture("deadend"), 3)
    assert (stats.internal_nodes, stats.nodes_generated) == (5, 4)
    assert stats.b_avg == 0.8
    assert stats.b_max == 2


def test_stats_undefined_when_nothing_generated():
    p = load_fixture("tiny")
    with pytest.raises(UndefinedStatsError):
        branching_stats(p, 1)


def test_stats_requires_positive_depth(binary7):
    with pytest.raises(ValueError):
        branching_stats(binary7, 0)


# -- property tests --------------------------------------------------------

@st.composite
def random_problems(draw):
    """Small random explicit problems (no heuristic)."""
    n_states = draw(st.integers(2, 6))
    n_actions = draw(st.integers(1, 3))
    transition = {}
    for s in range(n_states):
        for a in range(n_actions):
            if draw(st.booleans()):
                transition[(s, a)] = draw(st.integers(0, n_states - 1))
    goals = draw(st.sets(st.integers(0, n_states - 1), max_size=n_states))
    return ProblemSpec(
        name="random",
        states=tuple(f"s{i}" for i in range(n_states)),
        actions=tuple(f"a{j}" for j in range(n_actions)),
        transition=transition,
        root=draw(st.integers(0, n_states - 1)),
        goals=frozenset(goals),
    ).validate()


@settings(max_examples=60, deadline=None)
@given(problem=random_problems(), depth=st.integers(0, 4))
def test_paths_distinct_and_admissible(problem, depth):
    paths = enumerate_paths(problem, depth)
    seen = [t[0] for t in paths]
    assert len(set(seen)) == len(seen)
    assert seen == sorted(seen)  # lexicographic
    for path, terminal, _ in paths:
        assert problem.follow(path) == terminal
        assert path_amplitude(problem, path) > 0


@settings(max_examples=30, deadline=None)
@given(branching=st.integers(1, 3), depth=st.integers(1, 5))
def test_constant_branching_path_count(branching, depth):
    # complete b-ary behavior via a needle instance (every state offers b actions)
    from qtreesearch.generators import needle_problem

    p = needle_problem(max(depth, 1), branching)
    assert len(enumerate_paths(p, depth)) == branching**depth
    stats = branching_stats(p, depth)
    assert abs(stats.b_eff - branching) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(problem=random_problems())
def test_bfs_finds_shallowest(problem):
    limit = 5
    path, _ = classical_search(problem, "bfs", SearchLimits(max_depth=limit))
    depths_with_goal = [
        d
        for d in range(limit + 1)
        for (_, _, is_goal) in enumerate_paths(problem, d)
        if is_goal
    ]
    if path is None:
        assert not depths_with_goal
    else:
        assert problem.follow(path) in problem.goals
        assert len(path) == min(depths_with_goal)
