"""Explicit classical searches, node by node: the reference that the
per-state tables of ``problem_model`` are held to.

A node counts as expanded when it is popped from the frontier, and the goal
test happens at that moment. Each search stops at its first goal or once it
has popped ``max_expansions`` nodes.
"""
from __future__ import annotations

from collections import deque

from qtreesearch.problem_model import (
    BranchingStats,
    ProblemSpec,
    SearchLimits,
    UndefinedStatsError,
    _effective_branching,
)


def bfs(problem: ProblemSpec, limits: SearchLimits):
    frontier: deque[tuple[int, tuple[int, ...]]] = deque([(problem.root, ())])
    expanded = 0
    while frontier:
        state, path = frontier.popleft()
        expanded += 1
        if state in problem.goals:
            return path, expanded
        if limits.max_expansions is not None and expanded >= limits.max_expansions:
            return None, expanded
        if len(path) < limits.max_depth:
            for a, nxt in problem.successors(state):
                frontier.append((nxt, path + (a,)))
    return None, expanded


def dls(problem: ProblemSpec, limit: int, max_expansions: int | None):
    stack: list[tuple[int, tuple[int, ...]]] = [(problem.root, ())]
    expanded = 0
    while stack:
        state, path = stack.pop()
        expanded += 1
        if state in problem.goals:
            return path, expanded
        if max_expansions is not None and expanded >= max_expansions:
            return None, expanded
        if len(path) < limit:
            for a, nxt in reversed(problem.successors(state)):
                stack.append((nxt, path + (a,)))
    return None, expanded


def iddfs(problem: ProblemSpec, limits: SearchLimits):
    total = 0
    for limit in range(limits.max_depth + 1):
        remaining = None if limits.max_expansions is None else limits.max_expansions - total
        if remaining is not None and remaining <= 0:
            break
        path, expanded = dls(problem, limit, remaining)
        total += expanded
        if path is not None:
            return path, total
    return None, total


def classical_search(problem: ProblemSpec, strategy: str, limits: SearchLimits):
    """``problem_model.classical_search`` for the three uninformed strategies."""
    if strategy == "bfs":
        return bfs(problem, limits)
    if strategy == "dfs_depth_limited":
        return dls(problem, limits.max_depth, limits.max_expansions)
    return iddfs(problem, limits)


def branching_stats(problem: ProblemSpec, depth: int) -> BranchingStats:
    """The level loop over every node of the depth-``depth`` expansion."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    level = [problem.root]
    b_max = 0
    generated = 0
    internal = 0
    for _ in range(depth):
        nxt: list[int] = []
        for s in level:
            width = len(problem.admissible[s])
            b_max = max(b_max, width)
            internal += 1
            generated += width
            nxt.extend(problem.transition[(s, a)] for a in problem.admissible[s])
        level = nxt
    for s in level:  # depth-d frontier states still count toward b_max
        b_max = max(b_max, len(problem.admissible[s]))
    if generated == 0:
        raise UndefinedStatsError("expansion generated no nodes; branching statistics undefined")
    return BranchingStats(
        b_max=b_max,
        b_avg=generated / internal,
        b_eff=_effective_branching(generated, depth, b_max),
        depth=depth,
        nodes_generated=generated,
        internal_nodes=internal,
        paths=len(level),
    )
