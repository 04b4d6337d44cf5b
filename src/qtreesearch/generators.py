"""Builders for standard benchmark instances.

These are explicit state graphs whose depth-d expansions have known shapes,
so path counts and marked masses are available in closed form for tests and
scaling sweeps.
"""
from __future__ import annotations

from .problem_model import ProblemSpec

TIE_BREAK = 1e-6  # heuristic weight of the state index in grid_problem


def needle_problem(depth: int, branching: int = 2) -> ProblemSpec:
    """Constant-branching instance with exactly one goal path of length ``depth``.

    A progress automaton: at progress i the single correct action (i mod
    branching, so the goal path is not all-zeros) advances, every other action
    falls into an absorbing sink. The depth-d expansion has branching**depth
    leaves and exactly one marked one. The heuristic is the exact remaining
    distance (with the sink worst), so informed classical search walks
    straight to the goal.
    """
    if depth < 1 or branching < 1:
        raise ValueError("need depth >= 1 and branching >= 1")
    states = [f"p{i}" for i in range(depth + 1)] + ["sink"]
    actions = [f"a{j}" for j in range(branching)]
    sink = depth + 1
    transition: dict[tuple[int, int], int] = {}
    for i in range(depth):
        correct = i % branching
        for j in range(branching):
            transition[(i, j)] = i + 1 if j == correct else sink
    for j in range(branching):
        transition[(sink, j)] = sink
        transition[(depth, j)] = sink  # goal state keeps branching so deeper trees stay uniform
    heuristic = {i: float(depth - i) for i in range(depth + 1)}
    heuristic[sink] = float(depth + 1)
    spec = ProblemSpec(
        name=f"needle_b{branching}_d{depth}",
        states=tuple(states),
        actions=tuple(actions),
        transition=transition,
        root=0,
        goals=frozenset({depth}),
        heuristic=heuristic,
    )
    return spec.validate()


def grid_problem(width: int, height: int) -> ProblemSpec:
    """Four-connected grid route finding with an exact-distance heuristic.

    The root is the corner (0, 0) and the goal the opposite corner. Branching
    is non-constant (2 at corners, 3 on edges, 4 inside). The heuristic is the
    Manhattan distance to the goal plus ``TIE_BREAK`` times the state index,
    which makes greedy descent tie-free while preserving the distance ordering.
    """
    if width < 1 or height < 1:
        raise ValueError("grid must be at least 1x1")
    gx, gy = width - 1, height - 1

    def idx(x: int, y: int) -> int:
        return x * height + y

    states = [f"c{x}{y}" for x in range(width) for y in range(height)]
    moves = [("n", 0, 1), ("s", 0, -1), ("e", 1, 0), ("w", -1, 0)]
    actions = [m[0] for m in moves]
    transition: dict[tuple[int, int], int] = {}
    for x in range(width):
        for y in range(height):
            for a, (name, dx, dy) in enumerate(moves):
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny < height:
                    transition[(idx(x, y), a)] = idx(nx, ny)
    heuristic = {
        idx(x, y): abs(gx - x) + abs(gy - y) + TIE_BREAK * idx(x, y)
        for x in range(width)
        for y in range(height)
    }
    spec = ProblemSpec(
        name=f"grid{width}x{height}",
        states=tuple(states),
        actions=tuple(actions),
        transition=transition,
        root=idx(0, 0),
        goals=frozenset({idx(gx, gy)}),
        heuristic=heuristic,
    )
    return spec.validate()
