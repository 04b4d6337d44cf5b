"""Explicit search problems with arbitrary branching factors.

A problem is a finite, explicitly-listed state space with a global action
alphabet, a per-state admissible subset, and a partial transition function
defined exactly on the admissible pairs. Everything downstream (the quantum
construction and its verification) is checked against the brute-force path
enumeration defined here.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np


class ProblemFormatError(ValueError):
    """A problem file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class ValidationError(ValueError):
    """A structural invariant of the problem definition is violated."""


class MissingHeuristicError(ValueError):
    """An informed operation was requested on a problem without heuristic values."""


class UndefinedStatsError(ValueError):
    """Branching statistics are undefined (the expansion generated no nodes)."""


class ProblemArrays(NamedTuple):
    """Array form of the admissible actions and transitions, for the vectorised tree.

    The children of a prefix are listed state by state (compressed rows):
    state ``s`` owns ``counts[s]`` entries of ``child_action`` and
    ``child_node`` from ``start[s]`` on. A state with no admissible action owns
    one entry, the prefix kept as it is (action -1, node ``n_states``). Row
    ``n_states`` stands for a prefix that is already dead and is kept too.
    """

    # (n_states, n_actions + 1) successor of each pair, -1 where not admissible;
    # the extra column is for the action -1 that pads short paths
    table: np.ndarray
    # (n_states + 1,) children of a prefix at each state
    counts: np.ndarray
    # (n_states + 1,) offset of each state's children in the two lists below
    start: np.ndarray
    # the action of each child, in action order within a state; -1 when kept
    child_action: np.ndarray
    # the node each child moves to; n_states when kept
    child_node: np.ndarray
    # (n_states + 1,) amplitude factor of each child, 1/sqrt(#admissible); 1 when kept
    scale: np.ndarray


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable search problem over dense state/action indices.

    ``states`` and ``actions`` hold the external identifiers; indices into
    those tuples are used everywhere else. ``transition`` is defined exactly
    on the admissible (state, action) pairs.
    """

    name: str
    states: tuple[str, ...]
    actions: tuple[str, ...]
    transition: dict[tuple[int, int], int]
    root: int
    goals: frozenset[int]
    heuristic: dict[int, float] | None = None

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @cached_property
    def admissible(self) -> tuple[tuple[int, ...], ...]:
        """Admissible actions of each state, sorted by action index, so path
        enumeration order is canonical whatever order edges were declared in."""
        per_state: list[list[int]] = [[] for _ in self.states]
        for s, a in sorted(self.transition):
            per_state[s].append(a)
        return tuple(tuple(acts) for acts in per_state)

    @cached_property
    def arrays(self) -> ProblemArrays:
        """``transition`` and ``admissible`` as arrays, built once per problem."""
        n, m = self.n_states, self.n_actions
        table = [[-1] * (m + 1) for _ in range(n)]
        for (s, a), t in self.transition.items():
            table[s][a] = t
        # (action, node) of each child; a prefix with nowhere to go is kept, and so is a dead one
        children = [
            [(a, row[a]) for a in acts] or [(-1, n)] for acts, row in zip(self.admissible, table)
        ]
        children.append([(-1, n)])
        counts = np.array([len(kids) for kids in children])
        action, node = zip(*(kid for kids in children for kid in kids))
        return ProblemArrays(
            table=np.array(table, dtype=np.int32),
            counts=counts,
            start=np.cumsum(counts) - counts,
            child_action=np.array(action, dtype=np.int32),
            child_node=np.array(node, dtype=np.int32),
            scale=np.array([1 / math.sqrt(len(a)) if a else 1.0 for a in self.admissible] + [1.0]),
        )

    def with_root(self, root: int) -> "ProblemSpec":
        """The same problem started at ``root``. It shares ``admissible`` and
        ``arrays``, which do not depend on the root, so they are built once."""
        spec = replace(self, root=root)
        spec.__dict__.update(admissible=self.admissible, arrays=self.arrays)
        return spec

    def successors(self, state: int) -> tuple[tuple[int, int], ...]:
        """(action, next state) pairs in action-index order."""
        return tuple((a, self.transition[(state, a)]) for a in self.admissible[state])

    def walk(self, path: tuple[int, ...]) -> tuple[int, int]:
        """(state reached, actions taken) walking ``path`` from the root; the
        walk stops before the first action that is not admissible."""
        s = self.root
        for n, a in enumerate(path):
            nxt = self.transition.get((s, a))
            if nxt is None:
                return s, n
            s = nxt
        return s, len(path)

    def follow(self, path: tuple[int, ...]) -> int | None:
        """Terminal state of ``path`` from the root, or None if inadmissible."""
        s, n = self.walk(path)
        return s if n == len(path) else None

    def h(self, state: int) -> float:
        if self.heuristic is None:
            raise MissingHeuristicError(f"problem {self.name!r} has no heuristic values")
        try:
            return self.heuristic[state]
        except KeyError:
            raise MissingHeuristicError(
                f"no heuristic value for state {self.states[state]!r}"
            ) from None

    def validate(self) -> "ProblemSpec":
        """Check structural invariants, raising ValidationError on the first failure."""
        n, m = self.n_states, self.n_actions
        if not 0 <= self.root < n:
            raise ValidationError(f"root index {self.root} outside state range")
        for (s, a), t in self.transition.items():
            if not 0 <= s < n:
                raise ValidationError(f"transition from state index {s} outside state range")
            if not 0 <= a < m:
                raise ValidationError(f"action index {a} at state {self.states[s]!r} outside alphabet")
            if not 0 <= t < n:
                raise ValidationError(f"transition target {t} outside state range")
        if not self.goals <= set(range(n)):
            raise ValidationError("goal set contains unknown state index")
        if self.heuristic is not None:
            for s, v in self.heuristic.items():
                if not 0 <= s < n:
                    raise ValidationError("heuristic value for unknown state index")
                if not v >= 0.0:
                    raise ValidationError(f"heuristic value for {self.states[s]!r} is negative")
        return self


@dataclass(frozen=True)
class BranchingStats:
    """Branching summary of a depth-``depth`` tree expansion."""

    b_max: int
    b_avg: float
    b_eff: float
    depth: int
    nodes_generated: int
    internal_nodes: int


@dataclass(frozen=True)
class SearchLimits:
    max_depth: int
    max_expansions: int | None = None


STRATEGIES = ("bfs", "dfs_depth_limited", "iddfs", "greedy_best_first")

_DIRECTIVES = ("problem", "actions", "state", "root", "goal", "edge", "h")


def parse_problem(text: str) -> ProblemSpec:
    """Parse a problem document (see the format notes in the README)."""
    lines: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        lines.append((lineno, stripped.split()))

    name: str | None = None
    actions: list[str] | None = None
    state_ids: list[str] = []
    state_index: dict[str, int] = {}

    # first pass: declarations
    for lineno, tokens in lines:
        key = tokens[0]
        if key not in _DIRECTIVES:
            raise ProblemFormatError(f"unknown directive {key!r}", lineno)
        if key == "problem":
            if name is not None:
                raise ProblemFormatError("duplicate 'problem' header", lineno)
            if len(tokens) != 2:
                raise ProblemFormatError("'problem' takes exactly one name", lineno)
            name = tokens[1]
        elif key == "actions":
            if actions is not None:
                raise ProblemFormatError("duplicate 'actions' line", lineno)
            actions = tokens[1:]
            if len(set(actions)) != len(actions):
                raise ProblemFormatError("duplicate action name", lineno)
        elif key == "state":
            if len(tokens) != 2:
                raise ProblemFormatError("'state' takes exactly one identifier", lineno)
            if tokens[1] in state_index:
                raise ProblemFormatError(f"duplicate state {tokens[1]!r}", lineno)
            state_index[tokens[1]] = len(state_ids)
            state_ids.append(tokens[1])
    if name is None:
        raise ProblemFormatError("missing 'problem' header")
    if actions is None:
        raise ProblemFormatError("missing 'actions' line")
    if not state_ids:
        raise ProblemFormatError("no 'state' declarations")
    action_index = {a: i for i, a in enumerate(actions)}

    def state_ref(token: str, lineno: int) -> int:
        try:
            return state_index[token]
        except KeyError:
            raise ProblemFormatError(f"unknown state {token!r}", lineno) from None

    root: int | None = None
    goals: set[int] = set()
    transition: dict[tuple[int, int], int] = {}
    heuristic: dict[int, float] = {}

    # second pass: references
    for lineno, tokens in lines:
        key = tokens[0]
        if key == "root":
            if root is not None:
                raise ProblemFormatError("duplicate 'root' line", lineno)
            if len(tokens) != 2:
                raise ProblemFormatError("'root' takes exactly one state", lineno)
            root = state_ref(tokens[1], lineno)
        elif key == "goal":
            if len(tokens) != 2:
                raise ProblemFormatError("'goal' takes exactly one state", lineno)
            goals.add(state_ref(tokens[1], lineno))
        elif key == "edge":
            if len(tokens) != 4:
                raise ProblemFormatError("'edge' takes <state> <action> <state>", lineno)
            s = state_ref(tokens[1], lineno)
            if tokens[2] not in action_index:
                raise ProblemFormatError(f"unknown action {tokens[2]!r}", lineno)
            a = action_index[tokens[2]]
            t = state_ref(tokens[3], lineno)
            if (s, a) in transition:
                raise ProblemFormatError(
                    f"duplicate edge ({tokens[1]}, {tokens[2]})", lineno
                )
            transition[(s, a)] = t
        elif key == "h":
            if len(tokens) != 3:
                raise ProblemFormatError("'h' takes <state> <value>", lineno)
            s = state_ref(tokens[1], lineno)
            if s in heuristic:
                raise ProblemFormatError(f"duplicate heuristic for {tokens[1]!r}", lineno)
            try:
                value = float(tokens[2])
            except ValueError:
                raise ProblemFormatError(f"bad heuristic value {tokens[2]!r}", lineno) from None
            if value < 0:
                raise ProblemFormatError("heuristic values must be non-negative", lineno)
            heuristic[s] = value
    if root is None:
        raise ProblemFormatError("missing 'root' line")

    spec = ProblemSpec(
        name=name,
        states=tuple(state_ids),
        actions=tuple(actions),
        transition=transition,
        root=root,
        goals=frozenset(goals),
        heuristic=dict(heuristic) if heuristic else None,
    )
    return spec.validate()


def load_problem(path) -> ProblemSpec:
    """Read and parse a problem file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_problem(text)


def write_problem(spec: ProblemSpec, path) -> None:
    """Serialize ``spec`` back to the line-oriented file format."""
    lines = [f"problem {spec.name}", ("actions " + " ".join(spec.actions)).rstrip()]
    lines += [f"state {s}" for s in spec.states]
    lines.append(f"root {spec.states[spec.root]}")
    lines += [f"goal {spec.states[g]}" for g in sorted(spec.goals)]
    for s in range(spec.n_states):
        for a in spec.admissible[s]:
            t = spec.transition[(s, a)]
            lines.append(f"edge {spec.states[s]} {spec.actions[a]} {spec.states[t]}")
    if spec.heuristic is not None:
        for s in sorted(spec.heuristic):
            lines.append(f"h {spec.states[s]} {format(spec.heuristic[s], '.12g')}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def enumerate_paths(
    problem: ProblemSpec, depth: int
) -> list[tuple[tuple[int, ...], int, bool]]:
    """All admissible action paths of exact length ``depth``, lexicographically.

    Paths that reach a state with no admissible actions before ``depth`` are
    excluded; they correspond to configurations frozen by the quantum
    construction rather than to leaves of the depth-``depth`` tree.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    out: list[tuple[tuple[int, ...], int, bool]] = []
    path: list[int] = []

    def rec(state: int) -> None:
        if len(path) == depth:
            out.append((tuple(path), state, state in problem.goals))
            return
        for a in problem.admissible[state]:
            path.append(a)
            rec(problem.transition[(state, a)])
            path.pop()

    rec(problem.root)
    return out


def path_amplitude(problem: ProblemSpec, path: tuple[int, ...]) -> float:
    """Product of per-level 1/sqrt(|A_s|) factors along ``path`` (0 if inadmissible)."""
    amp = 1.0
    s = problem.root
    for a in path:
        k = len(problem.admissible[s])
        if k == 0 or a not in problem.admissible[s]:
            return 0.0
        amp /= k**0.5
        s = problem.transition[(s, a)]
    return amp


def classical_search(
    problem: ProblemSpec, strategy: str, limits: SearchLimits
) -> tuple[tuple[int, ...] | None, int]:
    """Classical baseline search; returns (action path | None, nodes expanded).

    A node counts as expanded when it is popped from the frontier; the goal
    test happens at that moment, so a root goal costs one expansion.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if strategy == "bfs":
        return _bfs(problem, limits)
    if strategy == "dfs_depth_limited":
        return _dls(problem, limits.max_depth, limits.max_expansions)
    if strategy == "iddfs":
        total = 0
        for limit in range(limits.max_depth + 1):
            remaining = None if limits.max_expansions is None else limits.max_expansions - total
            if remaining is not None and remaining <= 0:
                break
            path, expanded = _dls(problem, limit, remaining)
            total += expanded
            if path is not None:
                return path, total
        return None, total
    return _greedy(problem, limits)


def _bfs(problem: ProblemSpec, limits: SearchLimits):
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


def _dls(problem: ProblemSpec, limit: int, max_expansions: int | None):
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


def _greedy(problem: ProblemSpec, limits: SearchLimits):
    if problem.heuristic is None:
        raise MissingHeuristicError("greedy_best_first requires heuristic values")
    # ties broken by lower state index, then insertion order
    counter = 0
    frontier = [(problem.h(problem.root), problem.root, counter, ())]
    expanded = 0
    while frontier:
        _, state, _, path = heapq.heappop(frontier)
        expanded += 1
        if state in problem.goals:
            return path, expanded
        if limits.max_expansions is not None and expanded >= limits.max_expansions:
            return None, expanded
        if len(path) < limits.max_depth:
            for a, nxt in problem.successors(state):
                counter += 1
                heapq.heappush(frontier, (problem.h(nxt), nxt, counter, path + (a,)))
    return None, expanded


def branching_stats(problem: ProblemSpec, depth: int) -> BranchingStats:
    """Maximum / average / effective branching factor of the depth-``depth`` expansion.

    Every node above depth ``depth`` counts as an internal node, dead ends
    included, and ``b_avg`` is the nodes generated per internal node.
    ``b_eff`` is the uniform branching factor whose tree generates the same
    number of nodes: sum_{i=0..depth} b_eff**i = N + 1 with N the nodes
    generated (root excluded), solved by bisection to 1e-9 residual.
    """
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
    b_avg = generated / internal
    return BranchingStats(
        b_max=b_max,
        b_avg=b_avg,
        b_eff=_effective_branching(generated, depth, b_max),
        depth=depth,
        nodes_generated=generated,
        internal_nodes=internal,
    )


def _effective_branching(generated: int, depth: int, b_max: int) -> float:
    if generated == depth:  # degenerate chain
        return 1.0
    target = generated + 1

    def residual(x: float) -> float:
        total, term = 0.0, 1.0
        for _ in range(depth + 1):
            total += term
            term *= x
        return total - target

    lo, hi = 0.0, float(max(b_max, 1))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = residual(mid)
        if abs(r) <= 1e-9:
            return mid
        if r < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
