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
    state ``s`` owns ``counts[s]`` entries of ``child_action`` from
    ``start[s]`` on. A state with no admissible action owns one entry, the
    prefix kept as it is (action -1). Row ``n_states`` stands for a prefix
    that is already dead and is kept too.
    """

    # (n_states, n_actions + 1) successor of each pair, -1 where not admissible;
    # the extra column is for the action -1 that pads short paths
    table: np.ndarray
    # (n_states + 1,) children of a prefix at each state
    counts: np.ndarray
    # (n_states + 1,) offset of each state's children in the list below
    start: np.ndarray
    # the action of each child, in action order within a state; -1 when kept
    child_action: np.ndarray
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
        return tuple([tuple(acts) for acts in per_state])

    @cached_property
    def arrays(self) -> ProblemArrays:
        """``transition`` and ``admissible`` as arrays, built once per problem."""
        n, m = self.n_states, self.n_actions
        table = [[-1] * (m + 1) for _ in range(n)]
        for (s, a), t in self.transition.items():
            table[s][a] = t
        # the action of each child; a prefix with nowhere to go is kept, and so is a dead one
        children = [list(acts) or [-1] for acts in self.admissible] + [[-1]]
        counts = np.array([len(kids) for kids in children])
        return ProblemArrays(
            table=np.array(table, dtype=np.int32),
            counts=counts,
            start=np.cumsum(counts) - counts,
            child_action=np.array([a for kids in children for a in kids], dtype=np.int32),
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
        # from a list: tuple(generator) resizes, and resized tuples pile up in the tuple free lists
        return tuple([(a, self.transition[(state, a)]) for a in self.admissible[state]])

    def walk(self, path: tuple[int, ...]) -> tuple[int, int]:
        """(state reached, actions taken) walking ``path`` from the root; the
        walk stops before the first action that is not admissible."""
        s, get = self.root, self.transition.get
        for n, a in enumerate(path):
            nxt = get((s, a))
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
    paths: int  # live paths of exact length ``depth``


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
    stack = [((), problem.root)]  # popped last in, so children are pushed in reverse
    while stack:
        path, state = stack.pop()
        if len(path) == depth:
            out.append((path, state, state in problem.goals))
            continue
        for a in reversed(problem.admissible[state]):
            stack.append((path + (a,), problem.transition[(state, a)]))
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
    test happens at that moment, so a root goal costs one expansion, and a
    search stops at its first goal or after ``max_expansions`` pops (but pops
    the root). Greedy pops node by node; the others read per-state tables.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if strategy == "greedy_best_first":
        return _greedy(problem, limits)
    below, within, hit, near = _subtree_tables(problem, max(limits.max_depth, 0))
    root, cap = problem.root, limits.max_expansions
    if strategy == "bfs":  # every level above the first goal's, then that level in path order
        g = next((r for r, found in enumerate(hit) if root in found), None)
        if g is None:
            return _capped(None, sum(level[root] for level in below), cap)
        path, passed = _walk_to_goal(problem, hit, below, g)
        return _capped(path, sum(level[root] for level in below[:g]) + passed + 1, cap)
    if strategy == "dfs_depth_limited":
        return _capped(*_dls(problem, within, near, len(below) - 1), cap)
    path, total = None, 0  # the depth-limited searches, end to end
    for limit in range(limits.max_depth + 1):
        path, expanded = _dls(problem, within, near, limit)
        total += expanded
        if path is not None:
            break
    return (None, 0) if cap is not None and cap <= 0 else _capped(path, total, cap)


def _subtree_tables(problem: ProblemSpec, depth: int):
    """For r = 0..depth and each state s: ``below[r][s]`` nodes exactly r levels under
    s, ``within[r][s]`` nodes within r levels of s (s included), and the sets ``hit[r]``
    of states with a goal exactly r levels under them and ``near[r]`` within r levels."""
    kids = [[problem.transition[(s, a)] for a in acts] for s, acts in enumerate(problem.admissible)]
    below, within, hit, near = [[1] * len(kids)], [[1] * len(kids)], [problem.goals], [problem.goals]
    for _ in range(depth):
        b, h, n = below[-1], hit[-1], near[-1]
        below.append([sum(b[t] for t in ts) for ts in kids])
        within.append([w + x for w, x in zip(within[-1], below[-1])])
        hit.append({s for s, ts in enumerate(kids) if any(t in h for t in ts)})
        near.append(n | {s for s, ts in enumerate(kids) if any(t in n for t in ts)})
    return below, within, hit, near


def _walk_to_goal(problem: ProblemSpec, found, size, r: int) -> tuple[tuple[int, ...], int]:
    """The path down the first child in ``found`` from the root, r levels above
    a goal, to that goal, and ``size`` summed over the siblings it passes."""
    path, s, passed = [], problem.root, 0
    while s not in problem.goals:
        for a in problem.admissible[s]:
            t = problem.transition[(s, a)]
            if t in found[r - 1]:
                break
            passed += size[r - 1][t]
        path.append(a)
        s, r = t, r - 1
    return tuple(path), passed


def _dls(problem: ProblemSpec, within, near, limit: int):
    """The nodes within ``limit`` levels in preorder, up to the first goal."""
    if problem.root not in near[limit]:
        return None, within[limit][problem.root]
    path, passed = _walk_to_goal(problem, near, within, limit)
    return path, passed + len(path) + 1


def _capped(path, expanded: int, cap: int | None):
    """The result of a search that also stops after ``cap`` pops, the root's always."""
    cap = expanded if cap is None else max(cap, 1)
    return (path, expanded) if expanded <= cap else (None, cap)


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


def count_levels(
    problem: ProblemSpec, depth: int, cap: int | None = None
) -> tuple[list[dict[int, int]], int]:
    """The forward pass: ``levels[l]`` maps each state that live length-``l``
    prefixes end at to their exact number, and the int counts the prefixes
    frozen at a dead end on the way. Stops after the first empty level, so that
    ``levels[-1]`` still reads no live paths, or once the rows pass ``cap``."""
    admissible, transition = problem.admissible, problem.transition
    levels, dead = [{problem.root: 1}], 0
    for _ in range(depth):
        nxt: dict[int, int] = {}
        for s, n in levels[-1].items():
            if not admissible[s]:
                dead += n
            for a in admissible[s]:
                t = transition[(s, a)]
                nxt[t] = nxt.get(t, 0) + n
        levels.append(nxt)
        if not nxt or cap is not None and dead + sum(nxt.values()) > cap:
            break
    return levels, dead


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
    levels, _ = count_levels(problem, depth)
    width = [len(acts) for acts in problem.admissible]
    internal = sum(n for level in levels[:depth] for n in level.values())
    generated = sum(n * width[s] for level in levels[:depth] for s, n in level.items())
    if generated == 0:
        raise UndefinedStatsError("expansion generated no nodes; branching statistics undefined")
    b_max = max(width[s] for level in levels for s in level)  # depth-d states count too
    return BranchingStats(
        b_max=b_max, b_avg=generated / internal, b_eff=_effective_branching(generated, depth, b_max),
        depth=depth, nodes_generated=generated, internal_nodes=internal, paths=sum(levels[-1].values()),
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
