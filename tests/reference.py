"""The references that production code is held to.

* Explicit classical searches, node by node, for the per-state tables of
  ``problem_model``. A node counts as expanded when it is popped from the
  frontier, and the goal test happens at that moment. Each search stops at
  its first goal or once it has popped ``max_expansions`` nodes.
* The weighted rows of a prepared tree, built by the operator loop, for the
  walk of ``tree_prep.PreparedTree``.
* The dense joint-register vector, with its operators, oracle, reflection,
  inner product and ``rng.choice`` draw, for the structured state.

Register convention for dense indices: the node register occupies the most
significant bits, followed by the level-0 action register down to the
level-(d-1) register.
"""
from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from qtreesearch.amplitude_engine import MarkPredicate
from qtreesearch.problem_model import (
    BranchingStats,
    ProblemSpec,
    SearchLimits,
    UndefinedStatsError,
    _effective_branching,
    enumerate_paths,
)
from qtreesearch.statevector import Entry, LayoutMismatchError, RegisterLayout, TreeState, ZeroNormError
from qtreesearch.tree_prep import (
    CorruptedStateError,
    OperatorMisuseError,
    PreparationPlan,
    PreparedTree,
    _extend,
    _move,
)

_DENSE_WIDTH_CAP = 24  # 2**24 complex amplitudes; beyond that dense mode is a mistake


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


# -- the weighted rows of a prepared tree ---------------------------------------

def scale_classes(amp: np.ndarray, marked, c_g: float, c_b: float) -> np.ndarray:
    """``amp`` with the ``marked`` rows times ``c_g`` and the rest times ``c_b``;
    ``amp`` itself when both are 1, since states never write their arrays."""
    if c_g == c_b == 1.0:
        return amp
    out = amp * c_b
    out[marked] = amp[marked] * c_g
    return out


def build(rows: PreparedTree) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows (actions, node, amp, dead), by the level loop of the operators
    with each stage's weights applied at its level. The loop stops after the
    forward pass's last level, since every row is frozen from there on, and
    ``actions`` is only as wide as the levels it ran."""
    problem, stages = rows.plan.problem, {level: rest for level, *rest in rows.stages}
    layout, width = rows.plan.layout, len(rows.levels) - 1  # no row holds more actions
    state = TreeState(
        RegisterLayout(layout.node_width, layout.action_width, width),
        entries={(): Entry(1.0 + 0j, problem.root, False)},
    )
    for level in range(width):
        if level in stages:
            marks, c_g, c_b = stages[level]
            marked = ~state.dead & np.isin(state.node, rows._marked_at(level, marks))
            state.amp = scale_classes(state.amp, marked, c_g, c_b)
        state = _move(_extend(state, problem, level), problem, level)
    marked = ~state.dead & np.isin(state.node, rows.marked_states())
    amp = scale_classes(state.amp, marked, rows.c_g, rows.c_b)
    return state.actions, state.node, amp, state.dead


def rows_of(state: TreeState | PreparedTree) -> TreeState:
    """A prepared tree's rows as a row state (its own layout, ``actions`` only as
    wide as the levels reached); a row state as it is."""
    if isinstance(state, TreeState):
        return state
    return TreeState.from_arrays(state.layout, *build(state))


def measure(state, samples: int, rng: np.random.Generator, problem: ProblemSpec | None = None):
    """``rng.choice`` over the rows of a row state, a prepared tree or a dense
    state, by |amplitude|^2; a dense state needs ``problem`` to decode paths."""
    if isinstance(state, Dense):
        state = TreeState(state.layout, entries=dict(dense_entries(state, problem)))
    state = rows_of(state)
    probs = np.abs(state.amp) ** 2
    total = probs.sum()
    if not total > 0.0:  # zero or NaN, which rng.choice would reject as a ValueError
        raise ZeroNormError("cannot sample from a zero-norm state")
    probs /= total
    picks = rng.choice(len(probs), size=samples, p=probs)
    return [(state.path(i), int(state.node[i])) for i in picks]


# -- the dense joint-register reference -----------------------------------------

@dataclass(frozen=True)
class Dense:
    """The full 2**total_width complex vector over the joint register."""

    layout: RegisterLayout
    vector: np.ndarray

    def norm_sq(self) -> float:
        return float(np.vdot(self.vector, self.vector).real)


def index_of(layout: RegisterLayout, node: int, actions: Iterable[int]) -> int:
    """Dense index of a configuration; short prefixes are padded with zeros."""
    idx = node
    padded = list(actions)
    padded += [0] * (layout.depth - len(padded))
    for a in padded:
        idx = (idx << layout.action_width) | a
    return idx


def decode(layout: RegisterLayout, index: int) -> tuple[int, tuple[int, ...]]:
    mask = (1 << layout.action_width) - 1
    actions = tuple(
        (index >> ((layout.depth - 1 - level) * layout.action_width)) & mask
        for level in range(layout.depth)
    )
    node = index >> (layout.depth * layout.action_width)
    return node, actions


def to_dense(state) -> Dense:
    """Materialize the full joint-register vector of a row state or a prepared tree."""
    if isinstance(state, Dense):
        return state
    layout = state.layout
    if layout.total_width > _DENSE_WIDTH_CAP:
        raise ValueError(f"refusing dense vector of 2**{layout.total_width} amplitudes")
    state = rows_of(state)
    index = state.node.astype(np.int64)
    for column in state.actions.T:  # a short prefix keeps the ground value 0
        index = (index << layout.action_width) | np.maximum(column, 0)
    index <<= (layout.depth - state.actions.shape[1]) * layout.action_width
    vec = np.zeros(1 << layout.total_width, dtype=np.complex128)
    vec[index] = state.amp
    return Dense(layout, vec)


def init_ground(layout: RegisterLayout, root: int) -> Dense:
    """Amplitude 1 on the root with every action register in the ground value."""
    if not 0 <= root < (1 << layout.node_width):
        raise ValueError(f"root index {root} does not fit the node register")
    vec = np.zeros(1 << layout.total_width, dtype=np.complex128)
    vec[index_of(layout, root, ())] = 1.0
    return Dense(layout, vec)


def inner_product(x, y) -> complex:
    """<x|y> over the joint register, computed on the dense vectors."""
    if x.layout != y.layout:
        raise LayoutMismatchError("states have different register layouts")
    return complex(np.vdot(to_dense(x).vector, to_dense(y).vector))


def dense_entries(state: Dense, problem: ProblemSpec | None) -> list[tuple[tuple[int, ...], Entry]]:
    """The nonzero amplitudes of a dense state as (path prefix, entry) pairs,
    sorted by path. Each path is recovered by walking the transition function
    of ``problem`` from the root, and the walk stops where the recorded action
    is no longer admissible (a frozen dead-end configuration keeps its later
    registers in the ground value)."""
    if problem is None:
        raise ValueError("dense mode needs the problem to decode paths")
    out = []
    for idx in np.nonzero(state.vector)[0]:
        node, actions = decode(state.layout, int(idx))
        _, n = problem.walk(actions)
        out.append((actions[:n], Entry(complex(state.vector[idx]), node, n < len(actions))))
    out.sort()
    return out


def action_images(
    problem: ProblemSpec, layout: RegisterLayout, level: int, index: int
) -> list[tuple[int, float]]:
    """Images of one basis configuration under the level-``level`` action step.

    Defined on configurations whose level register is in the ground value.
    A node without admissible actions maps to itself (frozen); otherwise the
    level register receives the uniform superposition over admissible actions.
    """
    node, actions = decode(layout, index)
    if actions[level] != 0:
        raise OperatorMisuseError(f"level-{level} action register not in the ground state")
    acts = problem.admissible[node] if node < problem.n_states else ()
    if not acts:
        return [(index, 1.0)]
    shift = (layout.depth - 1 - level) * layout.action_width
    coef = 1.0 / math.sqrt(len(acts))
    return [(index | (a << shift), coef) for a in acts]


def transition_images(problem: ProblemSpec, layout: RegisterLayout, level: int, index: int) -> int:
    """Image of one basis configuration under the level-``level`` transition step.

    Frozen dead-end configurations (no admissible actions, ground action
    value) are fixed points; a populated action with no defined transition
    signals a corrupted state.
    """
    node, actions = decode(layout, index)
    a = actions[level]
    target = problem.transition.get((node, a))
    if target is None:
        if a == 0 and (node >= problem.n_states or not problem.admissible[node]):
            return index
        raise CorruptedStateError(f"no transition for (state {node}, action {a}) at level {level}")
    return index + ((target - node) << (layout.depth * layout.action_width))


def apply_action_superposition(state: Dense, problem: ProblemSpec, level: int) -> Dense:
    """The action step on a dense state, one basis configuration at a time."""
    new = np.zeros_like(state.vector)
    for idx in np.nonzero(state.vector)[0]:
        for target, coef in action_images(problem, state.layout, level, int(idx)):
            new[target] += coef * state.vector[idx]
    return Dense(state.layout, new)


def apply_transition(state: Dense, problem: ProblemSpec, level: int) -> Dense:
    """The transition step on a dense state, one basis configuration at a time."""
    new = np.zeros_like(state.vector)
    for idx in np.nonzero(state.vector)[0]:
        new[transition_images(problem, state.layout, level, int(idx))] += state.vector[idx]
    return Dense(state.layout, new)


def prepare(plan: PreparationPlan) -> Dense:
    """The ground state followed by d rounds of (action superposition; transition)."""
    state = init_ground(plan.layout, plan.problem.root)
    for level in range(plan.depth):
        state = apply_action_superposition(state, plan.problem, level)
        state = apply_transition(state, plan.problem, level)
    return state


def apply_oracle(state, problem: ProblemSpec, predicate: MarkPredicate) -> Dense:
    """Flip the sign of every marked configuration."""
    vec = to_dense(state).vector.copy()
    for path, terminal, _ in enumerate_paths(problem, predicate.depth_context):
        if predicate.marks(problem, path, terminal, False):
            idx = index_of(state.layout, terminal, path)
            vec[idx] = -vec[idx]
    return Dense(state.layout, vec)


def reflect_about(state, axis) -> Dense:
    """(2|axis><axis| - I) |state>; the layouts must match."""
    if state.layout != axis.layout:
        raise LayoutMismatchError("reflection axis has a different register layout")
    sv, av = to_dense(state).vector, to_dense(axis).vector
    return Dense(state.layout, 2 * np.vdot(av, sv) * av - sv)
