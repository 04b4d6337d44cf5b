"""Superposition-tree preparation.

Two operators are interleaved once per level: a conditional action-register
preparation that puts a uniform superposition over the admissible actions of
the current node, and a transition step that rewrites the node register.
After d rounds every admissible depth-d path carries the amplitude
prod_i 1/sqrt(|A_{s_i}|); a prefix whose node has no admissible actions keeps
its amplitude frozen at the level where it died and is never extended.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem_model import ProblemSpec
from .statevector import RegisterLayout, TreeState, init_ground

PREFIX_CAP = 1 << 24  # rows of a structured state; beyond that preparation is refused


class OperatorMisuseError(RuntimeError):
    """An operator was applied to a state outside its declared domain."""


class CorruptedStateError(RuntimeError):
    """A live configuration holds an action with no defined transition."""


@dataclass(frozen=True)
class PreparationPlan:
    problem: ProblemSpec
    depth: int
    layout: RegisterLayout

    @classmethod
    def for_problem(cls, problem: ProblemSpec, depth: int) -> "PreparationPlan":
        """The plan of the depth-``depth`` tree; refused, before anything is
        allocated, when the tree has more than ``PREFIX_CAP`` prefixes."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if count_prefixes(problem, depth) > PREFIX_CAP:
            raise ValueError(
                f"the depth-{depth} tree of {problem.name!r} has more than 2**24 path prefixes"
            )
        layout = RegisterLayout.from_sizes(problem.n_states, problem.n_actions, depth)
        return cls(problem=problem, depth=depth, layout=layout)


def count_prefixes(problem: ProblemSpec, depth: int) -> int:
    """Rows of the prepared depth-``depth`` state (live paths plus frozen dead
    ends), from per-state prefix counts level by level in O(depth * |E|).

    Counting stops at the first level where the count passes ``PREFIX_CAP``,
    so a count above the cap is a lower bound.
    """
    arrays = problem.arrays
    parent = np.repeat(np.arange(problem.n_states + 1), arrays.counts)
    rows = np.zeros(problem.n_states + 1)  # prefixes per node; the last slot counts dead ones
    rows[problem.root] = 1.0
    for _ in range(depth):
        rows = np.bincount(arrays.child_node, weights=rows[parent], minlength=len(rows))
        if rows.sum() > PREFIX_CAP:
            break
    return int(rows.sum())


def action_images(
    problem: ProblemSpec, layout: RegisterLayout, level: int, index: int
) -> list[tuple[int, float]]:
    """Images of one basis configuration under the level-``level`` action step.

    Defined on configurations whose level register is in the ground value.
    A node without admissible actions maps to itself (frozen); otherwise the
    level register receives the uniform superposition over admissible actions.
    """
    node, actions = layout.decode(index)
    if actions[level] != 0:
        raise OperatorMisuseError(
            f"level-{level} action register not in the ground state"
        )
    acts = problem.admissible[node] if node < problem.n_states else ()
    if not acts:
        return [(index, 1.0)]
    shift = (layout.depth - 1 - level) * layout.action_width
    coef = 1.0 / math.sqrt(len(acts))
    return [(index | (a << shift), coef) for a in acts]


def transition_images(
    problem: ProblemSpec, layout: RegisterLayout, level: int, index: int
) -> int:
    """Image of one basis configuration under the level-``level`` transition step.

    Frozen dead-end configurations (no admissible actions, ground action
    value) are fixed points; a populated action with no defined transition
    signals a corrupted state.
    """
    node, actions = layout.decode(index)
    a = actions[level]
    target = problem.transition.get((node, a))
    if target is None:
        if a == 0 and (node >= problem.n_states or not problem.admissible[node]):
            return index
        raise CorruptedStateError(
            f"no transition for (state {node}, action {a}) at level {level}"
        )
    return index + ((target - node) << (layout.depth * layout.action_width))


def _check_rows(state: TreeState, problem: ProblemSpec, length: int, doing: str) -> None:
    """Every node must be a state of ``problem``, and every live row must hold
    exactly ``length`` actions."""
    off = (state.node < 0) | (state.node >= problem.n_states)
    if off.any():
        raise CorruptedStateError(
            f"node {state.node[np.argmax(off)]} outside the state range when {doing}"
        )
    acts = state.actions
    wrong = acts[:, length] >= 0 if length < acts.shape[1] else np.zeros(len(acts), bool)
    if length:
        wrong |= acts[:, length - 1] < 0
    bad = np.flatnonzero(wrong & ~state.dead)
    if bad.size:
        n = int(np.count_nonzero(acts[bad[0]] >= 0))
        raise OperatorMisuseError(f"live prefix of length {n} present when {doing}")


def apply_action_superposition(state: TreeState, problem: ProblemSpec, level: int) -> TreeState:
    """Extend every live prefix by the uniform superposition over its admissible actions.

    Each live row is replaced in place by one child per admissible action, in
    action order, so the rows stay in path order. A live row whose node has no
    admissible action is kept and frozen (dead); dead rows are kept as they are.
    """
    layout = state.layout
    if not 0 <= level < layout.depth:
        raise ValueError(f"level {level} outside layout depth {layout.depth}")
    if state.mode == "dense":
        new = np.zeros_like(state.vector)
        for idx in np.nonzero(state.vector)[0]:
            amp = state.vector[idx]
            for target, coef in action_images(problem, layout, level, int(idx)):
                new[target] += coef * amp
        return TreeState(layout, "dense", vector=new)
    _check_rows(state, problem, level, f"applying level {level}")
    return _extend(state, problem, level)


def apply_transition(state: TreeState, problem: ProblemSpec, level: int) -> TreeState:
    """Rewrite the node register of every live configuration to its successor."""
    layout = state.layout
    if not 0 <= level < layout.depth:
        raise ValueError(f"level {level} outside layout depth {layout.depth}")
    if state.mode == "dense":
        new = np.zeros_like(state.vector)
        for idx in np.nonzero(state.vector)[0]:
            new[transition_images(problem, layout, level, int(idx))] += state.vector[idx]
        return TreeState(layout, "dense", vector=new)
    _check_rows(state, problem, level + 1, f"transitioning level {level}")
    moved = _move(state, problem, level)
    if (moved.node < 0).any():  # a live row holds an action with no transition
        i = int(np.argmax(moved.node < 0))
        raise CorruptedStateError(
            f"no transition for (state {state.node[i]}, action {state.actions[i, level]})"
            f" at level {level}"
        )
    return moved


def _extend(state: TreeState, problem: ProblemSpec, level: int) -> TreeState:
    """The structured action step on rows already checked; a level's memory
    grows with its children, not with the alphabet."""
    arrays = problem.arrays
    source = np.where(state.dead, problem.n_states, state.node)  # dead rows read the extra row
    counts = arrays.counts[source]
    ends = np.cumsum(counts)
    # child j of row r is entry start[source[r]] + j - (ends[r] - counts[r]) of the child lists
    offset = np.repeat(arrays.start[source] + counts - ends, counts)
    slot = offset + np.arange(len(offset))
    actions = np.repeat(state.actions, counts, axis=0)
    actions[:, level] = arrays.child_action[slot]  # a kept row writes the pad value -1
    node = np.repeat(state.node, counts)
    amp = np.repeat(state.amp * arrays.scale[source], counts)
    return TreeState.from_arrays(state.layout, actions, node, amp, actions[:, level] < 0)


def _move(state: TreeState, problem: ProblemSpec, level: int) -> TreeState:
    """The structured transition step on rows already checked; a live row
    whose action has no transition gets node -1."""
    successor = problem.arrays.table[state.node, state.actions[:, level]]
    node = np.where(state.dead, state.node, successor)
    return TreeState.from_arrays(state.layout, state.actions, node, state.amp, state.dead)


def prepare_tree_state(plan: PreparationPlan, mode: str = "structured") -> TreeState:
    """Ground state followed by d rounds of (action superposition; transition)."""
    problem = plan.problem
    state = init_ground(plan.layout, problem.root, mode)
    if mode == "dense":
        for level in range(plan.depth):
            state = apply_action_superposition(state, problem, level)
            state = apply_transition(state, problem, level)
        return state
    # every row built here holds a state of the problem and the right number
    # of admissible actions, so the operators' checks on outside input are skipped
    for level in range(plan.depth):
        state = _move(_extend(state, problem, level), problem, level)
    return state
