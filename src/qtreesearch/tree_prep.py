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
from .statevector import Entry, RegisterLayout, TreeState, init_ground


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
        if depth < 0:
            raise ValueError("depth must be >= 0")
        layout = RegisterLayout.from_sizes(problem.n_states, problem.n_actions, depth)
        return cls(problem=problem, depth=depth, layout=layout)


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


def apply_action_superposition(state: TreeState, problem: ProblemSpec, level: int) -> TreeState:
    """Extend every live prefix by the uniform superposition over its admissible actions."""
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

    entries: dict[tuple[int, ...], Entry] = {}
    for path, entry in state.entries.items():
        if entry.dead:
            entries[path] = entry
            continue
        if len(path) != level:
            raise OperatorMisuseError(
                f"live prefix of length {len(path)} present when applying level {level}"
            )
        acts = problem.admissible[entry.node]
        if not acts:
            entries[path] = Entry(entry.amp, entry.node, True)
            continue
        coef = 1.0 / math.sqrt(len(acts))
        for a in acts:
            entries[path + (a,)] = Entry(entry.amp * coef, entry.node, False)
    return TreeState(layout, "structured", entries=entries)


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

    entries: dict[tuple[int, ...], Entry] = {}
    for path, entry in state.entries.items():
        if entry.dead:
            entries[path] = entry
            continue
        if len(path) != level + 1:
            raise OperatorMisuseError(
                f"live prefix of length {len(path)} present when transitioning level {level}"
            )
        a = path[level]
        target = problem.transition.get((entry.node, a))
        if target is None:
            raise CorruptedStateError(
                f"no transition for (state {entry.node}, action {a}) at level {level}"
            )
        entries[path] = Entry(entry.amp, target, False)
    return TreeState(layout, "structured", entries=entries)


def prepare_tree_state(plan: PreparationPlan, mode: str = "structured") -> TreeState:
    """Ground state followed by d rounds of (action superposition; transition)."""
    state = init_ground(plan.layout, plan.problem.root, mode)
    for level in range(plan.depth):
        state = apply_action_superposition(state, plan.problem, level)
        state = apply_transition(state, plan.problem, level)
    return state
