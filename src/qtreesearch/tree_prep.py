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
from functools import cached_property

import numpy as np

from .problem_model import ProblemSpec
from .statevector import RegisterLayout, TreeState, ZeroNormError, init_ground

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
        layout = RegisterLayout.from_sizes(problem.n_states, problem.n_actions, depth)
        plan = cls(problem=problem, depth=depth, layout=layout)
        plan.check_cap()
        return plan

    @cached_property
    def counts(self) -> tuple[list[dict[int, int]], int]:
        """The forward pass of ``_count_levels``, made once per plan."""
        return _count_levels(self.problem, self.depth)

    def check_cap(self) -> None:
        levels, dead = self.counts
        if dead + sum(levels[-1].values()) > PREFIX_CAP:
            raise ValueError(
                f"the depth-{self.depth} tree of {self.problem.name!r}"
                " has more than 2**24 path prefixes"
            )


def _count_levels(problem: ProblemSpec, depth: int) -> tuple[list[dict[int, int]], int]:
    """The forward pass: ``levels[l]`` maps each state that live length-``l``
    prefixes end at to their exact number, and the int counts the prefixes
    frozen at a dead end on the way. Stops early once the rows pass the cap, or
    after the first empty level, so that ``levels[-1]`` still reads no live paths."""
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
        if not nxt or dead + sum(nxt.values()) > PREFIX_CAP:
            break
    return levels, dead


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


def scale_classes(amp: np.ndarray, marked, c_g: float, c_b: float) -> np.ndarray:
    """``amp`` with the ``marked`` rows times ``c_g`` and the rest times ``c_b``;
    ``amp`` itself when both are 1, since states never write their arrays."""
    if c_g == c_b == 1.0:
        return amp
    out = amp * c_b
    out[marked] = amp[marked] * c_g
    return out


class DeferredRows:
    """The rows of a prepared structured state, held as their plan until read.

    ``levels`` and ``dead`` are the plan's forward pass, ``plan.counts``.
    ``stages`` weight the rows by earlier amplifications, as (level, marks,
    c_g, c_b): a prefix live at that level, a dead end there included, takes
    c_g if ``marks`` holds at its state and c_b otherwise, and a prefix frozen
    at an earlier level takes c_b. Every stage lies at a level with live
    prefixes.

    The backward pass is made for ``marks``, a test on the node of a depth-d
    row (None marks nothing). For each level l < d and each state s reached
    there it lists the children of a prefix ending at s, in action order, as
    (action, state, marked mass, unmarked mass): the |amplitude|^2 mass of the
    rows below the child relative to the prefix's own before any level-l
    stage, times the step weight the rows carry for the step, (1/sqrt|A(s)|)^2
    times the square of the level-l stage's factor at s. A prefix frozen at a
    dead end has no children and is one unmarked row. The state's amplitudes
    are the weighted preparation's with the marked rows times c_g and the
    rest times c_b.
    """

    __slots__ = ("plan", "levels", "dead", "stages", "marks", "c_g", "c_b", "_masses")

    def __init__(self, plan: PreparationPlan, stages=(), marks=None, c_g=1.0, c_b=1.0, masses=None):
        self.plan, (self.levels, self.dead), self.stages = plan, plan.counts, tuple(stages)
        self.marks, self.c_g, self.c_b, self._masses = marks, c_g, c_b, masses

    @property
    def live(self) -> int:
        return sum(self.levels[-1].values())

    @property
    def rows(self) -> int:
        return self.live + self.dead

    def _marked_at(self, level: int, marks) -> list[int]:
        return [s for s in self.levels[level] if marks is not None and marks(s)]

    def marked_states(self) -> list[int]:
        """The nodes of live depth-d rows that ``marks`` holds at."""
        return self._marked_at(-1, self.marks)

    def marked_paths(self) -> int:
        return sum(self.levels[-1][s] for s in self.marked_states())

    def marking(self, marks) -> "DeferredRows":
        """The same rows, with the backward pass made for ``marks``."""
        return DeferredRows(self.plan, self.stages, marks)

    def weighted(self, c_g: float, c_b: float) -> "DeferredRows":
        return DeferredRows(self.plan, self.stages, self.marks, c_g, c_b, self.masses())

    def staged(self, depth: int, stages) -> TreeState:
        """The unamplified tree of this tree's first ``depth`` levels, its rows
        weighted by ``stages``, each at a level below ``depth``."""
        plan = self.plan
        if depth != plan.depth:
            plan = PreparationPlan(plan.problem, depth, plan.layout)
        return TreeState.deferred_from(plan.layout, DeferredRows(plan, stages))

    def masses(self) -> tuple[list[dict], float, float]:
        """(children per level, marked mass, unmarked mass) of the whole tree."""
        if self._masses is None:
            problem, marked = self.plan.problem, set(self.marked_states())
            stages = {level: rest for level, *rest in self.stages}
            mass = {s: (1.0, 0.0) if s in marked else (0.0, 1.0) for s in self.levels[-1]}
            frozen = 1.0  # a dead end's factor from the stages deeper than its level
            children = []
            for level in range(len(self.levels) - 2, -1, -1):
                kids_at, up, on, wg, wb = {}, {}, (), 1.0, 1.0
                if level in stages:
                    marks, c_g, c_b = stages[level]
                    on, wg, wb = set(self._marked_at(level, marks)), c_g * c_g, c_b * c_b
                for s in self.levels[level]:
                    w = wg if s in on else wb
                    acts = problem.admissible[s]
                    if not acts:  # a dead end: one unmarked row
                        kids_at[s], up[s] = (1.0, []), (0.0, w * frozen)
                        continue
                    f = 1 / math.sqrt(len(acts))
                    f2, kids = f * f * w, []
                    for a in acts:
                        t = problem.transition[(s, a)]
                        kids.append((a, t, f2 * mass[t][0], f2 * mass[t][1]))
                    kids_at[s] = (f2, kids)
                    up[s] = (sum(k[2] for k in kids), sum(k[3] for k in kids))
                frozen *= wb
                children.append(kids_at)
                mass = up
            children.reverse()
            self._masses = children, *mass[problem.root]
        return self._masses

    def norm_sq(self) -> float:
        _, g2, b2 = self.masses()
        return self.c_g * self.c_g * g2 + self.c_b * self.c_b * b2

    def draw(self, u: float, c_g: float, c_b: float) -> tuple[tuple[int, ...], int]:
        """The (path, node) of the row that ``rng.choice`` picks with the
        uniform double ``u`` when the marked amplitudes are times ``c_g`` and
        the rest times ``c_b``: lay the rows' masses end to end in path order
        and, from the root, step over whole children until ``u`` times the
        total lies in one."""
        children, g2, b2 = self._masses or self.masses()
        wg, wb = c_g * c_g, c_b * c_b
        total = wg * g2 + wb * b2
        if not total > 0.0:  # zero or NaN
            raise ZeroNormError("cannot sample from a zero-norm state")
        target = u * total
        path, s, w = [], self.plan.problem.root, 1.0
        for kids_at in children:
            f2, kids = kids_at[s]
            pick = None
            for a, t, g, b in kids:
                m = w * (wg * g + wb * b)
                if m > 0.0:
                    pick = a, t  # rounding may leave the target past every child: take the last
                    if target < m:
                        break
                    target -= m
            if pick is None:  # a dead end, which is its own row
                break
            (a, s), w = pick, w * f2
            path.append(a)
        return tuple(path), s

    def build(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The rows (actions, node, amp, dead), by the level loop of the operators
        with each stage's weights applied at its level. The loop stops after the
        forward pass's last level, since every row is frozen from there on."""
        problem, stages = self.plan.problem, {level: rest for level, *rest in self.stages}
        state = init_ground(self.plan.layout, problem.root)
        # every row built here holds a state of the problem and the right number
        # of admissible actions, so the operators' checks on outside input are skipped
        for level in range(len(self.levels) - 1):
            if level in stages:
                marks, c_g, c_b = stages[level]
                marked = ~state.dead & np.isin(state.node, self._marked_at(level, marks))
                state.amp = scale_classes(state.amp, marked, c_g, c_b)
            state = _move(_extend(state, problem, level), problem, level)
        marked = ~state.dead & np.isin(state.node, self.marked_states())
        amp = scale_classes(state.amp, marked, self.c_g, self.c_b)
        return state.actions, state.node, amp, state.dead


def prepare_tree_state(plan: PreparationPlan, mode: str = "structured") -> TreeState:
    """Ground state followed by d rounds of (action superposition; transition).

    A structured state is deferred: it holds the plan and its counts, and its
    rows are built the first time one is read.
    """
    problem = plan.problem
    if mode == "structured":
        plan.check_cap()  # a plan made without ``for_problem`` was never checked
        return TreeState.deferred_from(plan.layout, DeferredRows(plan))
    state = init_ground(plan.layout, problem.root, mode)
    for level in range(plan.depth):
        state = apply_action_superposition(state, problem, level)
        state = apply_transition(state, problem, level)
    return state
