"""Superposition-tree preparation.

Two operators are interleaved once per level: a conditional action-register
preparation that puts a uniform superposition over the admissible actions of
the current node, and a transition step that rewrites the node register.
After d rounds every admissible depth-d path carries the amplitude
prod_i 1/sqrt(|A_{s_i}|); a prefix whose node has no admissible actions keeps
its amplitude frozen at the level where it died and is never extended.

``prepare_tree_state`` runs no operator: it returns the tree as per-state
counts and class masses over the reachable (level, state) pairs, a
``PreparedTree``. That is the one state that production code passes around:
its row count, norm and draws come from those passes, and it lists its rows,
one at a time in path order, by walking them. The operators act on the row
states of ``statevector``, which the tests hold the walk to.

Draws use numpy's PCG64 generator; every sample sequence is reproducible
from the integer seed that reports record.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .problem_model import ProblemSpec, count_levels
from .statevector import Entry, RegisterLayout, TreeState, ZeroNormError, _Entries

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
        """The forward pass of ``count_levels`` up to ``PREFIX_CAP`` rows, made once per plan."""
        return count_levels(self.problem, self.depth, PREFIX_CAP)

    def check_cap(self) -> None:
        levels, dead = self.counts
        if dead + sum(levels[-1].values()) > PREFIX_CAP:
            raise ValueError(
                f"the depth-{self.depth} tree of {self.problem.name!r}"
                " has more than 2**24 path prefixes"
            )


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
    if not 0 <= level < state.layout.depth:
        raise ValueError(f"level {level} outside layout depth {state.layout.depth}")
    _check_rows(state, problem, level, f"applying level {level}")
    return _extend(state, problem, level)


def apply_transition(state: TreeState, problem: ProblemSpec, level: int) -> TreeState:
    """Rewrite the node register of every live configuration to its successor."""
    if not 0 <= level < state.layout.depth:
        raise ValueError(f"level {level} outside layout depth {state.layout.depth}")
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


class PreparedTree:
    """A prepared tree, held as passes over its plan in place of rows.

    ``levels`` and ``n_dead`` are the plan's forward pass, ``plan.counts``.
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
    rest times c_b. ``walk`` and ``entry`` list them from the forward pass
    and the weights, one row at a time.
    """

    __slots__ = ("plan", "levels", "n_dead", "stages", "marks", "c_g", "c_b", "_masses")
    mode = "structured"  # read by benchmark/tracing.py; dense states are test references

    def __init__(self, plan: PreparationPlan, stages=(), marks=None, c_g=1.0, c_b=1.0, masses=None):
        self.plan, (self.levels, self.n_dead), self.stages = plan, plan.counts, tuple(stages)
        self.marks, self.c_g, self.c_b, self._masses = marks, c_g, c_b, masses

    @property
    def layout(self) -> RegisterLayout:
        return self.plan.layout

    @property
    def live(self) -> int:
        return sum(self.levels[-1].values())

    @property
    def n_rows(self) -> int:
        return self.live + self.n_dead

    def prefix_counts(self) -> tuple[int, int]:
        """(live paths, dead prefixes)."""
        return self.live, self.n_dead

    @property
    def entries(self) -> _Entries:
        """Read-only path -> ``Entry`` view of the rows, in path order."""
        return _Entries(self)

    def _marked_at(self, level: int, marks) -> list[int]:
        return [s for s in self.levels[level] if marks is not None and marks(s)]

    def marked_states(self) -> list[int]:
        """The nodes of live depth-d rows that ``marks`` holds at."""
        return self._marked_at(-1, self.marks)

    def marked_paths(self) -> int:
        return sum(self.levels[-1][s] for s in self.marked_states())

    def marking(self, marks) -> "PreparedTree":
        """The same rows, with the backward pass made for ``marks``."""
        return PreparedTree(self.plan, self.stages, marks)

    def weighted(self, c_g: float, c_b: float) -> "PreparedTree":
        return PreparedTree(self.plan, self.stages, self.marks, c_g, c_b, self.masses())

    def staged(self, depth: int, stages) -> "PreparedTree":
        """The unamplified tree of this tree's first ``depth`` levels, its rows
        weighted by ``stages``, each at a level below ``depth``."""
        plan = self.plan
        if depth != plan.depth:
            plan = PreparationPlan(plan.problem, depth, plan.layout)
        return PreparedTree(plan, stages)

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

    def _factors(self) -> tuple[dict, set]:
        """The weights beyond 1/sqrt|A(s)|: per stage level, in level order, (the
        states the stage marks, c_g, c_b); and the depth-d states ``marks`` holds at."""
        stages = {
            level: (set(self._marked_at(level, marks)), c_g, c_b)
            for level, marks, c_g, c_b in sorted(self.stages, key=lambda stage: stage[0])
        }
        return stages, set(self.marked_states())

    def _step(self, level: int, s: int, amp: float, stages: dict, marked: set):
        """The prefix ending at state ``s`` at ``level``, ``amp`` its amplitude
        before the level's stage: (amp, dead) of its row, or, when it has
        children, (each child's amplitude, None). The factors are those of the
        operator loop, in its order: the stage's, then 1/sqrt|A(s)|; a dead end
        then takes c_b from every deeper stage, and a row ends with c_g if it is
        a marked live row, else c_b."""
        if level in stages:
            on, c_g, c_b = stages[level]
            amp *= c_g if s in on else c_b
        if level == len(self.levels) - 1:  # the depth, or past the last live prefix
            return amp * (self.c_g if s in marked else self.c_b), False
        acts = self.plan.problem.admissible[s]
        if acts:
            return amp * (1 / math.sqrt(len(acts))), None
        for deeper, (_, _, c_b) in stages.items():
            if deeper > level:
                amp *= c_b
        return amp * self.c_b, True

    def walk(self):
        """Every row as (path, node, amp, dead), in path order, one at a time: a
        depth-first walk of the reachable states in action order."""
        problem, (stages, marked) = self.plan.problem, self._factors()
        stack = [((), problem.root, 1.0)]
        while stack:
            path, s, amp = stack.pop()
            amp, dead = self._step(len(path), s, amp, stages, marked)
            if dead is not None:
                yield path, s, amp, dead
                continue
            for a in reversed(problem.admissible[s]):
                stack.append((path + (a,), problem.transition[(s, a)], amp))

    def sorted_entries(self):
        """Every row as a (path prefix, ``Entry``) pair, in path order, one at a time."""
        return ((path, Entry(amp, node, dead)) for path, node, amp, dead in self.walk())

    def entry(self, path: tuple[int, ...]) -> Entry:
        """The row of ``path``, by one descent along it; ``KeyError`` when
        ``path`` is not a row."""
        problem, (stages, marked) = self.plan.problem, self._factors()
        s, amp = problem.root, 1.0
        for level, a in enumerate((*path, None)):
            amp, dead = self._step(level, s, amp, stages, marked)
            if dead is not None or a is None:
                break
            s = problem.transition.get((s, a))
            if s is None:
                raise KeyError(path)
        if dead is None or level < len(path):
            raise KeyError(path)
        return Entry(amp, s, dead)


def prepare_tree_state(plan: PreparationPlan) -> PreparedTree:
    """The tree that the ground state followed by d rounds of (action
    superposition; transition) prepares, held as its plan's per-state passes:
    no operator runs and no row is built."""
    plan.check_cap()  # a plan made without ``for_problem`` was never checked
    return PreparedTree(plan)


def _measure_with_rng(
    tree: PreparedTree, samples: int, rng: np.random.Generator
) -> list[tuple[tuple[int, ...], int]]:
    if not isinstance(tree, PreparedTree):
        raise ValueError("only a prepared tree is measured; rows are test references")
    # the doubles rng.choice would take, each walked down the tree
    return [tree.draw(u, tree.c_g, tree.c_b) for u in rng.random(samples).tolist()]


def measure_paths(
    tree: PreparedTree, samples: int, seed: int | np.random.Generator
) -> list[tuple[tuple[int, ...], int]]:
    """Draw i.i.d. samples from the |amplitude|^2 distribution of a prepared tree.

    Identical (seed, tree) pairs produce identical sample sequences; the
    generator is numpy's PCG64 seeded with ``seed``. A ``Generator`` given as
    ``seed`` is used as it is, so draws split over several calls on one
    generator are the draws of one call.
    """
    return _measure_with_rng(tree, samples, np.random.default_rng(seed))
