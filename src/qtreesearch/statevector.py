"""Complex-amplitude state over the joint node (x) action-path register.

Two representations are kept deliberately:

* structured -- one amplitude per admissible path prefix, in aligned arrays
  kept in path order. The node value and a dead flag are stored alongside
  each prefix; configurations that are not admissible prefixes implicitly
  hold amplitude zero. A prepared tree is deferred: it answers its row
  counts, norm and draws from per-state counts and class masses, and
  builds the arrays only when one is read, for the state dump and the
  tests. States given as rows are test references: sampling them with
  ``rng.choice`` is what the deferred draw is held to.
* dense -- the full 2**total_width complex vector, the test reference: it
  checks that the structured bookkeeping is faithful rather than assuming it,
  and inner products, the oracle and the reflection are defined on it alone.

Register convention for dense indices: the node register occupies the most
significant bits, followed by the level-0 action register down to the
level-(d-1) register. Sampling uses numpy's PCG64 generator; every sample
sequence is reproducible from the integer seed that reports record.
"""
from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .problem_model import ProblemSpec

_DENSE_WIDTH_CAP = 24  # 2**24 complex amplitudes; beyond that dense mode is a mistake


class LayoutMismatchError(ValueError):
    """Two states (or a state and a plan) disagree on register layout."""


class ZeroNormError(ValueError):
    """Operation requires a normalized state but the norm is zero."""


class Entry(NamedTuple):
    amp: complex
    node: int
    dead: bool


@dataclass(frozen=True)
class RegisterLayout:
    """Bit widths and ordering of the node register and the d action registers."""

    node_width: int
    action_width: int
    depth: int

    @classmethod
    def from_sizes(cls, n_states: int, n_actions: int, depth: int) -> "RegisterLayout":
        if n_states < 1 or depth < 0:
            raise ValueError("need at least one state and depth >= 0")
        node_width = (n_states - 1).bit_length()
        action_width = max(1, (n_actions - 1).bit_length()) if n_actions >= 1 else 1
        return cls(node_width=node_width, action_width=action_width, depth=depth)

    @property
    def total_width(self) -> int:
        return self.node_width + self.depth * self.action_width

    @property
    def paper_node_width(self) -> int:
        """Node-register width if sized for the worst case |A|**d instead of |S|."""
        return self.depth * self.action_width

    def index_of(self, node: int, actions: Iterable[int]) -> int:
        """Dense index of a configuration; short prefixes are padded with zeros."""
        idx = node
        padded = list(actions)
        padded += [0] * (self.depth - len(padded))
        for a in padded:
            idx = (idx << self.action_width) | a
        return idx

    def decode(self, index: int) -> tuple[int, tuple[int, ...]]:
        mask = (1 << self.action_width) - 1
        actions = tuple(
            (index >> ((self.depth - 1 - level) * self.action_width)) & mask
            for level in range(self.depth)
        )
        node = index >> (self.depth * self.action_width)
        return node, actions


class TreeState:
    """Mutable-by-replacement state container; operators return fresh states.

    A structured state holds one row per admissible path prefix in aligned
    arrays: ``actions`` (the prefix, padded with -1 to the layout depth),
    ``node``, ``amp`` and ``dead``. Rows stay in path order, a prefix before
    its extensions, so no operator sorts. States share these arrays and never
    write them after construction.

    A deferred state (``deferred`` is set) holds what built it instead: its
    counts, norm and draws come from that, and its arrays are built the
    first time one of them is read.
    """

    __slots__ = ("layout", "mode", "actions", "node", "amp", "dead", "vector", "deferred")

    def __init__(
        self,
        layout: RegisterLayout,
        mode: str = "structured",
        entries: Mapping[tuple[int, ...], Entry] | None = None,
        vector: np.ndarray | None = None,
    ):
        if mode not in ("structured", "dense"):
            raise ValueError(f"unknown mode {mode!r}")
        items = sorted(entries.items()) if entries else []
        # the smallest signed type that holds every action value and the -1 pad
        dtype = np.min_scalar_type(-(1 << layout.action_width))
        actions = np.full((len(items), layout.depth), -1, dtype=dtype)
        for row, (path, _) in zip(actions, items):
            row[: len(path)] = path
        self.layout = layout
        self.mode = mode
        self.actions = actions
        self.node = np.array([e.node for _, e in items], dtype=np.int32)
        self.amp = np.array([e.amp for _, e in items], dtype=np.complex128)
        self.dead = np.array([e.dead for _, e in items], dtype=bool)
        self.vector = vector
        self.deferred = None

    @classmethod
    def from_arrays(
        cls,
        layout: RegisterLayout,
        actions: np.ndarray,
        node: np.ndarray,
        amp: np.ndarray,
        dead: np.ndarray,
    ) -> "TreeState":
        """A structured state over rows that are already in path order."""
        state = cls.__new__(cls)
        state.layout, state.mode, state.vector, state.deferred = layout, "structured", None, None
        state.actions, state.node, state.amp, state.dead = actions, node, amp, dead
        return state

    @classmethod
    def deferred_from(cls, layout: RegisterLayout, rows) -> "TreeState":
        """A structured state whose rows ``rows.build()`` makes when first read;
        ``rows`` also gives their counts, ``norm_sq`` and ``draw``."""
        state = cls.__new__(cls)
        state.layout, state.mode, state.vector, state.deferred = layout, "structured", None, rows
        return state

    def __getattr__(self, name: str):
        # reached only for a slot that is not set: the arrays of a deferred state
        if name not in _ROW_ARRAYS or self.deferred is None:
            raise AttributeError(name)
        self.actions, self.node, self.amp, self.dead = self.deferred.build()
        return getattr(self, name)

    @property
    def n_rows(self) -> int:
        return self.deferred.rows if self.deferred is not None else len(self.amp)

    def prefix_counts(self) -> tuple[int, int]:
        """(live paths, dead prefixes) of a structured state."""
        if self.deferred is not None:
            return self.deferred.live, self.deferred.dead
        n_dead = int(self.dead.sum())
        return len(self.dead) - n_dead, n_dead

    @property
    def entries(self) -> "_Entries":
        """Read-only path -> ``Entry`` view of the rows, in path order."""
        return _Entries(self)

    def path(self, row: int) -> tuple[int, ...]:
        return tuple(a for a in self.actions[row].tolist() if a >= 0)

    def norm_sq(self) -> float:
        if self.deferred is not None:
            return self.deferred.norm_sq()
        v = self.vector if self.mode == "dense" else self.amp
        return float(np.vdot(v, v).real)

    def sorted_entries(self) -> list[tuple[tuple[int, ...], Entry]]:
        """Every row as a (path prefix, ``Entry``) pair, in path order."""
        rows = zip(self.actions.tolist(), self.amp.tolist(), self.node.tolist(), self.dead.tolist())
        return [(tuple(a for a in acts if a >= 0), Entry(*rest)) for acts, *rest in rows]

    def to_dense(self) -> "TreeState":
        """Materialize the full joint-register vector (structured metadata suffices)."""
        if self.mode == "dense":
            return self
        if self.layout.total_width > _DENSE_WIDTH_CAP:
            raise ValueError(
                f"refusing dense vector of 2**{self.layout.total_width} amplitudes"
            )
        index = self.node.astype(np.int64)
        for column in self.actions.T:  # a short prefix keeps the ground value 0
            index = (index << self.layout.action_width) | np.maximum(column, 0)
        vec = np.zeros(1 << self.layout.total_width, dtype=np.complex128)
        vec[index] = self.amp
        return TreeState(self.layout, "dense", vector=vec)


_ROW_ARRAYS = frozenset(("actions", "node", "amp", "dead"))


class _Entries(Mapping):
    """Path -> ``Entry`` over a structured state's rows; a lookup bisects the path order."""

    __slots__ = ("_state",)

    def __init__(self, state: TreeState):
        self._state = state

    def __len__(self) -> int:
        return self._state.n_rows

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return (path for path, _ in self._state.sorted_entries())

    def __getitem__(self, path: tuple[int, ...]) -> Entry:
        state = self._state
        row = bisect.bisect_left(range(len(self)), path, key=state.path)
        if row == len(self) or state.path(row) != path:
            raise KeyError(path)
        return Entry(complex(state.amp[row]), int(state.node[row]), bool(state.dead[row]))


def init_ground(layout: RegisterLayout, root: int, mode: str = "structured") -> TreeState:
    """All registers in the ground value: amplitude 1 on the empty prefix at the root."""
    if mode not in ("structured", "dense"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 <= root < (1 << layout.node_width):
        raise ValueError(f"root index {root} does not fit the node register")
    state = TreeState(layout, "structured", entries={(): Entry(1.0 + 0j, root, False)})
    return state.to_dense() if mode == "dense" else state


def inner_product(x: TreeState, y: TreeState) -> complex:
    """<x|y> over the joint register, computed on the dense reference vectors."""
    if x.layout != y.layout:
        raise LayoutMismatchError("states have different register layouts")
    return complex(np.vdot(x.to_dense().vector, y.to_dense().vector))


def dense_entries(
    state: TreeState, problem: ProblemSpec | None = None
) -> list[tuple[tuple[int, ...], Entry]]:
    """The entries of a state as (path prefix, entry) pairs, sorted by path.

    A structured state lists its entries. A dense state lists its nonzero
    amplitudes; each path is recovered by walking the transition function of
    ``problem`` from the root, and the walk stops where the recorded action is
    no longer admissible (a frozen dead-end configuration keeps its later
    registers in the ground value).
    """
    if state.mode != "dense":
        return state.sorted_entries()
    if problem is None:
        raise ValueError("dense mode needs the problem to decode paths")
    out = []
    for idx in np.nonzero(state.vector)[0]:
        node, actions = state.layout.decode(int(idx))
        _, n = problem.walk(actions)
        out.append((actions[:n], Entry(complex(state.vector[idx]), node, n < len(actions))))
    out.sort()
    return out


def _measure_with_rng(
    state: TreeState,
    samples: int,
    rng: np.random.Generator,
    problem: ProblemSpec | None = None,
) -> list[tuple[tuple[int, ...], int]]:
    if state.mode == "dense":
        state = TreeState(state.layout, entries=dict(dense_entries(state, problem)))
    rows = state.deferred
    if rows is not None:  # the doubles rng.choice would take, each walked down the tree
        return [rows.draw(u, rows.c_g, rows.c_b) for u in rng.random(samples).tolist()]
    probs = np.abs(state.amp) ** 2
    total = probs.sum()
    if not total > 0.0:  # zero or NaN, which rng.choice would reject as a ValueError
        raise ZeroNormError("cannot sample from a zero-norm state")
    probs /= total
    picks = rng.choice(len(probs), size=samples, p=probs)
    return [(state.path(i), int(state.node[i])) for i in picks]


def measure_paths(
    state: TreeState,
    samples: int,
    seed: int,
    problem: ProblemSpec | None = None,
) -> list[tuple[tuple[int, ...], int]]:
    """Draw i.i.d. samples from the |amplitude|^2 distribution.

    Identical (seed, state) pairs produce identical sample sequences; the
    generator is numpy's PCG64 seeded with ``seed``.
    """
    return _measure_with_rng(state, samples, np.random.default_rng(seed), problem)


def derive_seed(seed: int, *streams: int) -> int:
    """Deterministically fold sub-stream labels into a fresh seed."""
    ss = np.random.SeedSequence([seed & 0x7FFFFFFFFFFFFFFF, *[s & 0x7FFFFFFFFFFFFFFF for s in streams]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])

