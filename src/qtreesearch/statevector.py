"""Complex-amplitude state over the joint node (x) action-path register.

A structured state holds one amplitude per admissible path prefix;
configurations that are not admissible prefixes implicitly hold amplitude
zero. It comes in two forms:

* a prepared tree (``deferred`` is set) holds no rows. Its row count, norm
  and draws come from per-state counts and class masses, and its rows are
  listed, one at a time in path order, by a depth-first walk of the same
  per-state passes: that walk is ``sorted_entries``, ``entries`` and the
  state dump. This is the one form production code runs on.
* rows in aligned arrays, kept in path order with the node value and a dead
  flag alongside each prefix, are what the two preparation operators of
  ``tree_prep`` take and return. Tests hold the prepared tree to them.

The dense joint-register vector, its inner products, the oracle and the
reflection are the test reference in ``tests/reference.py``. Sampling uses
numpy's PCG64 generator; every sample sequence is reproducible from the
integer seed that reports record.
"""
from __future__ import annotations

import bisect
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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


class TreeState:
    """Mutable-by-replacement state container; operators return fresh states.

    A row state holds one row per admissible path prefix in aligned arrays:
    ``actions`` (the prefix, padded with -1 to the layout depth), ``node``,
    ``amp`` and ``dead``. Rows stay in path order, a prefix before its
    extensions, so no operator sorts. States share these arrays and never
    write them after construction.

    A prepared tree (``deferred`` is set) holds what built it instead, a
    ``tree_prep.DeferredRows``, and never holds row arrays.
    """

    __slots__ = ("layout", "actions", "node", "amp", "dead", "deferred")
    mode = "structured"  # read by benchmark/tracing.py; dense states are test references

    def __init__(
        self,
        layout: RegisterLayout,
        entries: Mapping[tuple[int, ...], Entry] | None = None,
    ):
        items = sorted(entries.items()) if entries else []
        # the smallest signed type that holds every action value and the -1 pad
        dtype = np.min_scalar_type(-(1 << layout.action_width))
        actions = np.full((len(items), layout.depth), -1, dtype=dtype)
        for row, (path, _) in zip(actions, items):
            row[: len(path)] = path
        self.layout = layout
        self.actions = actions
        self.node = np.array([e.node for _, e in items], dtype=np.int32)
        self.amp = np.array([e.amp for _, e in items], dtype=np.complex128)
        self.dead = np.array([e.dead for _, e in items], dtype=bool)
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
        """A row state over rows that are already in path order."""
        state = cls.__new__(cls)
        state.layout, state.deferred = layout, None
        state.actions, state.node, state.amp, state.dead = actions, node, amp, dead
        return state

    @classmethod
    def deferred_from(cls, layout: RegisterLayout, rows) -> "TreeState":
        """A prepared tree: ``rows`` gives its counts, ``norm_sq``, ``draw``, and
        its rows one at a time (``walk``, ``entry``)."""
        state = cls.__new__(cls)
        state.layout, state.deferred = layout, rows
        return state

    @property
    def n_rows(self) -> int:
        return self.deferred.rows if self.deferred is not None else len(self.amp)

    def prefix_counts(self) -> tuple[int, int]:
        """(live paths, dead prefixes)."""
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
        return float(np.vdot(self.amp, self.amp).real)

    def sorted_entries(self) -> Iterator[tuple[tuple[int, ...], Entry]]:
        """Every row as a (path prefix, ``Entry``) pair, in path order, one at a time."""
        if self.deferred is not None:
            return ((path, Entry(amp, node, dead)) for path, node, amp, dead in self.deferred.walk())
        rows = zip(self.actions.tolist(), self.amp.tolist(), self.node.tolist(), self.dead.tolist())
        return ((tuple(a for a in acts if a >= 0), Entry(*rest)) for acts, *rest in rows)


class _Entries(Mapping):
    """Path -> ``Entry`` over a state's rows, in path order: a lookup descends
    a prepared tree along the path, or bisects the path order of rows."""

    __slots__ = ("_state",)

    def __init__(self, state: TreeState):
        self._state = state

    def __len__(self) -> int:
        return self._state.n_rows

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return (path for path, _ in self._state.sorted_entries())

    def __getitem__(self, path: tuple[int, ...]) -> Entry:
        state = self._state
        if state.deferred is not None:
            return state.deferred.entry(path)
        row = bisect.bisect_left(range(len(self)), path, key=state.path)
        if row == len(self) or state.path(row) != path:
            raise KeyError(path)
        return Entry(complex(state.amp[row]), int(state.node[row]), bool(state.dead[row]))


def init_ground(layout: RegisterLayout, root: int) -> TreeState:
    """All registers in the ground value: amplitude 1 on the empty prefix at the root."""
    if not 0 <= root < (1 << layout.node_width):
        raise ValueError(f"root index {root} does not fit the node register")
    return TreeState(layout, entries={(): Entry(1.0 + 0j, root, False)})


def _measure_with_rng(
    state: TreeState, samples: int, rng: np.random.Generator
) -> list[tuple[tuple[int, ...], int]]:
    rows = state.deferred
    if rows is None:
        raise ValueError("only a prepared tree is measured; rows are test references")
    # the doubles rng.choice would take, each walked down the tree
    return [rows.draw(u, rows.c_g, rows.c_b) for u in rng.random(samples).tolist()]


def measure_paths(
    state: TreeState, samples: int, seed: int | np.random.Generator
) -> list[tuple[tuple[int, ...], int]]:
    """Draw i.i.d. samples from the |amplitude|^2 distribution of a prepared tree.

    Identical (seed, state) pairs produce identical sample sequences; the
    generator is numpy's PCG64 seeded with ``seed``. A ``Generator`` given as
    ``seed`` is used as it is, so draws split over several calls on one
    generator are the draws of one call.
    """
    return _measure_with_rng(state, samples, np.random.default_rng(seed))


def derive_seed(seed: int, *streams: int) -> int:
    """Deterministically fold sub-stream labels into a fresh seed."""
    ss = np.random.SeedSequence([seed & 0x7FFFFFFFFFFFFFFF, *[s & 0x7FFFFFFFFFFFFFFF for s in streams]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])

