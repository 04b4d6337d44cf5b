"""Register layout and the row state over the joint node (x) action-path register.

A row state holds one amplitude per admissible path prefix in aligned
arrays, in path order with the node value and a dead flag alongside each
prefix; configurations that are not admissible prefixes implicitly hold
amplitude zero. Rows are what the two preparation operators of ``tree_prep``
take and return, and the tests hold the prepared tree (``tree_prep.PreparedTree``,
the one form production code runs on) to them.

The dense joint-register vector, its inner products, the oracle and the
reflection are the test reference in ``tests/reference.py``.
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
    amp: float | complex  # a prepared tree's amplitudes are real; a row state's are complex
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
    """

    __slots__ = ("layout", "actions", "node", "amp", "dead")

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
        state.layout = layout
        state.actions, state.node, state.amp, state.dead = actions, node, amp, dead
        return state

    @property
    def n_rows(self) -> int:
        return len(self.amp)

    def prefix_counts(self) -> tuple[int, int]:
        """(live paths, dead prefixes)."""
        n_dead = int(self.dead.sum())
        return len(self.dead) - n_dead, n_dead

    @property
    def entries(self) -> "_Entries":
        """Read-only path -> ``Entry`` view of the rows, in path order."""
        return _Entries(self)

    def path(self, row: int) -> tuple[int, ...]:
        return tuple(a for a in self.actions[row].tolist() if a >= 0)

    def entry(self, path: tuple[int, ...]) -> Entry:
        """The row of ``path``, by bisecting the path order; ``KeyError`` when
        ``path`` is not a row."""
        row = bisect.bisect_left(range(self.n_rows), path, key=self.path)
        if row == self.n_rows or self.path(row) != path:
            raise KeyError(path)
        return Entry(complex(self.amp[row]), int(self.node[row]), bool(self.dead[row]))

    def norm_sq(self) -> float:
        return float(np.vdot(self.amp, self.amp).real)

    def sorted_entries(self) -> Iterator[tuple[tuple[int, ...], Entry]]:
        """Every row as a (path prefix, ``Entry``) pair, in path order, one at a time."""
        rows = zip(self.actions.tolist(), self.amp.tolist(), self.node.tolist(), self.dead.tolist())
        return ((tuple(a for a in acts if a >= 0), Entry(*rest)) for acts, *rest in rows)


class _Entries(Mapping):
    """Path -> ``Entry`` over a state's rows, in path order: a row state or a
    ``tree_prep.PreparedTree``, each of which gives ``n_rows``,
    ``sorted_entries()`` and ``entry(path)``."""

    __slots__ = ("_state",)

    def __init__(self, state):
        self._state = state

    def __len__(self) -> int:
        return self._state.n_rows

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return (path for path, _ in self._state.sorted_entries())

    def __getitem__(self, path: tuple[int, ...]) -> Entry:
        return self._state.entry(path)


def init_ground(layout: RegisterLayout, root: int) -> TreeState:
    """All registers in the ground value: amplitude 1 on the empty prefix at the root."""
    if not 0 <= root < (1 << layout.node_width):
        raise ValueError(f"root index {root} does not fit the node register")
    return TreeState(layout, entries={(): Entry(1.0 + 0j, root, False)})


def derive_seed(seed: int, *streams: int) -> int:
    """Deterministically fold sub-stream labels into a fresh seed."""
    ss = np.random.SeedSequence([seed & 0x7FFFFFFFFFFFFFFF, *[s & 0x7FFFFFFFFFFFFFFF for s in streams]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])

