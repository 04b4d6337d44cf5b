"""Complex-amplitude state over the joint node (x) action-path register.

Two representations are kept deliberately:

* structured -- one amplitude per admissible path prefix. The node value and
  a dead flag are stored alongside each prefix; configurations that are not
  admissible prefixes implicitly hold amplitude zero.
* dense -- the full 2**total_width complex vector, the test reference: it
  checks that the structured bookkeeping is faithful rather than assuming it,
  and inner products, the oracle and the reflection are defined on it alone.

Register convention for dense indices: the node register occupies the most
significant bits, followed by the level-0 action register down to the
level-(d-1) register. Sampling uses numpy's PCG64 generator; every sample
sequence is reproducible from the integer seed that reports record.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

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
    """Mutable-by-replacement state container; operators return fresh states."""

    __slots__ = ("layout", "mode", "entries", "vector")

    def __init__(
        self,
        layout: RegisterLayout,
        mode: str = "structured",
        entries: dict[tuple[int, ...], Entry] | None = None,
        vector: np.ndarray | None = None,
    ):
        if mode not in ("structured", "dense"):
            raise ValueError(f"unknown mode {mode!r}")
        self.layout = layout
        self.mode = mode
        self.entries = entries if entries is not None else {}
        self.vector = vector

    def norm_sq(self) -> float:
        if self.mode == "dense":
            return float(np.vdot(self.vector, self.vector).real)
        return sum(abs(e.amp) ** 2 for e in self.entries.values())

    def sorted_entries(self) -> list[tuple[tuple[int, ...], Entry]]:
        return sorted(self.entries.items())

    def to_dense(self) -> "TreeState":
        """Materialize the full joint-register vector (structured metadata suffices)."""
        if self.mode == "dense":
            return self
        if self.layout.total_width > _DENSE_WIDTH_CAP:
            raise ValueError(
                f"refusing dense vector of 2**{self.layout.total_width} amplitudes"
            )
        vec = np.zeros(1 << self.layout.total_width, dtype=np.complex128)
        for path, entry in self.entries.items():
            vec[self.layout.index_of(entry.node, path)] = entry.amp
        return TreeState(self.layout, "dense", vector=vec)


def init_ground(layout: RegisterLayout, root: int, mode: str = "structured") -> TreeState:
    """All registers in the ground value: amplitude 1 on the empty prefix at the root."""
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
    items = dense_entries(state, problem)
    probs = np.array([abs(e.amp) ** 2 for _, e in items], dtype=float)
    total = probs.sum()
    if total <= 0.0:
        raise ZeroNormError("cannot sample from a zero-norm state")
    probs /= total
    picks = rng.choice(len(items), size=samples, p=probs)
    return [(items[i][0], items[i][1].node) for i in picks]


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

