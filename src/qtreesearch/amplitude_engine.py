"""Goal phase oracle and the generalized amplitude-amplification iterate.

The iterate reflects about the state the preparation pipeline actually
produced (for a plain run that state is the superposition tree itself), so
the marked mass after k iterations follows sin^2((2k+1) asin(sqrt(a)))
exactly, whatever the amplitude profile. Non-constant branching only changes
a, never the two-dimensional rotation.

Cost is counted in phase-oracle applications, one per iterate: an O(1) update
of two coefficients in that plane. An exponential-search round samples by
bisecting the cumulative masses of the marked and unmarked rows, so only the
returned state is rebuilt as a vector. ``apply_oracle`` and ``reflect_about``
are the dense reference, which tests compare against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem_model import MissingHeuristicError, ProblemSpec, enumerate_paths
from .statevector import LayoutMismatchError, TreeState, ZeroNormError
from .tree_prep import PreparationPlan

GOAL = "goal"
HEURISTIC_THRESHOLD = "heuristic_threshold"

POLICY_FIXED_OPTIMAL = "fixed_optimal"
POLICY_EXPLICIT = "explicit"
POLICY_EXPONENTIAL = "exponential_search"
GROWTH = 1.2  # exponential-search range growth, BBHT's lambda = 6/5


@dataclass(frozen=True)
class MarkPredicate:
    """Which configurations the phase oracle flips.

    ``depth_context`` is the prefix length whose node value is tested; frozen
    dead-end configurations are never marked, even when their node is a goal.
    """

    kind: str
    depth_context: int
    threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (GOAL, HEURISTIC_THRESHOLD):
            raise ValueError(f"unknown predicate kind {self.kind!r}")
        if self.depth_context < 0:
            raise ValueError("depth_context must be >= 0")

    @classmethod
    def goal_at(cls, depth: int) -> "MarkPredicate":
        return cls(kind=GOAL, depth_context=depth)

    @classmethod
    def threshold_at(cls, depth: int, threshold: float) -> "MarkPredicate":
        return cls(kind=HEURISTIC_THRESHOLD, depth_context=depth, threshold=threshold)

    def holds_at(self, problem: ProblemSpec, node: int) -> bool:
        """The test on the node value alone: a goal, or h at most the threshold."""
        if self.kind == GOAL:
            return node in problem.goals
        return problem.h(node) <= self.threshold

    def marks(self, problem: ProblemSpec, path: tuple[int, ...], node: int, dead: bool) -> bool:
        return not dead and len(path) == self.depth_context and self.holds_at(problem, node)

    def holds_classically(self, problem: ProblemSpec, path: tuple[int, ...]) -> bool:
        """Re-run the transitions and evaluate the predicate from scratch."""
        if len(path) != self.depth_context:
            return False
        terminal = problem.follow(tuple(path))
        return terminal is not None and self.holds_at(problem, terminal)


@dataclass(frozen=True)
class AmplificationSchedule:
    """Iteration-count policy plus the RNG seed and query budget for a run."""

    policy: str = POLICY_FIXED_OPTIMAL
    iterations: int = 0
    seed: int = 0
    max_oracle_queries: int = 10_000

    def __post_init__(self) -> None:
        if self.policy not in (POLICY_FIXED_OPTIMAL, POLICY_EXPLICIT, POLICY_EXPONENTIAL):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.iterations < 0:
            raise ValueError("explicit iteration count must be >= 0")
        if self.max_oracle_queries < 0:
            raise ValueError("query budget must be >= 0")


@dataclass(frozen=True)
class StageRecord:
    """Mass accounting for one pruning stage."""

    level: int
    threshold: float
    iterations: int
    oracle_queries: int
    mass_before: float
    mass_after: float
    skipped: bool = False


@dataclass(frozen=True)
class RunReport:
    n_paths: int
    m_marked: int
    initial_probability: float
    theta: float
    iterations: int
    oracle_queries: int
    predicted_probability: float
    measured_probability: float
    samples_drawn: int
    seed: int
    warnings: tuple[str, ...]
    paper_node_width: int
    node_width: int
    samples: tuple[tuple[tuple[int, ...], int], ...] = ()
    stages: tuple[StageRecord, ...] = ()


def apply_oracle(state: TreeState, problem: ProblemSpec, predicate: MarkPredicate) -> TreeState:
    """Dense reference oracle: flip the sign of every marked configuration."""
    vec = state.to_dense().vector.copy()
    for path, terminal, _ in enumerate_paths(problem, predicate.depth_context):
        if predicate.marks(problem, path, terminal, False):
            idx = state.layout.index_of(terminal, path)
            vec[idx] = -vec[idx]
    return TreeState(state.layout, "dense", vector=vec)


def reflect_about(state: TreeState, axis: TreeState) -> TreeState:
    """Dense reference reflection (2|axis><axis| - I) |state>; the layouts must match."""
    if state.layout != axis.layout:
        raise LayoutMismatchError("reflection axis has a different register layout")
    sv, av = state.to_dense().vector, axis.to_dense().vector
    return TreeState(state.layout, "dense", vector=2 * np.vdot(av, sv) * av - sv)


def optimal_iterations(a: float) -> int:
    """floor(pi / (4 asin(sqrt(a)))) for a in (0, 1/2); 0 at or above 1/2.

    A mass summed from path amplitudes can land a rounding error below 1/2
    (0.4999999999999999 on ``mislead`` at d=2), where one iterate would gain
    nothing, so 1/2 is compared with a 1e-12 tolerance.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError("initial success probability must lie in (0, 1]")
    if a >= 0.5 - 1e-12:
        return 0
    return int(math.pi / (4.0 * math.asin(math.sqrt(a))))


def predicted_mass(a: float, k: int) -> float:
    """Marked mass after k iterates from initial mass a: sin^2((2k+1) asin(sqrt(a)))."""
    theta = math.asin(math.sqrt(a))
    return math.sin((2 * k + 1) * theta) ** 2


class _RunArrays:
    """A structured state under the iterate, held as c_g psi_good + c_b psi_bad.

    psi_good and psi_bad are the starting state on the marked rows and on the
    rest, with norms g2 and b2; the iterate keeps their plane, so it updates
    only the coefficients, and a draw bisects the classes' cumulative masses.
    """

    def __init__(self, state: TreeState, problem: ProblemSpec, predicate: MarkPredicate):
        self.state = state
        self.axis = axis = state.amp
        d, width = predicate.depth_context, state.actions.shape[1]
        live = ~state.dead & (d <= width)  # d actions: column d-1 is set, column d is the pad
        if 0 < d <= width:
            live &= state.actions[:, d - 1] >= 0
        if d < width:
            live &= state.actions[:, d] < 0
        rows = np.flatnonzero(live)
        nodes = state.node[rows]
        holds = np.zeros(problem.n_states, dtype=bool)  # the predicate on each node present
        for s in np.flatnonzero(np.bincount(nodes, minlength=problem.n_states)).tolist():
            holds[s] = predicate.holds_at(problem, s)
        self.marked = rows[holds[nodes]]
        self.n_paths = int(rows.size)
        self.m_marked = int(self.marked.size)
        unmarked = np.ones(axis.size, dtype=bool)
        unmarked[self.marked] = False  # b2 is summed on its own rows, so it stays >= 0
        self.g2, self.b2 = (float(np.vdot(v, v).real) for v in (axis[self.marked], axis[unmarked]))
        self.cum = None  # (G, B): marked and unmarked |psi_j|^2 summed over rows j <= i
        self.reset()

    def reset(self) -> None:
        self.c_g, self.c_b = 1.0, 1.0

    def marked_mass(self) -> float:
        return self.c_g * self.c_g * self.g2

    def iterate(self, k: int) -> None:
        """Apply k iterates: oracle, then reflection about the starting state."""
        c_g, c_b, g2, b2 = self.c_g, self.c_b, self.g2, self.b2
        for _ in range(k):
            s = -c_g * g2 + c_b * b2  # <psi| oracle |state>
            c_g, c_b = 2 * s + c_g, 2 * s - c_b
        self.c_g, self.c_b = c_g, c_b

    def sample(self, rng: np.random.Generator) -> tuple[tuple[int, ...], int]:
        """Draw the row ``rng.choice(n, p=|amps|^2/sum)`` would, from the same
        one double, by bisecting the cumulative masses in O(log n)."""
        if self.cum is None:
            w = np.abs(self.axis) ** 2
            g = np.zeros_like(w)
            g[self.marked] = w[self.marked]
            w[self.marked] = 0.0
            # a memoryview indexes to Python floats, which the loop below adds fastest
            self.cum = memoryview(np.cumsum(g, out=g)), memoryview(np.cumsum(w, out=w))
        cum_g, cum_b = self.cum
        wg, wb = self.c_g * self.c_g, self.c_b * self.c_b
        lo, hi = 0, len(cum_g) - 1
        total = wg * cum_g[hi] + wb * cum_b[hi]
        if not total > 0.0:  # zero or NaN, which choice rejects too
            raise ZeroNormError("cannot sample from a zero-norm state")
        target = rng.random() * total
        while lo < hi:
            mid = (lo + hi) // 2
            if wg * cum_g[mid] + wb * cum_b[mid] > target:
                hi = mid
            else:
                lo = mid + 1
        return self.state.path(lo), int(self.state.node[lo])

    def to_state(self) -> TreeState:
        self.cum = None  # the rebuilt vector takes their room
        s, amps = self.state, self.axis
        if not self.c_g == self.c_b == 1.0:  # no iterate since reset; states never write amp
            amps = self.axis * self.c_b
            amps[self.marked] = self.axis[self.marked] * self.c_g
        return TreeState.from_arrays(s.layout, s.actions, s.node, amps, s.dead)


def amplify(
    x0: TreeState,
    plan: PreparationPlan,
    predicate: MarkPredicate,
    sched: AmplificationSchedule,
) -> tuple[TreeState, RunReport]:
    """Amplify the marked mass of ``x0`` per the schedule policy.

    ``x0`` is taken to be the output of the preparation pipeline, in structured
    mode; the iterate reflects about it. Policies:

    * fixed_optimal -- k = floor(pi/4theta) computed from the simulated marked
      mass (privileged access a physical device would not have).
    * explicit -- exactly ``sched.iterations`` iterates.
    * exponential_search -- unknown-M recipe: iterate counts drawn uniformly
      from a geometrically growing range, one measurement per round, classical
      validation of the sample, stop on success or exhausted query budget.
    """
    if x0.layout != plan.layout:
        raise LayoutMismatchError("state layout does not match the plan")
    if x0.mode != "structured":
        raise ValueError("amplify takes a structured state; dense mode is a test reference")
    if predicate.kind == HEURISTIC_THRESHOLD and plan.problem.heuristic is None:
        raise MissingHeuristicError("threshold predicate needs heuristic values")
    run = _RunArrays(x0, plan.problem, predicate)
    queries = 0
    warnings: list[str] = []
    a = min(run.marked_mass(), 1.0)  # a summed mass can land an ulp above 1
    theta = math.asin(math.sqrt(a))

    def report(samples, predicted: float) -> RunReport:
        return RunReport(
            n_paths=run.n_paths,
            m_marked=run.m_marked,
            initial_probability=a,
            theta=theta,
            iterations=queries,  # one oracle query per iterate
            oracle_queries=queries,
            predicted_probability=predicted,
            measured_probability=run.marked_mass(),
            samples_drawn=len(samples),
            seed=sched.seed,
            warnings=tuple(warnings),
            paper_node_width=plan.layout.paper_node_width,
            node_width=plan.layout.node_width,
            samples=tuple(samples),
        )

    if sched.policy != POLICY_EXPONENTIAL:
        if sched.policy == POLICY_EXPLICIT:
            k = sched.iterations
        elif a == 0.0:
            warnings.append("no_marked_configurations")
            return run.to_state(), report((), 0.0)
        else:
            k = optimal_iterations(a)
            if k == 0:
                warnings.append("single_measurement_sufficient")
        run.iterate(k)
        queries = k
        return run.to_state(), report((), predicted_mass(a, k))

    # exponential_search
    rng = np.random.default_rng(sched.seed)
    sqrt_n = math.sqrt(max(run.n_paths, 1))
    # zero-iterate rounds cost no oracle queries, so a round cap is needed to
    # terminate on unsolvable instances; it is far above any plausible success time
    max_rounds = 64 + 4 * int(sqrt_n)
    m = 1.0
    samples: list[tuple[tuple[int, ...], int]] = []
    last_k = 0
    for _ in range(max_rounds):
        k = int(rng.integers(0, max(int(m), 1)))
        if queries + k > sched.max_oracle_queries:
            warnings.append("budget_exhausted")
            break
        run.reset()
        run.iterate(k)
        queries += k
        last_k = k
        path, node = run.sample(rng)
        samples.append((path, node))
        if predicate.holds_classically(plan.problem, path):
            return run.to_state(), report(samples, predicted_mass(a, k))
        m = min(GROWTH * m, sqrt_n)
        if queries >= sched.max_oracle_queries:
            warnings.append("budget_exhausted")
            break
    else:
        warnings.append("round_limit_reached")
    return run.to_state(), report(samples, predicted_mass(a, last_k))
