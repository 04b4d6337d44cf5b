"""Goal phase oracle and the generalized amplitude-amplification iterate.

The iterate reflects about the state the preparation pipeline actually
produced (for a plain run that state is the superposition tree itself), so
the marked mass after k iterations follows sin^2((2k+1) asin(sqrt(a)))
exactly, whatever the amplitude profile. Non-constant branching only changes
a, never the two-dimensional rotation.

Cost is counted in phase-oracle applications, one per iterate. ``amplify``
runs the iterate on the structured state; ``apply_oracle`` and
``reflect_about`` are its dense reference, which tests compare against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem_model import MissingHeuristicError, ProblemSpec, enumerate_paths
from .statevector import Entry, LayoutMismatchError, TreeState
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

    def marks(self, problem: ProblemSpec, path: tuple[int, ...], node: int, dead: bool) -> bool:
        if dead or len(path) != self.depth_context:
            return False
        if self.kind == GOAL:
            return node in problem.goals
        return problem.h(node) <= self.threshold

    def holds_classically(self, problem: ProblemSpec, path: tuple[int, ...]) -> bool:
        """Re-run the transitions and evaluate the predicate from scratch."""
        if len(path) != self.depth_context:
            return False
        terminal = problem.follow(tuple(path))
        if terminal is None:
            return False
        if self.kind == GOAL:
            return terminal in problem.goals
        return problem.h(terminal) <= self.threshold


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
    """Aligned-array view of a state for fast iterate application.

    The iterate (oracle then reflection about the starting state) never
    changes the support, so amplitudes can live in one complex vector.
    """

    def __init__(self, state: TreeState, problem: ProblemSpec, predicate: MarkPredicate):
        self.layout = state.layout
        items = state.sorted_entries()
        self.keys = [p for p, _ in items]
        self.nodes = [e.node for _, e in items]
        self.dead = [e.dead for _, e in items]
        self.axis = np.array([e.amp for _, e in items], dtype=np.complex128)
        self.marked = np.array(
            [i for i, (p, e) in enumerate(items) if predicate.marks(problem, p, e.node, e.dead)],
            dtype=np.intp,
        )
        self.n_paths = sum(
            1 for p, e in items if not e.dead and len(p) == predicate.depth_context
        )
        self.m_marked = int(self.marked.size)
        self.amps = self.axis.copy()

    def reset(self) -> None:
        self.amps = self.axis.copy()

    def marked_mass(self) -> float:
        if self.m_marked == 0:
            return 0.0
        chunk = self.amps[self.marked]
        return float(np.vdot(chunk, chunk).real)

    def iterate(self, k: int) -> None:
        """Apply k iterates: oracle, then reflection about the starting state."""
        for _ in range(k):
            self.amps[self.marked] = -self.amps[self.marked]
            alpha = np.vdot(self.axis, self.amps)
            self.amps = 2 * alpha * self.axis - self.amps

    def sample(self, rng: np.random.Generator) -> tuple[tuple[int, ...], int]:
        probs = np.abs(self.amps) ** 2
        probs /= probs.sum()
        i = int(rng.choice(len(probs), p=probs))
        return self.keys[i], self.nodes[i]

    def to_state(self) -> TreeState:
        entries = {
            p: Entry(complex(self.amps[i]), self.nodes[i], self.dead[i])
            for i, p in enumerate(self.keys)
        }
        return TreeState(self.layout, "structured", entries=entries)


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
    a = run.marked_mass()
    theta = math.asin(math.sqrt(min(a, 1.0)))

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

    if sched.policy == POLICY_FIXED_OPTIMAL:
        if a == 0.0:
            warnings.append("no_marked_configurations")
            return run.to_state(), report((), 0.0)
        k = optimal_iterations(min(a, 1.0))
        if k == 0:
            warnings.append("single_measurement_sufficient")
        run.iterate(k)
        queries = k
        return run.to_state(), report((), predicted_mass(a, k))

    if sched.policy == POLICY_EXPLICIT:
        k = sched.iterations
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
