"""Goal phase oracle and the generalized amplitude-amplification iterate.

The iterate reflects about the state the preparation pipeline actually
produced (for a plain run that state is the superposition tree itself), so
the marked mass after k iterations follows sin^2((2k+1) asin(sqrt(a)))
exactly, whatever the amplitude profile. Non-constant branching only changes
a, never the two-dimensional rotation.

Cost is counted in phase-oracle applications, one per iterate: an O(1) update
of two coefficients in that plane. Each exponential-search round restarts the
same recurrence, so a round costs a table lookup: a run tabulates the
coefficients once, only up to the largest k drawn (at most sqrt(N) + 1
entries). ``amplify`` takes an unamplified ``PreparedTree``, plain or weighted
by earlier pruning stages, and returns one under the final coefficients: the
two norms are its root's class masses and a draw walks down the tree by them,
so no run builds rows. The dense oracle and
reflection that the tests compare against are in ``tests/reference.py``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem_model import MissingHeuristicError, ProblemSpec
from .statevector import LayoutMismatchError
from .tree_prep import PreparationPlan, PreparedTree

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
    """A prepared tree under the iterate, held as c_g psi_good + c_b psi_bad.

    psi_good and psi_bad are the tree on its marked rows and on the rest, with
    norms g2 and b2 taken from its class masses; the iterate keeps their plane,
    so it updates only the coefficients, and a draw walks down the class
    masses. No row is built.
    """

    def __init__(self, tree: PreparedTree, problem: ProblemSpec, predicate: MarkPredicate):
        # every live row holds exactly depth actions, so another context marks nothing
        on_rows = predicate.depth_context == tree.plan.depth
        self.tree = tree = tree.marking(
            (lambda s: predicate.holds_at(problem, s)) if on_rows else None
        )
        self.n_paths = tree.live if on_rows else 0
        self.m_marked = tree.marked_paths()
        _, self.g2, self.b2 = tree.masses()
        self.reset()

    def reset(self) -> None:
        self.c_g, self.c_b = 1.0, 1.0
        self.table = [(1.0, 1.0)]  # (c_g, c_b) after j iterates from the start, at j

    def restart(self, k: int) -> None:
        """Set the coefficients to those after k iterates from the start, the
        table extended by the recurrence only as far as the largest k asked."""
        while len(self.table) <= k:
            self.c_g, self.c_b = self.table[-1]
            self.iterate(1)
            self.table.append((self.c_g, self.c_b))
        self.c_g, self.c_b = self.table[k]

    def marked_mass(self) -> float:
        return self.c_g * self.c_g * self.g2

    def iterate(self, k: int) -> None:
        """Apply k iterates: oracle, then reflection about the starting state,
        2|psi><psi|/<psi|psi> - 1, so that a norm rounded off 1 does not drift."""
        c_g, c_b, g2, b2 = self.c_g, self.c_b, self.g2, self.b2
        if g2 + b2 > 0.0:
            g2, b2 = g2 / (g2 + b2), b2 / (g2 + b2)
        for _ in range(k):
            s = -c_g * g2 + c_b * b2  # <psi| oracle |state> / <psi|psi>
            c_g, c_b = 2 * s + c_g, 2 * s - c_b
        self.c_g, self.c_b = c_g, c_b

    def sample(self, rng: np.random.Generator) -> tuple[tuple[int, ...], int]:
        """Draw the row ``rng.choice(n, p=|amps|^2/sum)`` would, from the same
        one double, down the tree's class masses."""
        return self.tree.draw(rng.random(), self.c_g, self.c_b)

    def to_state(self) -> PreparedTree:
        return self.tree.weighted(self.c_g, self.c_b)


def amplify(
    x0: PreparedTree,
    plan: PreparationPlan,
    predicate: MarkPredicate,
    sched: AmplificationSchedule,
) -> tuple[PreparedTree, RunReport]:
    """Amplify the marked mass of ``x0`` per the schedule policy.

    ``x0`` is the unamplified prepared tree that the preparation pipeline
    produced, weighted by any earlier pruning stages; the iterate reflects
    about it. Anything else raises ``ValueError``. Policies:

    * fixed_optimal -- k = floor(pi/4theta) computed from the simulated marked
      mass (privileged access a physical device would not have).
    * explicit -- exactly ``sched.iterations`` iterates.
    * exponential_search -- unknown-M recipe: iterate counts drawn uniformly
      from a geometrically growing range, one measurement per round, classical
      validation of the sample, stop on success or exhausted query budget.
    """
    if x0.layout != plan.layout:
        raise LayoutMismatchError("state layout does not match the plan")
    if not isinstance(x0, PreparedTree) or not x0.c_g == x0.c_b == 1.0:
        raise ValueError(
            "amplify takes an unamplified prepared tree; rows and dense states are test references"
        )
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
        run.restart(k)
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
