"""Goal phase oracle and the generalized amplitude-amplification iterate.

The iterate reflects about the state the preparation pipeline actually
produced (for a plain run that state is the superposition tree itself), so
the marked mass after k iterations follows sin^2((2k+1) asin(sqrt(a)))
exactly, whatever the amplitude profile. Non-constant branching only changes
a, never the two-dimensional rotation.

Cost is counted in phase-oracle applications, one per iterate. Each iterate
turns the state in that plane by twice the start's angle t, so the two
coefficients after k iterates have a closed form (BHMT, quant-ph/0005055,
Lemma 1), and any k, for any policy and any exponential-search round, costs
O(1) to set.
``amplify`` takes an unamplified ``PreparedTree``, plain or weighted by
earlier pruning stages, and returns one under the final coefficients: the
two norms are its root's class masses and a draw walks down the tree by them,
so no run builds rows. The dense oracle and reflection that the tests compare
against are in ``tests/reference.py``.
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
        if self.iterations >= 2**52:  # 2k+1 must stay an exact double in the phase
            raise ValueError("iteration count must be below 2**52")
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
    norms g2 and b2 taken from its class masses. The iterate keeps their plane
    and turns the state in it by 2t, where t = atan2(sqrt(g2), sqrt(b2)) is the
    start's angle from psi_bad, so ``rotate`` sets the coefficients after any k
    iterates at once, and a draw walks down the class masses. No row is built.
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
        self.t = math.atan2(math.sqrt(self.g2), math.sqrt(self.b2))
        self.sin_t, self.cos_t = math.sin(self.t), math.cos(self.t)
        self.c_g, self.c_b = 1.0, 1.0

    def rotate(self, k: int) -> None:
        """Set the coefficients to those after k iterates from the start, each
        the oracle and then the reflection 2|psi><psi|/<psi|psi> - 1 about it:
        c_g = sin((2k+1)t)/sin t, or its limit 2k+1 when nothing is marked, and
        c_b = cos((2k+1)t)/cos t. The phase (2k+1)t carries a rounding error
        of about (2k+1)*t*2**-53: it grows with the angle turned, and the
        cost is the same for every k."""
        phase = (2 * k + 1) * self.t
        self.c_g = math.sin(phase) / self.sin_t if self.sin_t else 2.0 * k + 1.0
        self.c_b = math.cos(phase) / self.cos_t

    def marked_mass(self) -> float:
        return self.c_g * self.c_g * self.g2

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

    def report(samples, predicted: float) -> RunReport:
        return RunReport(
            n_paths=run.n_paths,
            m_marked=run.m_marked,
            initial_probability=a,
            theta=run.t,
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
        run.rotate(k)
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
        run.rotate(k)
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
