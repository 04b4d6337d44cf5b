import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from qtreesearch import (
    AmplificationSchedule,
    MarkPredicate,
    MissingHeuristicError,
    PipelinePlan,
    PreparationPlan,
    ProblemSpec,
    PruningStage,
    amplify,
    enumerate_paths,
    iterative_deepening_search,
    measure_paths,
    optimal_iterations,
    path_amplitude,
    predicted_mass,
    prepare_tree_state,
    pruned_pipeline,
    uninformed_search,
    write_problem,
    ZeroNormError,
)
from qtreesearch.amplitude_engine import _RunArrays
from qtreesearch.generators import grid_problem, needle_problem
from qtreesearch.statevector import TreeState
from qtreesearch.tree_prep import PreparedTree
from reference import apply_oracle, dense_entries, inner_product, reflect_about, scale_classes, to_dense
from conftest import DEFAULT_DEPTHS, cli_invoke, connected_problems, fixture_path, load_fixture


def brute_force_goal_mass(problem, depth) -> float:
    """Independent oracle: marked mass from path enumeration and the product formula."""
    return sum(
        path_amplitude(problem, path) ** 2
        for path, _, is_goal in enumerate_paths(problem, depth)
        if is_goal
    )


def amp_at(dense, prepared, path) -> complex:
    """Amplitude of a dense state at ``path`` and the node ``prepared`` holds there."""
    return dense.vector[reference.index_of(dense.layout, prepared.entries[path].node, path)]


def dense_iterates(state, axis, problem, predicate, k):
    """k dense reference iterates: the oracle, then the reflection about ``axis``."""
    for _ in range(k):
        state = reflect_about(apply_oracle(state, problem, predicate), axis)
    return state


def max_deviation(structured, dense) -> float:
    return float(np.max(np.abs(to_dense(structured).vector - dense.vector)))


def marked_mass(state, problem, predicate) -> float:
    return sum(
        abs(e.amp) ** 2
        for p, e in state.entries.items()
        if predicate.marks(problem, p, e.node, e.dead)
    )


# -- oracle ------------------------------------------------------------------

def test_oracle_flips_only_goal(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan)
    flipped = apply_oracle(psi, binary7, MarkPredicate.goal_at(2))
    assert amp_at(flipped, psi, (0, 1)) == pytest.approx(-0.5, abs=1e-15)
    for path in [(0, 0), (1, 0), (1, 1)]:
        assert amp_at(flipped, psi, path) == pytest.approx(0.5, abs=1e-15)


def test_oracle_no_marks_is_identity():
    p = load_fixture("goalless")
    plan = PreparationPlan.for_problem(p, 2)
    psi = prepare_tree_state(plan)
    same = apply_oracle(psi, p, MarkPredicate.goal_at(2))
    assert np.array_equal(same.vector, to_dense(psi).vector)


def test_oracle_all_marked_is_global_phase():
    # every depth-4 path of the chain ends at the goal
    p = load_fixture("chain4")
    plan = PreparationPlan.for_problem(p, 4)
    psi = prepare_tree_state(plan)
    flipped = apply_oracle(psi, p, MarkPredicate.goal_at(4))
    assert inner_product(psi, flipped) == pytest.approx(-1.0, abs=1e-12)


def test_oracle_ignores_dead_goal_nodes():
    p = load_fixture("deadend")  # the frozen branch ends at a goal state
    plan = PreparationPlan.for_problem(p, 2)
    psi = prepare_tree_state(plan)
    flipped = apply_oracle(psi, p, MarkPredicate.goal_at(2))
    assert amp_at(flipped, psi, (1,)) == psi.entries[(1,)].amp  # not flipped
    assert amp_at(flipped, psi, (0, 1)) == -psi.entries[(0, 1)].amp


def test_oracle_dense_structured_agree(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    pred = MarkPredicate.goal_at(2)
    structured = apply_oracle(prepare_tree_state(plan), binary7, pred)
    dense = apply_oracle(reference.prepare(plan), binary7, pred)
    assert np.max(np.abs(to_dense(structured).vector - dense.vector)) <= 1e-12


def test_threshold_predicate_needs_heuristic(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan)
    sched = AmplificationSchedule(policy="explicit", iterations=1)
    with pytest.raises(MissingHeuristicError):
        amplify(psi, plan, MarkPredicate.threshold_at(2, 1.0), sched)


# -- reflection ---------------------------------------------------------------

def test_reflection_fixes_prepared_state(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan)
    reflected = reflect_about(psi, prepare_tree_state(plan))
    assert inner_product(psi, reflected) == pytest.approx(1.0, abs=1e-12)
    for p, e in psi.entries.items():
        assert amp_at(reflected, psi, p) == pytest.approx(e.amp, abs=1e-12)


def test_reflection_negates_orthogonal_states(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan)
    # orthogonal combination on the same support: (|00> - |01>)/sqrt(2)
    amps = {(0, 0): 1 / math.sqrt(2), (0, 1): -1 / math.sqrt(2)}
    x = TreeState(
        psi.layout, entries={p: e._replace(amp=amps.get(p, 0j)) for p, e in psi.entries.items()}
    )
    assert abs(inner_product(psi, x)) <= 1e-15
    reflected = reflect_about(x, psi)
    for p, e in x.entries.items():
        assert amp_at(reflected, x, p) == pytest.approx(-e.amp, abs=1e-12)


def test_one_iterate_reaches_certainty(binary7):
    # uniform 4-path state with one mark: oracle + reflection puts all mass on it
    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan)
    pred = MarkPredicate.goal_at(2)
    state = reflect_about(apply_oracle(psi, binary7, pred), prepare_tree_state(plan))
    assert abs(amp_at(state, psi, (0, 1))) == pytest.approx(1.0, abs=1e-12)
    for path in [(0, 0), (1, 0), (1, 1)]:
        assert abs(amp_at(state, psi, path)) <= 1e-12


def test_reflection_preserves_inner_products(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan)
    rng = np.random.default_rng(0)
    keys = sorted(psi.entries)

    def random_state():
        amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
        amps /= np.linalg.norm(amps)
        return TreeState(
            psi.layout,
            entries={p: psi.entries[p]._replace(amp=complex(a)) for p, a in zip(keys, amps)},
        )

    for _ in range(5):
        x, y = random_state(), random_state()
        rx, ry = reflect_about(x, psi), reflect_about(y, psi)
        assert inner_product(rx, ry) == pytest.approx(inner_product(x, y), abs=1e-12)


# -- amplify: fixed_optimal and explicit --------------------------------------

def test_everything_marked_needs_no_iterations():
    p = load_fixture("chain4")
    plan = PreparationPlan.for_problem(p, 4)
    psi = prepare_tree_state(plan)
    final, report = amplify(psi, plan, MarkPredicate.goal_at(4), AmplificationSchedule())
    assert report.iterations == 0
    assert report.oracle_queries == 0
    assert "single_measurement_sufficient" in report.warnings
    assert final.entries == psi.entries


@pytest.mark.parametrize("stem,depth", [("mislead", 2), ("deadend", 1)])
def test_half_mass_rounded_below_one_half_needs_no_iterations(stem, depth):
    # the summed goal mass is 0.4999999999999999 here, not 1/2
    p = load_fixture(stem)
    plan = PreparationPlan.for_problem(p, depth)
    psi = prepare_tree_state(plan)
    _, report = amplify(psi, plan, MarkPredicate.goal_at(depth), AmplificationSchedule())
    assert report.initial_probability == pytest.approx(0.5, abs=1e-12)
    assert report.iterations == 0
    assert report.oracle_queries == 0
    assert "single_measurement_sufficient" in report.warnings


def test_no_marks_reports_without_looping():
    p = load_fixture("goalless")
    plan = PreparationPlan.for_problem(p, 2)
    psi = prepare_tree_state(plan)
    final, report = amplify(psi, plan, MarkPredicate.goal_at(2), AmplificationSchedule())
    assert report.initial_probability == 0.0
    assert report.iterations == 0
    assert "no_marked_configurations" in report.warnings


def test_uniform_four_paths_single_mark(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan)
    final, report = amplify(psi, plan, MarkPredicate.goal_at(2), AmplificationSchedule(seed=5))
    assert report.initial_probability == pytest.approx(0.25, abs=1e-12)
    assert report.theta == pytest.approx(math.pi / 6, abs=1e-12)
    assert report.iterations == 1
    assert report.predicted_probability == pytest.approx(1.0, abs=1e-12)
    assert report.measured_probability == pytest.approx(1.0, abs=1e-12)
    assert abs(report.predicted_probability - report.measured_probability) <= 1e-9


def test_nonconstant_fixture_closed_form(nonconst5):
    # independent oracle: brute-force a, then the closed form by hand
    depth = 2
    a = brute_force_goal_mass(nonconst5, depth)
    assert a == pytest.approx(1 / 6, abs=1e-15)
    theta = math.asin(math.sqrt(a))
    k = math.floor(math.pi / (4 * theta))
    assert k == 1
    expected = math.sin(3 * theta) ** 2
    assert expected == pytest.approx(49 / 54, abs=1e-12)

    plan = PreparationPlan.for_problem(nonconst5, depth)
    psi = prepare_tree_state(plan)
    final, report = amplify(psi, plan, MarkPredicate.goal_at(depth), AmplificationSchedule())
    assert report.iterations == 1
    assert report.measured_probability == pytest.approx(expected, abs=1e-9)


def test_explicit_policy_counts_queries(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan)
    for k in range(5):
        sched = AmplificationSchedule(policy="explicit", iterations=k)
        _, report = amplify(psi, plan, MarkPredicate.goal_at(2), sched)
        assert report.oracle_queries == k
        assert report.iterations == k


def test_amplify_matches_manual_iterates(nonconst5):
    plan = PreparationPlan.for_problem(nonconst5, 2)
    pred = MarkPredicate.goal_at(2)
    psi = prepare_tree_state(plan)
    axis = reference.prepare(plan)
    manual = axis
    for k in range(4):
        sched = AmplificationSchedule(policy="explicit", iterations=k)
        fast, _ = amplify(psi, plan, pred, sched)
        assert np.max(np.abs(to_dense(fast).vector - manual.vector)) <= 1e-12
        manual = reflect_about(apply_oracle(manual, nonconst5, pred), axis)


@pytest.mark.parametrize("stem", ["binary7", "nonconst5", "deadend", "quad21", "comb6", "grid4"])
def test_two_dimensional_dynamics(stem):
    problem = load_fixture(stem)
    depth = DEFAULT_DEPTHS[stem]
    a = brute_force_goal_mass(problem, depth)
    plan = PreparationPlan.for_problem(problem, depth)
    pred = MarkPredicate.goal_at(depth)
    psi = prepare_tree_state(plan)
    theta = math.asin(math.sqrt(a))
    k_opt = optimal_iterations(a) if a > 0 else 0
    for k in range(0, 3 * k_opt + 2):
        _, report = amplify(psi, plan, pred, AmplificationSchedule(policy="explicit", iterations=k))
        assert report.measured_probability == pytest.approx(
            math.sin((2 * k + 1) * theta) ** 2, abs=1e-9
        ), (stem, k)


def test_monotone_amplification_below_overshoot():
    problem = load_fixture("quad21")  # a = 1/16
    plan = PreparationPlan.for_problem(problem, 2)
    psi = prepare_tree_state(plan)
    pred = MarkPredicate.goal_at(2)
    a = brute_force_goal_mass(problem, 2)
    masses = []
    for k in range(optimal_iterations(a) + 1):
        _, report = amplify(psi, plan, pred, AmplificationSchedule(policy="explicit", iterations=k))
        masses.append(report.measured_probability)
    assert all(b > a for a, b in zip(masses, masses[1:]))


def test_quadratic_scaling_smoke():
    for depth in range(4, 9):
        problem = needle_problem(depth)
        plan = PreparationPlan.for_problem(problem, depth)
        psi = prepare_tree_state(plan)
        _, report = amplify(psi, plan, MarkPredicate.goal_at(depth), AmplificationSchedule())
        n = 2**depth
        assert report.n_paths == n
        assert report.iterations == round(math.pi / 4 * math.sqrt(n) - 0.5)


# -- amplify: exponential search ----------------------------------------------

def test_exponential_search_finds_needle():
    problem = needle_problem(6)
    plan = PreparationPlan.for_problem(problem, 6)
    psi = prepare_tree_state(plan)
    sched = AmplificationSchedule(policy="exponential_search", seed=42, max_oracle_queries=1000)
    final, report = amplify(psi, plan, MarkPredicate.goal_at(6), sched)
    assert report.samples  # at least one measurement
    path, node = report.samples[-1]
    assert problem.follow(path) in problem.goals
    assert report.oracle_queries == report.iterations  # sum of per-round k values
    assert report.oracle_queries <= 1000


def test_exponential_search_exhausts_budget_without_goals():
    p = load_fixture("goalless")
    plan = PreparationPlan.for_problem(p, 2)
    psi = prepare_tree_state(plan)
    sched = AmplificationSchedule(policy="exponential_search", seed=3, max_oracle_queries=25)
    _, report = amplify(psi, plan, MarkPredicate.goal_at(2), sched)
    assert "budget_exhausted" in report.warnings
    assert report.oracle_queries <= 25


def test_exponential_search_terminates_on_single_path():
    # N = 1 keeps every round at k = 0; the round cap must stop the loop
    import dataclasses

    p = dataclasses.replace(
        load_fixture("chain4"), heuristic={i: 1.0 for i in range(5)}
    )
    plan = PreparationPlan.for_problem(p, 4)
    psi = prepare_tree_state(plan)
    pred = MarkPredicate.threshold_at(4, 0.5)  # marks nothing (all h = 1)
    sched = AmplificationSchedule(policy="exponential_search", seed=1, max_oracle_queries=50)
    _, report = amplify(psi, plan, pred, sched)
    assert "round_limit_reached" in report.warnings or "budget_exhausted" in report.warnings


def test_exponential_search_deterministic_per_seed():
    problem = needle_problem(5)
    plan = PreparationPlan.for_problem(problem, 5)
    psi = prepare_tree_state(plan)
    pred = MarkPredicate.goal_at(5)
    r1 = amplify(psi, plan, pred, AmplificationSchedule(policy="exponential_search", seed=9))[1]
    r2 = amplify(psi, plan, pred, AmplificationSchedule(policy="exponential_search", seed=9))[1]
    assert r1 == r2
    assert r1.samples == r2.samples


def test_exponential_search_mean_queries_bounded():
    # smoke version of the Boyer-style bound; the acceptance suite sweeps 200 seeds
    problem = needle_problem(6)  # N = 64, M = 1
    plan = PreparationPlan.for_problem(problem, 6)
    psi = prepare_tree_state(plan)
    pred = MarkPredicate.goal_at(6)
    queries = []
    successes = 0
    for seed in range(40):
        sched = AmplificationSchedule(policy="exponential_search", seed=seed, max_oracle_queries=1000)
        _, report = amplify(psi, plan, pred, sched)
        queries.append(report.oracle_queries)
        path, _ = report.samples[-1]
        successes += problem.follow(path) in problem.goals
    assert successes >= 38
    assert sum(queries) / len(queries) <= 9 * math.sqrt(64)


def test_norm_preserved_through_iterates():
    for stem in ["binary7", "nonconst5", "deadend", "grid4"]:
        problem = load_fixture(stem)
        depth = DEFAULT_DEPTHS[stem]
        plan = PreparationPlan.for_problem(problem, depth)
        psi = prepare_tree_state(plan)
        for k in (1, 2, 5):
            sched = AmplificationSchedule(policy="explicit", iterations=k)
            final, _ = amplify(psi, plan, MarkPredicate.goal_at(depth), sched)
            assert abs(final.norm_sq() - 1.0) <= 1e-12, (stem, k)


def test_amplify_dense_matches_structured(nonconst5):
    # reference: two dense (oracle; reflection about the dense prepared state) steps
    plan = PreparationPlan.for_problem(nonconst5, 2)
    pred = MarkPredicate.goal_at(2)
    sched = AmplificationSchedule(policy="explicit", iterations=2)
    s_final, s_report = amplify(prepare_tree_state(plan), plan, pred, sched)
    axis = reference.prepare(plan)
    d_final = axis
    for _ in range(2):
        d_final = reflect_about(apply_oracle(d_final, nonconst5, pred), axis)
    assert np.max(np.abs(to_dense(s_final).vector - d_final.vector)) <= 1e-12
    d_mass = sum(
        abs(e.amp) ** 2
        for p, e in dense_entries(d_final, nonconst5)
        if pred.marks(nonconst5, p, e.node, e.dead)
    )
    assert s_report.measured_probability == pytest.approx(d_mass, abs=1e-12)
    assert s_report.n_paths == len(enumerate_paths(nonconst5, 2))


# -- the two-plane iterate against the dense reference --------------------------

@st.composite
def search_cases(draw):
    """A random problem and depth, or a needle at its own depth: its marked mass
    is small, so the later rounds of an exponential search run k > 0 iterates."""
    if draw(st.booleans()):
        depth = draw(st.integers(3, 5))
        return needle_problem(depth, draw(st.integers(2, 3))), depth
    return draw(connected_problems()), draw(st.integers(0, 4))


@settings(max_examples=50, deadline=None)
@given(
    problem=connected_problems(),
    depth=st.integers(0, 4),
    threshold=st.sampled_from([None, 0.0, 1.0]),
)
def test_explicit_iterates_match_dense_reference(problem, depth, threshold):
    plan = PreparationPlan.for_problem(problem, depth)
    if threshold is None:
        pred = MarkPredicate.goal_at(depth)
    else:
        pred = MarkPredicate.threshold_at(depth, threshold)
    psi = prepare_tree_state(plan)
    axis = reference.prepare(plan)
    dense = axis
    for k in range(12):
        sched = AmplificationSchedule(policy="explicit", iterations=k)
        final, report = amplify(psi, plan, pred, sched)
        assert max_deviation(final, dense) <= 1e-12, k
        assert report.measured_probability == pytest.approx(
            marked_mass(final, problem, pred), abs=1e-12
        )
        dense = dense_iterates(dense, axis, problem, pred, 1)


@settings(max_examples=50, deadline=None)
@given(
    problem=connected_problems(),
    depth=st.integers(1, 4),
    data=st.data(),
)
def test_pruned_pipeline_matches_dense_reference(problem, depth, data):
    levels = data.draw(st.lists(st.integers(0, depth - 1), max_size=3, unique=True))
    stages = tuple(
        PruningStage(
            level=level,
            threshold=data.draw(st.sampled_from([0.0, 1.0, 2.0])),
            iterations=data.draw(st.integers(0, 4)),
        )
        for level in sorted(levels)
    )
    k = data.draw(st.integers(0, 4))
    terminal = AmplificationSchedule(policy="explicit", iterations=k)
    final, _ = pruned_pipeline(PipelinePlan(problem, depth, stages, terminal), seed=0)
    assert max_deviation(final, dense_pipeline(problem, depth, stages, k)) <= 1e-12


def dense_pipeline(problem, depth, stages, k):
    """The pruning pipeline on dense states, with k terminal goal iterates; a
    stage that marks nothing leaves the state as it is."""
    layout = PreparationPlan.for_problem(problem, depth).layout
    state = reference.init_ground(layout, problem.root)
    at = {stage.level: stage for stage in stages}
    for level in range(depth):
        if level in at:
            pred = MarkPredicate.threshold_at(level, at[level].threshold)
            state = dense_iterates(state, state, problem, pred, at[level].iterations)
        state = reference.apply_action_superposition(state, problem, level)
        state = reference.apply_transition(state, problem, level)
    return dense_iterates(state, state, problem, MarkPredicate.goal_at(depth), k)


def test_pipeline_weights_dead_ends_under_every_stage():
    # r -a-> x, a dead end at level 1 that the level-1 stage leaves unmarked;
    # r -b-> m, which it marks; r -c-> y. The level-2 stage marks n alone, and
    # x, frozen before it, takes its unmarked factor too.
    problem = ProblemSpec(
        name="frozen",
        states=("r", "x", "m", "y", "n", "n2", "g"),
        actions=("a", "b", "c"),
        transition={(0, 0): 1, (0, 1): 2, (0, 2): 3, (2, 0): 4, (2, 1): 5, (3, 0): 6, (4, 0): 6},
        root=0,
        goals=frozenset({6}),
        heuristic={0: 2.0, 1: 2.0, 2: 0.0, 3: 2.0, 4: 0.0, 5: 2.0, 6: 2.0},
    ).validate()
    stages = (PruningStage(1, 0.0, 1), PruningStage(2, 0.0, 1))
    terminal = AmplificationSchedule(policy="explicit", iterations=1)
    final, report = pruned_pipeline(PipelinePlan(problem, 3, stages, terminal), seed=0)
    assert [r.mass_before for r in report.stages] == pytest.approx([1 / 3, 0.5 * 25 / 27])
    assert not any(r.skipped for r in report.stages)
    dense = dense_pipeline(problem, 3, stages, 1)
    assert max_deviation(final, dense) <= 1e-12
    # the norm and the terminal masses come from the weighted class masses alone
    assert final.norm_sq() == pytest.approx(1.0, abs=1e-12)
    goal = MarkPredicate.goal_at(3)
    assert report.measured_probability == pytest.approx(marked_mass(final, problem, goal), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(case=search_cases(), seed=st.integers(0, 2**16))
def test_exponential_search_matches_dense_reference(case, seed):
    problem, depth = case
    plan = PreparationPlan.for_problem(problem, depth)
    pred = MarkPredicate.goal_at(depth)
    rounds = []  # (k, state after the k iterates) of each round, as the engine runs it
    restart = _RunArrays.restart

    def spy(run, k):
        restart(run, k)
        rounds.append((k, run.to_state()))

    _RunArrays.restart = spy
    try:
        sched = AmplificationSchedule(policy="exponential_search", seed=seed, max_oracle_queries=40)
        final, report = amplify(prepare_tree_state(plan), plan, pred, sched)
    finally:
        _RunArrays.restart = restart
    assert sum(k for k, _ in rounds) == report.iterations == report.oracle_queries
    axis = reference.prepare(plan)
    for k, state in rounds:
        assert max_deviation(state, dense_iterates(axis, axis, problem, pred, k)) <= 1e-12, k
    last = rounds[-1][0] if rounds else 0
    assert max_deviation(final, dense_iterates(axis, axis, problem, pred, last)) <= 1e-12


@pytest.mark.parametrize("problem, depth", [(needle_problem(12, 2), 12), (grid_problem(6, 6), 10)])
def test_coefficient_table_is_the_recurrence_bit_for_bit(problem, depth):
    plan = PreparationPlan.for_problem(problem, depth)
    psi, pred = prepare_tree_state(plan), MarkPredicate.goal_at(depth)
    tabled, looped = _RunArrays(psi, problem, pred), _RunArrays(psi, problem, pred)
    # the table grows out of order, as the drawn k do, and is read back below its end
    for k in [0, 5, 3, 17, 2, *range(601)]:
        tabled.restart(k)
        looped.reset()
        looped.iterate(k)
        assert (tabled.c_g, tabled.c_b) == (looped.c_g, looped.c_b), k
    assert len(tabled.table) == 601
    tabled.reset()
    assert len(tabled.table) == 1 and (tabled.c_g, tabled.c_b) == (1.0, 1.0)


@pytest.mark.parametrize(
    "seed, queries, samples, path",
    [
        (0, 28627, 1247, (0, 0, 0, 0, 2, 2, 0, 2, 2, 2)),
        (1, 29151, 1240, (0, 2, 2, 0, 0, 2, 2, 0, 0, 2)),
        (2, 29220, 1237, (0, 0, 2, 2, 0, 0, 2, 2, 2, 0)),
    ],
)
def test_grid_exponential_search_stream_is_unchanged(seed, queries, samples, path):
    # figures pinned from a recorded run: the seeded stream of k draws,
    # samples and validations must not move when the round loop is reworked
    sched = AmplificationSchedule(policy="exponential_search", seed=seed)
    found, reports = iterative_deepening_search(grid_problem(6, 6), 10, sched)
    assert sum(r.oracle_queries for r in reports) == queries
    assert sum(r.samples_drawn for r in reports) == samples
    assert found == path


def test_explicit_iterations_keep_memory_flat(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan)
    peaks = []
    for k in (10**3, 10**6):
        sched = AmplificationSchedule(policy="explicit", iterations=k)
        tracemalloc.start()
        try:
            _, report = amplify(psi, plan, MarkPredicate.goal_at(2), sched)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.oracle_queries == k
    # explicit runs the recurrence once and tabulates nothing
    assert peaks[1] < peaks[0] + 4096, peaks


# -- the exponential-search draw against rng.choice ------------------------------

def choice_draw(run, rng):
    """The (path, node) that ``rng.choice`` draws from the run's amplitudes."""
    state = reference.rows_of(copy.copy(run).to_state())  # ``run`` keeps its own state
    probs = np.abs(state.amp) ** 2
    probs /= probs.sum()
    i = int(rng.choice(len(probs), p=probs))
    return state.path(i), int(state.node[i])


@settings(max_examples=50, deadline=None)
@given(
    problem=connected_problems(),
    depth=st.integers(0, 4),
    threshold=st.sampled_from([None, 0.0, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_sample_draws_the_row_choice_draws(problem, depth, threshold, seed):
    plan = PreparationPlan.for_problem(problem, depth)
    if threshold is None:
        pred = MarkPredicate.goal_at(depth)
    else:
        pred = MarkPredicate.threshold_at(depth, threshold)
    run = _RunArrays(prepare_tree_state(plan), problem, pred)
    rng = np.random.default_rng(seed)
    for k in range(12):
        run.reset()
        run.iterate(k)
        for _ in range(3):
            ref = copy.deepcopy(rng)
            assert run.sample(rng) == choice_draw(run, ref), k
            assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_grid_search_round_draws_the_row_choice_draws(seed, monkeypatch):
    sample = _RunArrays.sample
    rounds = []

    def spy(run, rng):
        ref = copy.deepcopy(rng)
        drawn = sample(run, rng)
        assert drawn == choice_draw(run, ref)
        assert rng.bit_generator.state == ref.bit_generator.state
        rounds.append(drawn)
        return drawn

    monkeypatch.setattr(_RunArrays, "sample", spy)
    sched = AmplificationSchedule(policy="exponential_search", seed=seed)
    _, reports = iterative_deepening_search(grid_problem(4, 4), 8, sched)
    assert len(rounds) == sum(r.samples_drawn for r in reports) > 100


@settings(max_examples=50, deadline=None)
@given(
    problem=connected_problems(),
    depth=st.integers(0, 4),
    context=st.integers(0, 5),
    threshold=st.sampled_from([None, 0.0, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_deferred_state_agrees_with_its_rows(problem, depth, context, threshold, seed):
    plan = PreparationPlan.for_problem(problem, depth)
    if threshold is None:
        pred = MarkPredicate.goal_at(context)
    else:
        pred = MarkPredicate.threshold_at(context, threshold)
    tree = prepare_tree_state(plan)
    assert isinstance(tree, PreparedTree)
    rows = reference.rows_of(tree)
    assert len(tree.entries) == len(rows.amp)
    assert tree.prefix_counts() == rows.prefix_counts()
    assert tree.norm_sq() == pytest.approx(rows.norm_sq(), abs=1e-12)
    # the row references: the live rows of the context length, and those the predicate marks
    live = ~rows.dead & np.array([len(rows.path(i)) == context for i in range(len(rows.amp))])
    holds = np.array([pred.holds_at(problem, node) for node in rows.node.tolist()], dtype=bool)
    marked = live & holds
    run = _RunArrays(tree, problem, pred)
    assert (run.n_paths, run.m_marked) == (int(live.sum()), int(marked.sum()))
    g, b = rows.amp[marked], rows.amp[~marked]
    assert run.g2 == pytest.approx(float(np.vdot(g, g).real), abs=1e-12)
    assert run.b2 == pytest.approx(float(np.vdot(b, b).real), abs=1e-12)
    rng = np.random.default_rng(seed)
    for k in range(12):
        run.reset()
        run.iterate(k)
        amp = scale_classes(rows.amp, marked, run.c_g, run.c_b)
        built = TreeState.from_arrays(plan.layout, rows.actions, rows.node, amp, rows.dead)
        g = amp[marked]
        assert run.marked_mass() == pytest.approx(float(np.vdot(g, g).real), abs=1e-12)
        ref = copy.deepcopy(rng)
        assert [run.sample(rng)] == reference.measure(built, 1, ref), k  # rng.choice
        assert rng.bit_generator.state == ref.bit_generator.state
        weighted = run.to_state()
        assert weighted.norm_sq() == pytest.approx(built.norm_sq(), abs=1e-12)
        choice = reference.measure(built, 3, np.random.default_rng(seed + k))
        assert measure_paths(weighted, 3, seed + k) == choice, k
        # the weighted rows carry the coefficients as scale_classes does on the rows
        assert np.array_equal(reference.rows_of(weighted).amp, amp)
        assert [e.amp for _, e in weighted.sorted_entries()] == amp.tolist()


@pytest.mark.parametrize("fill", [0.0, math.nan])
def test_exponential_search_on_zero_norm_state_raises(binary7, fill):
    # every row weighted by zero or NaN: the tree's own draw refuses it
    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan).staged(2, [(0, None, fill, fill)])
    sched = AmplificationSchedule(policy="exponential_search")
    with pytest.raises(ZeroNormError):
        amplify(psi, plan, MarkPredicate.goal_at(2), sched)


@settings(max_examples=50, deadline=None)
@given(problem=connected_problems(), depth=st.integers(0, 4), context=st.integers(0, 5))
def test_marked_rows_are_the_live_rows_of_the_context_length(problem, depth, context):
    plan = PreparationPlan.for_problem(problem, depth)
    psi = prepare_tree_state(plan)
    pred = MarkPredicate.goal_at(context)
    _, report = amplify(psi, plan, pred, AmplificationSchedule(policy="explicit"))
    live = [(p, e) for p, e in psi.entries.items() if not e.dead and len(p) == context]
    assert report.n_paths == len(live)
    assert report.m_marked == sum(pred.marks(problem, p, e.node, e.dead) for p, e in live)


def test_deep_needle_mass_matches_closed_form():
    # 402 iterates at a = 2**-18; the full-vector loop drifted 1.4e-11 from the closed form
    _, report = uninformed_search(needle_problem(18, 2), 18, AmplificationSchedule())
    assert report.iterations == 402
    assert abs(report.measured_probability - report.predicted_probability) <= 1e-12


def test_needle_depth_twenty_goal_command():
    path, report = uninformed_search(needle_problem(20, 2), 20, AmplificationSchedule())
    assert path == tuple(i % 2 for i in range(20))
    assert report.oracle_queries == 804


# -- a marked mass that sums an ulp above 1 --------------------------------------

def over_one_problem() -> ProblemSpec:
    """Every depth-3 path ends at a goal, and the goal mass sums to 1.0000000000000004."""
    edges = [(0, 2, 1), (1, 0, 0), (1, 1, 0), (1, 2, 1), (2, 0, 0), (2, 1, 2)]
    return ProblemSpec(
        name="over1",
        states=("s0", "s1", "s2"),
        actions=("a0", "a1", "a2"),
        transition={(s, a): t for s, a, t in edges},
        root=0,
        goals=frozenset({0, 1}),
    ).validate()


@pytest.mark.parametrize(
    "sched", [AmplificationSchedule(), AmplificationSchedule(policy="explicit")]
)
def test_marked_mass_above_one_is_clamped(sched):
    problem = over_one_problem()
    plan = PreparationPlan.for_problem(problem, 3)
    _, report = amplify(prepare_tree_state(plan), plan, MarkPredicate.goal_at(3), sched)
    assert report.measured_probability > 1.0  # the summed mass, an ulp above 1
    assert report.iterations == 0
    assert report.initial_probability == 1.0
    assert report.predicted_probability == 1.0
    if sched.policy == "fixed_optimal":
        assert "single_measurement_sufficient" in report.warnings


def test_cli_searches_marked_mass_above_one(tmp_path):
    path = tmp_path / "over1.problem"
    write_problem(over_one_problem(), path)
    status, out = cli_invoke(["search", str(path), "--depth", "3", "--format", "records"])
    assert status == 0
    assert "a=1 " in out


def test_amplify_rejects_dense_state(binary7):
    # amplify takes one input, an unamplified prepared tree
    plan = PreparationPlan.for_problem(binary7, 2)
    psi, pred = prepare_tree_state(plan), MarkPredicate.goal_at(2)
    dense = reference.prepare(plan)
    rows = reference.rows_of(psi)
    amplified, _ = amplify(psi, plan, pred, AmplificationSchedule())
    for state in (dense, rows, amplified):
        with pytest.raises(ValueError, match="unamplified prepared tree"):
            amplify(state, plan, pred, AmplificationSchedule())


def test_certain_state_samples_only_goals(binary7):
    from qtreesearch import measure_paths

    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan)
    final, report = amplify(psi, plan, MarkPredicate.goal_at(2), AmplificationSchedule())
    assert report.measured_probability == pytest.approx(1.0, abs=1e-12)
    for path, node in measure_paths(final, 100, seed=8):
        assert node in binary7.goals
        assert binary7.follow(path) == node


# -- report serialization ------------------------------------------------------

def test_report_record_fields():
    status, record = cli_invoke(
        ["search", str(fixture_path("binary7")), "--depth", "2", "--seed", "2", "--format", "records"]
    )
    assert status == 0
    keys = [part.split("=", 1)[0] for part in record.split()]
    assert keys == [
        "command",
        "depth",
        "n_paths",
        "m_marked",
        "a",
        "theta",
        "iterations",
        "oracle_queries",
        "predicted_probability",
        "measured_probability",
        "samples_drawn",
        "seed",
        "warnings",
        "paper_node_width",
        "node_width",
        "solution",
    ]
    assert "a=0.25" in record
    assert "paper_node_width=2" in record and "node_width=3" in record


def test_optimal_iterations_closed_form():
    assert optimal_iterations(0.25) == 1
    assert optimal_iterations(0.5) == 0
    assert optimal_iterations(0.4999999999999999) == 0
    assert optimal_iterations(1.0) == 0
    with pytest.raises(ValueError):
        optimal_iterations(0.0)
    # floor(pi / (4 asin(sqrt(a))))
    for a in (0.01, 0.1, 0.2, 0.4):
        assert optimal_iterations(a) == math.floor(math.pi / (4 * math.asin(math.sqrt(a))))
    assert predicted_mass(0.25, 1) == pytest.approx(1.0, abs=1e-12)
