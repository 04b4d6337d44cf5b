import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from qtreesearch import (
    CorruptedStateError,
    OperatorMisuseError,
    PreparationPlan,
    ProblemSpec,
    apply_action_superposition,
    apply_transition,
    enumerate_paths,
    init_ground,
    parse_problem,
    path_amplitude,
    prepare_tree_state,
)
from qtreesearch.amplitude_engine import AmplificationSchedule, MarkPredicate, amplify
from qtreesearch.generators import grid_problem, needle_problem
from qtreesearch.search_drivers import PipelinePlan, PruningStage, pruned_search, uninformed_search
from qtreesearch.statevector import TreeState
from qtreesearch.tree_prep import PreparedTree, measure_paths
from reference import action_images, index_of, to_dense, transition_images
from conftest import DEFAULT_DEPTHS, cli_invoke, connected_problems, fixture_path, load_fixture


def test_uniform_split_at_root(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    state = init_ground(plan.layout, binary7.root)
    state = apply_action_superposition(state, binary7, 0)
    amps = {p: e.amp for p, e in state.entries.items()}
    assert amps == {
        (0,): pytest.approx(1 / math.sqrt(2)),
        (1,): pytest.approx(1 / math.sqrt(2)),
    }
    # nodes unchanged until the transition step
    assert all(e.node == binary7.root for e in state.entries.values())


def test_three_way_split_scales_amplitude(nonconst5):
    # after one full level the left child holds 1/sqrt(2); its three-way split
    # divides that by sqrt(3)
    plan = PreparationPlan.for_problem(nonconst5, 2)
    state = init_ground(plan.layout, nonconst5.root)
    state = apply_transition(apply_action_superposition(state, nonconst5, 0), nonconst5, 0)
    state = apply_action_superposition(state, nonconst5, 1)
    assert state.entries[(0, 2)].amp == pytest.approx(1 / math.sqrt(6), abs=1e-15)


def test_zero_branch_prefix_is_frozen():
    p = load_fixture("deadend")
    plan = PreparationPlan.for_problem(p, 2)
    psi = prepare_tree_state(plan)
    entry = psi.entries[(1,)]
    assert entry.dead
    assert entry.amp == pytest.approx(1 / math.sqrt(2))
    assert entry.node == 2  # the trap state, a goal never marked at depth 2


def test_transition_moves_node_not_amplitude(binary7):
    plan = PreparationPlan.for_problem(binary7, 1)
    state = init_ground(plan.layout, binary7.root)
    state = apply_action_superposition(state, binary7, 0)
    before = {p: e.amp for p, e in state.entries.items()}
    state = apply_transition(state, binary7, 0)
    assert {p: e.amp for p, e in state.entries.items()} == before
    assert state.entries[(0,)].node == 1
    assert state.entries[(1,)].node == 2


def test_depth_two_binary_leaves(binary7):
    psi = prepare_tree_state(PreparationPlan.for_problem(binary7, 2))
    assert sorted(psi.entries) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for e in psi.entries.values():
        assert e.amp == pytest.approx(0.5, abs=1e-15)


def test_nonconstant_amplitudes(nonconst5):
    psi = prepare_tree_state(PreparationPlan.for_problem(nonconst5, 2))
    amps = sorted(abs(e.amp) for e in psi.entries.values())
    expected = sorted([1 / math.sqrt(6)] * 3 + [0.5] * 2)
    assert amps == pytest.approx(expected, abs=1e-15)
    assert psi.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_depth_zero_is_ground(binary7):
    plan = PreparationPlan.for_problem(binary7, 0)
    psi = prepare_tree_state(plan)
    assert psi.entries == init_ground(plan.layout, binary7.root).entries


@pytest.mark.parametrize("stem", sorted(DEFAULT_DEPTHS))
def test_prepared_amplitudes_match_product_formula(stem):
    problem = load_fixture(stem)
    depth = DEFAULT_DEPTHS[stem]
    psi = prepare_tree_state(PreparationPlan.for_problem(problem, depth))
    oracle = enumerate_paths(problem, depth)
    live = {p: e for p, e in psi.entries.items() if not e.dead}
    assert sorted(live) == sorted(t[0] for t in oracle)
    for path, terminal, _ in oracle:
        assert live[path].node == terminal
        assert abs(live[path].amp - path_amplitude(problem, path)) <= 1e-12


@pytest.mark.parametrize("stem", ["binary7", "nonconst5", "deadend", "grid4"])
def test_prefix_mass_conservation(stem):
    problem = load_fixture(stem)
    depth = DEFAULT_DEPTHS[stem]
    plan = PreparationPlan.for_problem(problem, depth)
    state = init_ground(plan.layout, problem.root)
    for level in range(depth):
        before = {p: abs(e.amp) ** 2 for p, e in state.entries.items() if not e.dead}
        state = apply_transition(
            apply_action_superposition(state, problem, level), problem, level
        )
        after = {}
        for p, e in state.entries.items():
            key = p[:level]
            after[key] = after.get(key, 0.0) + abs(e.amp) ** 2
        for prefix, mass in before.items():
            assert abs(after[prefix] - mass) <= 1e-12
        assert abs(state.norm_sq() - 1.0) <= 1e-12


def test_misuse_detected_when_level_skipped(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    state = init_ground(plan.layout, binary7.root)
    with pytest.raises(OperatorMisuseError):
        apply_action_superposition(state, binary7, 1)  # level 0 never applied
    state = apply_action_superposition(state, binary7, 0)
    with pytest.raises(OperatorMisuseError):
        apply_action_superposition(state, binary7, 0)  # register already populated


def test_misuse_detected_in_dense_mode(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    state = reference.init_ground(plan.layout, binary7.root)
    state = reference.apply_action_superposition(state, binary7, 0)
    with pytest.raises(OperatorMisuseError):
        reference.apply_action_superposition(state, binary7, 0)


def test_corrupted_state_detected(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    state = init_ground(plan.layout, binary7.root)
    state = apply_action_superposition(state, binary7, 0)
    # sabotage: pretend the node under prefix (0,) is a leaf with no actions
    bad = state.entries[(0,)]._replace(node=5)
    state = TreeState(plan.layout, entries={**state.entries, (0,): bad})
    with pytest.raises(CorruptedStateError):
        apply_transition(state, binary7, 0)
    # a node outside the state range must not wrap around or index past the table
    for node in (-1, binary7.n_states):
        bad = state.entries[(0,)]._replace(node=node)
        broken = TreeState(plan.layout, entries={**state.entries, (0,): bad})
        with pytest.raises(CorruptedStateError, match="outside the state range"):
            apply_transition(broken, binary7, 0)


FUNNEL = """
problem funnel
actions a
state r
state u
state v
state w
root r
edge r a u
edge u a w
edge v a w
"""

COLLIDE = """
problem collide
actions a b
state r
state u
state v
state w
root r
edge r a u
edge r b v
edge u a w
edge v a w
"""

ROOT_DEAD_END = """
problem rootdead
actions a
state r
state x
root r
edge x a r
"""


def test_non_injective_transition_flagged():
    # only u is reachable, and per action the live restriction stays injective
    p = parse_problem(FUNNEL)
    assert unitarity_defect(p, 2) <= 1e-12

    # both u and v are live at level 1 and map to w under the same action, yet
    # the path registers tell them apart, so the joint operators stay isometries
    # and no non-unitarity flag is needed
    p2 = parse_problem(COLLIDE)
    assert unitarity_defect(p2, 2) <= 1e-12


@pytest.mark.parametrize(
    "load,depth",
    [
        (lambda: load_fixture("binary7"), 0),  # depth 0: the ground state alone
        (lambda: load_fixture("tiny"), 3),  # empty alphabet: one state, no action
        (lambda: parse_problem(ROOT_DEAD_END), 2),  # the root has no admissible action
        (lambda: parse_problem(FUNNEL), 2),  # non-injective, one live node
        (lambda: parse_problem(COLLIDE), 3),  # non-injective, two live nodes collide
    ],
    ids=["depth0", "empty-alphabet", "root-dead-end", "funnel", "collide"],
)
def test_structured_equals_dense_reference_on_edge_cases(load, depth):
    plan = PreparationPlan.for_problem(load(), depth)
    structured = prepare_tree_state(plan)
    assert np.array_equal(to_dense(structured).vector, reference.prepare(plan).vector)


def test_prefix_cap_refuses_before_preparing():
    # 2**25 paths: the per-state count refuses the plan before any row exists
    with pytest.raises(ValueError, match="2\\*\\*24"):
        prepare_tree_state(PreparationPlan.for_problem(needle_problem(25, 2), 25))


def test_level_memory_grows_with_children_not_alphabet():
    # 4,096 actions of which two are admissible per state: 1,024 depth-10 paths
    lines = ["problem wide", "actions " + " ".join(f"a{i}" for i in range(4096))]
    lines += [f"state s{i}" for i in range(11)] + ["root s0", "goal s10"]
    lines += [f"edge s{i} {a} s{i + 1}" for i in range(10) for a in ("a0", "a4095")]
    problem = parse_problem("\n".join(lines))
    plan = PreparationPlan.for_problem(problem, 10)  # builds the per-problem arrays
    tracemalloc.start()
    try:
        state = init_ground(plan.layout, problem.root)
        for level in range(10):
            state = apply_transition(apply_action_superposition(state, problem, level), problem, level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(state.amp) == 1024
    # a per-row flag for every action would take 1,024 x 4,097 bytes at the last level
    assert peak < 1 << 20


def test_dead_tree_depth_costs_its_own_depth():
    # chain4 dies at depth 5, so depth 10**6 needs five levels and a trailing empty one
    chain4 = load_fixture("chain4")
    assert PreparationPlan.for_problem(chain4, 10**6).counts == ([{0: 1}, {1: 1}, {2: 1}, {3: 1}, {4: 1}, {}], 1)
    argv = ["prepare", str(fixture_path("chain4")), "--depth", "5", "--samples", "2"]
    status, small = cli_invoke(argv)  # builds the parser and its caches outside the window
    argv[3] = str(10**6)
    tracemalloc.start()
    try:
        status, out = cli_invoke(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert out == small.replace("depth=5 ", f"depth={10**6} ").replace("width=8", f"width={10**6 + 3}")
    assert "live_paths=0 dead_prefixes=1" in out
    assert peak < 1 << 20


def test_dead_tree_state_dump_stops_at_its_last_level():
    # chain4 dies at depth 5: the dump builds five levels, not one per --depth
    argv = ["prepare", str(fixture_path("chain4")), "--depth", "5", "--state-dump"]
    status, small = cli_invoke(argv)
    argv[3] = str(10**5)
    start = time.perf_counter()
    status, out = cli_invoke(argv)
    assert time.perf_counter() - start < 1.0
    assert status == 0 and out == small and out.count("path=") == 1


def test_plain_search_builds_no_rows():
    # 2**20 depth-20 needle paths, and 6x6 grid paths at d=12 under a pruning stage:
    # their rows would take tens of MB, the per-state passes a few kB
    grid = grid_problem(6, 6)
    pruned = PipelinePlan(grid, 12, (PruningStage(6, 6.0, 1),), AmplificationSchedule())
    runs = [
        (lambda: uninformed_search(needle_problem(20, 2), 20, AmplificationSchedule()),
         tuple(i % 2 for i in range(20))),
        (lambda: pruned_search(pruned, seed=0), (2, 0, 0, 0, 0, 2, 2, 2, 2, 0, 1, 0)),
    ]
    for search, expected in runs:
        tracemalloc.start()
        try:
            path, _ = search()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path == expected
        assert peak < 2 << 20, expected


def test_counts_norm_and_draws_of_a_prepared_tree_build_no_rows(binary7, monkeypatch):
    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan)

    def no_rows(self):
        raise AssertionError("rows listed")

    monkeypatch.setattr(PreparedTree, "walk", no_rows)
    monkeypatch.setattr(PreparedTree, "entry", no_rows)
    assert len(psi.entries) == 4
    assert psi.prefix_counts() == (4, 0)
    assert psi.norm_sq() == pytest.approx(1.0, abs=1e-12)
    assert len(measure_paths(psi, 3, seed=0)) == 3
    final, report = amplify(psi, plan, MarkPredicate.goal_at(2), AmplificationSchedule())
    assert (report.n_paths, report.m_marked, report.oracle_queries) == (4, 1, 1)
    ((path, node),) = measure_paths(final, 1, seed=0)
    assert binary7.follow(path) == node in binary7.goals
    monkeypatch.undo()
    assert len(list(psi.sorted_entries())) == len(dict(psi.entries.items())) == 4
    # a prepared tree holds no row arrays, and listing its rows builds none
    assert not any(hasattr(psi, name) for name in ("actions", "node", "amp", "dead"))


# -- unitarity proxy (dense mode) -------------------------------------------

def _domain_gram(images: list[dict[int, complex]]) -> np.ndarray:
    columns = sorted({idx for im in images for idx in im})
    pos = {idx: j for j, idx in enumerate(columns)}
    m = np.zeros((len(images), len(columns)), dtype=np.complex128)
    for i, im in enumerate(images):
        for idx, coef in im.items():
            m[i, pos[idx]] = coef
    return m @ m.conj().T


def unitarity_defect(problem, depth: int) -> float:
    """Worst inner-product deviation of the two operators over their domains."""
    plan = PreparationPlan.for_problem(problem, depth)
    assert plan.layout.total_width <= 16
    worst = 0.0
    state = init_ground(plan.layout, problem.root)
    for level in range(depth):
        domain = [
            index_of(plan.layout, e.node, p) for p, e in state.sorted_entries()
        ]
        images = [
            {idx: coef for idx, coef in action_images(problem, plan.layout, level, d)}
            for d in domain
        ]
        gram = _domain_gram(images)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(domain))))))
        state = apply_action_superposition(state, problem, level)

        domain = [
            index_of(plan.layout, e.node, p) for p, e in state.sorted_entries()
        ]
        images = [
            {transition_images(problem, plan.layout, level, d): 1.0} for d in domain
        ]
        gram = _domain_gram(images)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(domain))))))
        state = apply_transition(state, problem, level)
    return worst


@pytest.mark.parametrize("stem", ["binary7", "nonconst5", "deadend", "chain4", "prune2", "comb6"])
def test_operators_preserve_domain_inner_products(stem):
    problem = load_fixture(stem)
    assert unitarity_defect(problem, DEFAULT_DEPTHS[stem]) <= 1e-12


# -- property: random problems keep the invariants ---------------------------

@settings(max_examples=50, deadline=None)
@given(problem=connected_problems(), depth=st.integers(0, 4))
def test_random_preparation_matches_enumeration(problem, depth):
    psi = prepare_tree_state(PreparationPlan.for_problem(problem, depth))
    assert abs(psi.norm_sq() - 1.0) <= 1e-12
    live = sorted(p for p, e in psi.entries.items() if not e.dead)
    assert live == sorted(t[0] for t in enumerate_paths(problem, depth))
    for p, e in psi.entries.items():
        if not e.dead:
            assert abs(e.amp - path_amplitude(problem, p)) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(problem=connected_problems(), depth=st.integers(0, 4))
def test_random_preparation_matches_dense_reference(problem, depth):
    plan = PreparationPlan.for_problem(problem, depth)
    psi = prepare_tree_state(plan)
    assert np.array_equal(to_dense(psi).vector, reference.prepare(plan).vector)
    # the rows come out in strictly increasing path order without a sort
    paths = [p for p, _ in psi.sorted_entries()]
    assert all(a < b for a, b in zip(paths, paths[1:]))
    # the size guard's per-state count predicts the rows that the operators build
    assert len(psi.entries) == len(paths) == len(reference.rows_of(psi).amp)


# -- the row walk of a prepared tree against the operator loop --------------------

def walked_and_built(state):
    """(path, node, amp, dead) of every row, from the walk and from the rows
    that the operators build and ``reference.scale_classes`` weights."""
    rows = reference.rows_of(state)
    walked = [(p, e.node, e.amp, e.dead) for p, e in state.sorted_entries()]
    columns = zip(rows.node.tolist(), rows.amp.tolist(), rows.dead.tolist())
    built = [(rows.path(i), node, amp, dead) for i, (node, amp, dead) in enumerate(columns)]
    return walked, built


@settings(max_examples=100, deadline=None)
@given(problem=connected_problems(), depth=st.integers(0, 6), data=st.data())
def test_walk_lists_the_rows_the_operators_build(problem, depth, data):
    plan = PreparationPlan.for_problem(problem, depth)
    levels, _ = plan.counts  # a stage lies at a level with live prefixes
    at = []
    if len(levels) > 1:
        at = data.draw(st.lists(st.integers(0, len(levels) - 2), max_size=3, unique=True))
    weight = st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True)
    taus = st.sampled_from([0.0, 1.0, 2.0])
    stages = [
        (level, lambda s, tau=data.draw(taus): problem.h(s) <= tau, data.draw(weight), data.draw(weight))
        for level in sorted(at)
    ]
    tree = prepare_tree_state(plan).staged(depth, stages)
    k = data.draw(st.integers(0, 3))  # 0 leaves the tree unamplified
    sched = AmplificationSchedule(policy="explicit", iterations=k)
    state, _ = amplify(tree, plan, MarkPredicate.goal_at(depth), sched)
    walked, built = walked_and_built(state)
    # the same floats multiplied in the same order: equal with ==, not approximately
    assert walked == built
    assert len(state.entries) == len(walked)
    assert all(state.entries[path] == (amp, node, dead) for path, node, amp, dead in walked)


def dead_end_under_every_stage():
    """r -a-> x, a dead end that the level-1 stage marks; r -b-> m, marked, and
    m -a-> g, a dead end that the level-2 stage marks, while x, frozen before
    it, takes its unmarked factor. g is also the goal that m -b-> n -a-> g and
    r -c-> y -a-> n2 -a-> g reach at depth 3, where the frozen g is unmarked."""
    return ProblemSpec(
        name="frozen2",
        states=("r", "x", "m", "y", "n", "n2", "g"),
        actions=("a", "b", "c"),
        transition={
            (0, 0): 1, (0, 1): 2, (0, 2): 3, (2, 0): 6, (2, 1): 4, (3, 0): 5, (4, 0): 6, (5, 0): 6,
        },
        root=0,
        goals=frozenset({6}),
    ).validate()


def test_walk_weights_dead_ends_under_every_stage():
    problem = dead_end_under_every_stage()
    plan = PreparationPlan.for_problem(problem, 3)
    g1, b1, g2, b2 = 1.5, -0.5, 0.25, -1.75
    stages = [(1, lambda s: s in (1, 2), g1, b1), (2, lambda s: s == 6, g2, b2)]
    tree = prepare_tree_state(plan).staged(3, stages)
    sched = AmplificationSchedule(policy="explicit", iterations=1)
    state, _ = amplify(tree, plan, MarkPredicate.goal_at(3), sched)
    cg, cb = state.c_g, state.c_b
    walked, built = walked_and_built(state)
    assert walked == built
    f0, f1 = 1 / math.sqrt(3), 1 / math.sqrt(2)
    assert walked == [
        ((0,), 1, 1.0 * f0 * g1 * b2 * cb, True),
        ((1, 0), 6, 1.0 * f0 * g1 * f1 * g2 * cb, True),
        ((1, 1, 0), 6, 1.0 * f0 * g1 * f1 * b2 * 1.0 * cg, False),
        ((2, 0, 0), 6, 1.0 * f0 * b1 * 1.0 * b2 * 1.0 * cg, False),
    ]


def test_entries_of_a_prepared_tree_descend_one_path():
    problem = dead_end_under_every_stage()
    plan = PreparationPlan.for_problem(problem, 3)
    psi = prepare_tree_state(plan)
    rows = dict(psi.entries.items())
    f0, f1 = 1 / math.sqrt(3), 1 / math.sqrt(2)
    assert psi.entries[(1, 1, 0)] == rows[(1, 1, 0)] == (f0 * f1, 6, False)
    assert psi.entries[(0,)] == (f0, 1, True)  # a dead row
    assert (0,) in psi.entries and (1, 0) in psi.entries
    # not rows: the root and an inner prefix, past a dead end, an action with no
    # transition, an action outside the alphabet, and past the depth
    for path in [(), (1,), (0, 0), (2, 1), (1, 7), (1, 1, 0, 0)]:
        assert path not in psi.entries
        with pytest.raises(KeyError):
            psi.entries[path]
