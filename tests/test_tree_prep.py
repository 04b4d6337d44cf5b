import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtreesearch import (
    CorruptedStateError,
    OperatorMisuseError,
    PreparationPlan,
    apply_action_superposition,
    apply_transition,
    enumerate_paths,
    init_ground,
    parse_problem,
    path_amplitude,
    prepare_tree_state,
)
from qtreesearch.tree_prep import action_images, transition_images
from conftest import DEFAULT_DEPTHS, load_fixture


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
    state = init_ground(plan.layout, binary7.root, mode="dense")
    state = apply_action_superposition(state, binary7, 0)
    with pytest.raises(OperatorMisuseError):
        apply_action_superposition(state, binary7, 0)


def test_corrupted_state_detected(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    state = init_ground(plan.layout, binary7.root)
    state = apply_action_superposition(state, binary7, 0)
    # sabotage: pretend the node under prefix (0,) is a leaf with no actions
    bad = state.entries[(0,)]._replace(node=5)
    state.entries[(0,)] = bad
    with pytest.raises(CorruptedStateError):
        apply_transition(state, binary7, 0)


def test_non_injective_transition_flagged():
    text = """
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
    # only u is reachable, and per action the live restriction stays injective
    p = parse_problem(text)
    assert unitarity_defect(p, 2) <= 1e-12

    text2 = """
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
    # both u and v are live at level 1 and map to w under the same action, yet
    # the path registers tell them apart, so the joint operators stay isometries
    # and no non-unitarity flag is needed
    p2 = parse_problem(text2)
    assert unitarity_defect(p2, 2) <= 1e-12


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
            plan.layout.index_of(e.node, p) for p, e in state.sorted_entries()
        ]
        images = [
            {idx: coef for idx, coef in action_images(problem, plan.layout, level, d)}
            for d in domain
        ]
        gram = _domain_gram(images)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(domain))))))
        state = apply_action_superposition(state, problem, level)

        domain = [
            plan.layout.index_of(e.node, p) for p, e in state.sorted_entries()
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

@st.composite
def connected_problems(draw):
    n_states = draw(st.integers(2, 5))
    n_actions = draw(st.integers(1, 3))
    transition = {}
    for s in range(n_states):
        for a in range(n_actions):
            if draw(st.booleans()):
                transition[(s, a)] = draw(st.integers(0, n_states - 1))
    from qtreesearch import ProblemSpec

    return ProblemSpec(
        name="rnd",
        states=tuple(f"s{i}" for i in range(n_states)),
        actions=tuple(f"a{j}" for j in range(n_actions)),
        transition=transition,
        root=0,
        goals=frozenset(),
    ).validate()


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
