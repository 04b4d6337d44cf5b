import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats as scipy_stats

import reference
from qtreesearch import (
    LayoutMismatchError,
    MarkPredicate,
    PreparationPlan,
    RegisterLayout,
    ZeroNormError,
    init_ground,
    measure_paths,
    prepare_tree_state,
)
from qtreesearch.amplitude_engine import _RunArrays
from qtreesearch.cli_reporting import state_dump_lines
from qtreesearch.statevector import TreeState
from reference import apply_oracle, dense_entries, inner_product, to_dense
from conftest import load_fixture


def test_layout_widths():
    lay = RegisterLayout.from_sizes(n_states=7, n_actions=2, depth=2)
    assert (lay.node_width, lay.action_width, lay.depth) == (3, 1, 2)
    assert lay.total_width == 5
    assert lay.paper_node_width == 2
    # |A| = 1 still gets a 1-bit register; |S| = 1 needs none
    assert RegisterLayout.from_sizes(1, 1, 3).node_width == 0
    assert RegisterLayout.from_sizes(1, 1, 3).action_width == 1
    assert RegisterLayout.from_sizes(5, 3, 1).node_width == 3
    assert RegisterLayout.from_sizes(5, 3, 1).action_width == 2


def test_layout_index_round_trip():
    lay = RegisterLayout.from_sizes(8, 3, 2)
    for node in range(8):
        for a0 in range(3):
            for a1 in range(3):
                idx = reference.index_of(lay, node, (a0, a1))
                assert reference.decode(lay, idx) == (node, (a0, a1))


def test_init_ground_structured():
    lay = RegisterLayout.from_sizes(1, 2, 1)
    state = init_ground(lay, 0)
    assert state.norm_sq() == 1.0
    assert state.entries[()].amp == 1.0
    samples = reference.measure(state, 5, np.random.default_rng(3))
    assert samples == [((), 0)] * 5


def test_init_ground_dense_index(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    state = reference.init_ground(plan.layout, binary7.root)
    # root shifted past both 1-bit action registers
    expected = binary7.root << 2
    assert state.vector[expected] == 1.0
    assert np.count_nonzero(state.vector) == 1


def test_init_ground_rejects_oversized_root():
    lay = RegisterLayout.from_sizes(4, 2, 1)
    with pytest.raises(ValueError):
        init_ground(lay, 4)


def test_inner_product_self_and_orthogonal(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan)
    assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)
    # distinct basis configurations are orthogonal
    ground = init_ground(plan.layout, binary7.root)
    assert inner_product(ground, psi) == 0.0
    other = init_ground(plan.layout, 1)
    assert inner_product(ground, other) == 0.0


def test_inner_product_with_oracle_flip(binary7):
    # M=1 of N=4 marked: <psi|O psi> = 1 - 2/4
    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan)
    flipped = apply_oracle(psi, binary7, MarkPredicate.goal_at(2))
    assert inner_product(psi, flipped) == pytest.approx(0.5, abs=1e-12)


def test_inner_product_layout_mismatch(binary7):
    a = init_ground(RegisterLayout.from_sizes(7, 2, 1), 0)
    b = init_ground(RegisterLayout.from_sizes(7, 2, 2), 0)
    with pytest.raises(LayoutMismatchError):
        inner_product(a, b)


def test_measure_is_deterministic_per_seed(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan)
    s1 = measure_paths(psi, 50, seed=11)
    s2 = measure_paths(psi, 50, seed=11)
    s3 = measure_paths(psi, 50, seed=12)
    assert s1 == s2
    assert s1 != s3


def test_measure_zero_norm_rejected():
    lay = RegisterLayout.from_sizes(2, 2, 1)
    ground = init_ground(lay, 0)
    state = TreeState(lay, entries={(): ground.entries[()]._replace(amp=0j)})
    with pytest.raises(ZeroNormError):
        reference.measure(state, 1, np.random.default_rng(0))


def test_measure_paths_refuses_what_is_not_a_prepared_tree(binary7):
    # rows and the dense vector are test references; only the prepared tree draws
    plan = PreparationPlan.for_problem(binary7, 2)
    for state in (reference.rows_of(prepare_tree_state(plan)), reference.prepare(plan)):
        with pytest.raises(ValueError, match="only a prepared tree is measured"):
            measure_paths(state, 1, seed=0)


@pytest.mark.parametrize("fill", [0.0, math.nan])
def test_measure_zero_or_nan_norm_rejected(binary7, fill):
    plan = PreparationPlan.for_problem(binary7, 2)
    run = _RunArrays(prepare_tree_state(plan), binary7, MarkPredicate.goal_at(2))
    run.c_g = run.c_b = fill
    tree = run.to_state()
    psi = reference.rows_of(prepare_tree_state(plan))
    rows = TreeState.from_arrays(
        psi.layout, psi.actions, psi.node, np.full_like(psi.amp, fill), psi.dead
    )
    with pytest.raises(ZeroNormError):
        measure_paths(tree, 1, seed=0)
    with pytest.raises(ZeroNormError):
        reference.measure(rows, 1, np.random.default_rng(0))


def test_measure_uniform_frequencies(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan)
    n = 100_000
    counts = Counter(path for path, _ in measure_paths(psi, n, seed=7))
    for path in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert abs(counts[path] / n - 0.25) < 0.01


@pytest.mark.parametrize("stem,depth", [("binary7", 2), ("nonconst5", 2), ("deadend", 2)])
def test_measure_chi_square(stem, depth):
    problem = load_fixture(stem)
    plan = PreparationPlan.for_problem(problem, depth)
    psi = prepare_tree_state(plan)
    items = list(psi.sorted_entries())
    expected = np.array([abs(e.amp) ** 2 for _, e in items])
    n = 100_000
    counts = Counter(path for path, _ in measure_paths(psi, n, seed=321))
    observed = np.array([counts.get(path, 0) for path, _ in items], dtype=float)
    result = scipy_stats.chisquare(observed, expected * n)
    assert result.pvalue > 0.001


def test_dump_format_and_order(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    psi = prepare_tree_state(plan)
    lines = list(state_dump_lines(psi))
    assert lines == [
        "path=0,0 node=3 re=0.5 im=0",
        "path=0,1 node=4 re=0.5 im=0",
        "path=1,0 node=5 re=0.5 im=0",
        "path=1,1 node=6 re=0.5 im=0",
    ]


def test_dump_empty_path_record():
    p = load_fixture("tiny")
    plan = PreparationPlan.for_problem(p, 0)
    psi = prepare_tree_state(plan)
    assert list(state_dump_lines(psi)) == ["path= node=0 re=1 im=0"]


def test_structured_dense_agree_on_fixtures():
    # preparation in both modes, then structured amplify against the dense
    # reference iterates, on every fixture whose dense vector is materializable
    from qtreesearch import AmplificationSchedule, amplify
    from reference import reflect_about
    from conftest import DEFAULT_DEPTHS, all_fixture_stems

    for stem in all_fixture_stems():
        problem = load_fixture(stem)
        depth = DEFAULT_DEPTHS[stem]
        plan = PreparationPlan.for_problem(problem, depth)
        if plan.layout.total_width > 16:
            continue
        structured = prepare_tree_state(plan)
        dense = reference.prepare(plan)
        diff = to_dense(structured).vector - dense.vector
        assert np.max(np.abs(diff)) <= 1e-12, stem
        # decoded entries match the structured bookkeeping exactly
        assert [
            (p, e.node, e.dead) for p, e in dense_entries(dense, problem)
        ] == [(p, e.node, e.dead) for p, e in structured.sorted_entries()]
        sched = AmplificationSchedule(policy="explicit", iterations=2)
        pred = MarkPredicate.goal_at(depth)
        s_final, _ = amplify(structured, plan, pred, sched)
        d_final = dense
        for _ in range(2):
            d_final = reflect_about(apply_oracle(d_final, problem, pred), dense)
        diff = to_dense(s_final).vector - d_final.vector
        assert np.max(np.abs(diff)) <= 1e-12, stem


def test_dense_measure_matches_structured(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    structured = prepare_tree_state(plan)
    dense = reference.prepare(plan)
    s1 = measure_paths(structured, 20, seed=5)
    s2 = reference.measure(dense, 20, np.random.default_rng(5), binary7)
    assert s1 == s2


def test_dense_decoding_needs_the_problem(binary7):
    plan = PreparationPlan.for_problem(binary7, 2)
    dense = reference.prepare(plan)
    with pytest.raises(ValueError, match="needs the problem"):
        reference.measure(dense, 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="needs the problem"):
        dense_entries(dense, None)
    rows = TreeState(plan.layout, entries=dict(dense_entries(dense, binary7)))
    assert list(state_dump_lines(rows)) == list(state_dump_lines(prepare_tree_state(plan)))
