"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qtreesearch import (
    AmplificationSchedule,
    MarkPredicate,
    PipelinePlan,
    PreparationPlan,
    PruningStage,
    amplify,
    enumerate_paths,
    path_amplitude,
    prepare_tree_state,
    pruned_pipeline,
    pruned_search,
)
from qtreesearch.generators import needle_problem
from qtreesearch.statevector import TreeState
from reference import (
    action_images,
    apply_oracle,
    index_of,
    inner_product,
    prepare,
    reflect_about,
    transition_images,
)
from conftest import DEFAULT_DEPTHS, all_fixture_stems, cli_invoke, fixture_path, load_fixture


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def brute_force_goal_mass(problem, depth) -> float:
    return sum(
        path_amplitude(problem, path) ** 2
        for path, _, is_goal in enumerate_paths(problem, depth)
        if is_goal
    )


def test_criterion_1_brute_force_equivalence():
    with criterion("1 brute-force equivalence on all shipped fixtures"):
        start = time.perf_counter()
        stems = all_fixture_stems()
        assert len(stems) >= 6
        for stem in stems:
            problem = load_fixture(stem)
            depth = DEFAULT_DEPTHS[stem]
            oracle = enumerate_paths(problem, depth)
            assert len(oracle) <= 2**14
            psi = prepare_tree_state(PreparationPlan.for_problem(problem, depth))
            live = {p: e for p, e in psi.entries.items() if not e.dead}
            assert sorted(live) == sorted(t[0] for t in oracle), stem
            for path, terminal, _ in oracle:
                assert live[path].node == terminal
                assert abs(live[path].amp - path_amplitude(problem, path)) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_certainty_single_iterate():
    with criterion("2 marked state with certainty (N=4, M=1, one iterate)"):
        problem = load_fixture("binary7")
        plan = PreparationPlan.for_problem(problem, 2)
        psi = prepare_tree_state(plan)
        sched = AmplificationSchedule(policy="explicit", iterations=1)
        final, report = amplify(psi, plan, MarkPredicate.goal_at(2), sched)
        assert report.n_paths == 4 and report.m_marked == 1
        assert abs(report.measured_probability - 1.0) <= 1e-12
        assert abs(abs(final.entries[(0, 1)].amp) - 1.0) <= 1e-12


def test_criterion_3_closed_form_sweep():
    with criterion("3 amplification closed form over k in [0, 3 k_opt]"):
        start = time.perf_counter()
        for stem in all_fixture_stems():
            problem = load_fixture(stem)
            depth = DEFAULT_DEPTHS[stem]
            a = brute_force_goal_mass(problem, depth)
            theta = math.asin(math.sqrt(a))
            k_opt = int(math.pi / (4 * theta)) if 0 < a < 0.5 else 0
            plan = PreparationPlan.for_problem(problem, depth)
            psi = prepare_tree_state(plan)
            for k in range(3 * k_opt + 1):
                sched = AmplificationSchedule(policy="explicit", iterations=k)
                _, report = amplify(psi, plan, MarkPredicate.goal_at(depth), sched)
                expected = math.sin((2 * k + 1) * theta) ** 2
                assert abs(report.measured_probability - expected) <= 1e-9, (stem, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_4_quadratic_scaling():
    with criterion("4 quadratic scaling of the optimal iteration count"):
        start = time.perf_counter()
        ns, ks = [], []
        for depth in range(4, 15):
            problem = needle_problem(depth, branching=2)
            plan = PreparationPlan.for_problem(problem, depth)
            psi = prepare_tree_state(plan)
            _, report = amplify(
                psi, plan, MarkPredicate.goal_at(depth), AmplificationSchedule()
            )
            n = 2**depth
            assert report.n_paths == n and report.m_marked == 1
            assert report.iterations == round(math.pi / 4 * math.sqrt(n) - 0.5), depth
            ns.append(n)
            ks.append(report.iterations)
        slope = np.polyfit(np.log(ns), np.log(ks), 1)[0]
        assert abs(slope - 0.5) <= 0.05, f"slope {slope:.4f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_5_unknown_solution_count():
    with criterion("5 exponential search: mean queries and success rate"):
        start = time.perf_counter()
        problem = needle_problem(6, branching=2)  # N = 64, M = 1
        plan = PreparationPlan.for_problem(problem, 6)
        psi = prepare_tree_state(plan)
        pred = MarkPredicate.goal_at(6)
        queries, hits = [], 0
        for seed in range(200):
            sched = AmplificationSchedule(
                policy="exponential_search", seed=seed, max_oracle_queries=1000
            )
            _, report = amplify(psi, plan, pred, sched)
            queries.append(report.oracle_queries)
            path, _ = report.samples[-1]
            hits += problem.follow(path) in problem.goals and "budget_exhausted" not in report.warnings
        assert sum(queries) / len(queries) <= 9 * math.sqrt(64)
        assert hits >= 0.95 * 200
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_6_unitarity_proxy():
    with criterion("6 dense-mode inner-product preservation of all operators"):
        rng = np.random.default_rng(1234)
        for stem in all_fixture_stems():
            problem = load_fixture(stem)
            depth = DEFAULT_DEPTHS[stem]
            plan = PreparationPlan.for_problem(problem, depth)
            if plan.layout.total_width > 16:
                continue
            layout = plan.layout

            # tree operators: Gram matrix of domain-state images must be the identity
            from qtreesearch import apply_action_superposition, apply_transition, init_ground

            state = init_ground(layout, problem.root)

            for level in range(depth):
                domain = [index_of(layout, e.node, p) for p, e in state.sorted_entries()]
                images = [dict(action_images(problem, layout, level, d)) for d in domain]
                assert _gram_defect(images) <= 1e-12, (stem, level, "action")
                state = apply_action_superposition(state, problem, level)

                domain = [index_of(layout, e.node, p) for p, e in state.sorted_entries()]
                images = [
                    {transition_images(problem, layout, level, d): 1.0} for d in domain
                ]
                assert _gram_defect(images) <= 1e-12, (stem, level, "transition")
                state = apply_transition(state, problem, level)

            # oracle: diagonal with unit-modulus entries preserves all inner products
            psi = prepare(plan)
            flipped = apply_oracle(psi, problem, MarkPredicate.goal_at(depth))
            assert abs(flipped.norm_sq() - psi.norm_sq()) <= 1e-12
            mags = np.abs(flipped.vector[np.nonzero(psi.vector)]) - np.abs(
                psi.vector[np.nonzero(psi.vector)]
            )
            assert np.max(np.abs(mags), initial=0.0) <= 1e-12

            # reflection: check <Rx|Ry> = <x|y> on random states over the support
            psi_s = prepare_tree_state(plan)
            keys = sorted(psi_s.entries)

            def random_state():
                amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
                amps /= np.linalg.norm(amps)
                entries = {p: psi_s.entries[p]._replace(amp=complex(a)) for p, a in zip(keys, amps)}
                return TreeState(psi_s.layout, entries=entries)

            for _ in range(3):
                x, y = random_state(), random_state()
                rx, ry = reflect_about(x, psi_s), reflect_about(y, psi_s)
                assert abs(inner_product(rx, ry) - inner_product(x, y)) <= 1e-12


def _gram_defect(images: list[dict[int, complex]]) -> float:
    columns = sorted({idx for im in images for idx in im})
    pos = {idx: j for j, idx in enumerate(columns)}
    m = np.zeros((len(images), len(columns)), dtype=np.complex128)
    for i, im in enumerate(images):
        for idx, coef in im.items():
            m[i, pos[idx]] = coef
    gram = m @ m.conj().T
    return float(np.max(np.abs(gram - np.eye(len(images)))))


def test_criterion_7_pruning_pipeline():
    with criterion("7 pruning: stage certainty and no-op equivalence"):
        # certainty: four equal subtrees, one below threshold, one iterate
        problem = load_fixture("prune2")
        plan = PipelinePlan(
            problem=problem,
            depth=2,
            stages=(PruningStage(level=1, threshold=2.0, iterations=1),),
            terminal_schedule=AmplificationSchedule(),
        )
        path, report = pruned_search(plan, seed=3)
        assert abs(report.stages[0].mass_before - 0.25) <= 1e-12
        assert abs(report.stages[0].mass_after - 1.0) <= 1e-12
        assert path == (0, 0)

        # all-k=0 pipeline equals the uninformed search amplitude-by-amplitude
        grid = load_fixture("grid4")
        terminal = AmplificationSchedule(policy="explicit", iterations=3, seed=8)
        noop = PipelinePlan(
            problem=grid,
            depth=4,
            stages=(
                PruningStage(level=1, threshold=9.0, iterations=0),
                PruningStage(level=3, threshold=9.0, iterations=0),
            ),
            terminal_schedule=terminal,
        )
        staged_state, _ = pruned_pipeline(noop, seed=8)
        prep = PreparationPlan.for_problem(grid, 4)
        plain_state, _ = amplify(
            prepare_tree_state(prep), prep, MarkPredicate.goal_at(4), terminal
        )
        assert staged_state.entries.keys() == plain_state.entries.keys()
        for key, entry in plain_state.entries.items():
            assert abs(staged_state.entries[key].amp - entry.amp) <= 1e-12


def test_criterion_8_determinism():
    with criterion("8 byte-identical records for identical seeded runs"):
        commands = [
            ["search", str(fixture_path("nonconst5")), "--depth", "2", "--seed", "17",
             "--policy", "exponential_search", "--format", "records"],
            ["search", str(fixture_path("comb6")), "--depth", "6", "--seed", "3",
             "--format", "records"],
            ["prune", str(fixture_path("prune2")), "--depth", "2", "--seed", "5",
             "--stage", "1:1:2.0", "--format", "records"],
            ["greedy", str(fixture_path("grid4")), "--depth", "8", "--seed", "11",
             "--format", "records"],
            ["compare", str(fixture_path("binary7")), "--depth", "2", "--seed", "2",
             "--seeds", "3", "--format", "records"],
            ["prepare", str(fixture_path("deadend")), "--depth", "2", "--state-dump"],
        ]
        for argv in commands:
            s1, t1 = cli_invoke(argv)
            s2, t2 = cli_invoke(argv)
            assert s1 == s2
            assert t1.encode() == t2.encode(), argv
