"""Tests of the benchmark itself.

    python3 -m pytest -q benchmark/selftest.py

The file name keeps these out of the repository's own test run: they take
about a minute, most of it the fixed-seed repeats of the two large workloads.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qtreesearch import problem_model, search_drivers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("fixture", sorted(p.stem for p in (ROOT / "fixtures").glob("*.problem")))
def test_census_agrees_with_enumerate_paths(fixture):
    problem = problem_model.load_problem(ROOT / "fixtures" / f"{fixture}.problem")
    levels = workloads.census(problem, 4, problem.goals.__contains__)
    for depth, level in enumerate(levels):
        paths = problem_model.enumerate_paths(problem, depth)
        goal_paths = [p for p, _, is_goal in paths if is_goal]
        assert (level.n_paths, level.m_marked) == (len(paths), len(goal_paths))
        mass = sum(problem_model.path_amplitude(problem, p) ** 2 for p in goal_paths)
        assert level.mass == pytest.approx(mass, abs=1e-12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_at_a_fixed_seed(name):
    def counts():
        result = worker.measure(workloads.WORKLOADS[name](seed=3), seconds=0, trace=True)
        layers = result["layers"]
        return {
            "oracle_queries": result["oracle_queries"],
            "failed_frac": result["counted_failed"] / result["counted_solves"],
            "tree_prep.prefixes": layers["tree_prep.prefixes"],
            "amplitude_engine.amp_updates": layers["amplitude_engine.amp_updates"],
            "amplitude_engine.rounds": layers["amplitude_engine.rounds"],
        }

    first = counts()
    assert first["oracle_queries"] > 0 and first["tree_prep.prefixes"] > 0
    assert counts() == first


def test_a_missing_traced_name_fails_with_its_layer(monkeypatch):
    monkeypatch.delattr(search_drivers, "_measure_with_rng")
    with pytest.raises(tracing.TracingError, match=r"search_drivers\._measure_with_rng.*statevector\.sample_s"):
        tracing.Tracer()


def test_a_layer_without_spans_fails_instead_of_reporting_zero():
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TracingError, match="recorded no span"):
        worker.layer_metrics(tracer, workloads.NeedleDeep(0), 1, Counter(), Counter())


def test_tracer_restores_every_name():
    tracer = tracing.Tracer()
    before = [getattr(target, attr) for target, attr, _, _ in tracer._slots]
    tracer.install()
    tracer.uninstall()
    assert [getattr(target, attr) for target, attr, _, _ in tracer._slots] == before


def test_checks_reject_wrong_outputs():
    needle = workloads.NeedleDeep(0)
    needle.DEPTH = 6
    needle.setup()
    sched = needle.inputs(0)
    path, report = needle.solve(sched)
    assert needle.check(sched, (path, report)).problems == []
    assert needle.check(sched, (tuple(1 - a for a in path), report)).problems

    cli = workloads.CliFixtures(0)
    cli.setup()
    args = cli.inputs(workloads.COMMANDS.index("search grid4 --depth 6 --seed {seed}"))
    status, text, err = cli.solve(args)
    assert cli.check(args, (status, text, err)).problems == []
    tampered = cli.check(args, (status, text.replace("m_marked=20", "m_marked=19"), err))
    assert tampered.problems and tampered.known_defect is None


def test_the_tau_defect_is_counted_as_a_known_failure():
    cli = workloads.CliFixtures(0)
    cli.setup()
    args = cli.inputs(workloads.COMMANDS.index("search mislead --depth 2 --tau 2.5 --seed {seed}"))
    outcome = cli.check(args, cli.solve(args))
    assert outcome.problems and outcome.known_defect


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_follows_the_declared_metrics(trace, declared):
    proc = _run(ROOT, "--workload", "cli-fixtures", "--seed", "5", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] >= 1  # the --tau defect
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[declared]
    }


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "--workload", "cli-fixtures", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
