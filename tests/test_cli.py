import tracemalloc

import pytest

from qtreesearch import write_problem
from qtreesearch.cli_reporting import build_parser, main, run
from qtreesearch.generators import needle_problem
from conftest import cli_invoke as invoke, fixture_path


def test_search_root_goal_exits_zero():
    status, text = invoke(
        ["search", str(fixture_path("tiny")), "--depth", "0", "--seed", "1"]
    )
    assert status == 0
    assert "solution=found" in text
    assert "path=" in text


def test_search_goalless_exits_one():
    status, text = invoke(
        ["search", str(fixture_path("goalless")), "--depth", "2", "--seed", "1"]
    )
    assert status == 1
    assert "solution=none" in text


def test_missing_file_exits_two(capsys):
    status, _ = invoke(["search", "no/such/file.problem", "--depth", "1"])
    assert status == 2
    assert "cannot read" in capsys.readouterr().err


def test_invalid_problem_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.problem"
    bad.write_text("problem p\nactions a\nstate x\nroot x\nedge x a y\n")
    status, _ = invoke(["search", str(bad), "--depth", "1"])
    assert status == 2
    assert "line 5" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["search"])  # missing problem and --depth
    assert exc.value.code == 2


def test_prepare_state_dump_binary():
    status, text = invoke(
        ["prepare", str(fixture_path("binary7")), "--depth", "2", "--state-dump"]
    )
    assert status == 0
    lines = text.strip().splitlines()
    assert len(lines) == 4
    assert all("re=0.5 im=0" in line for line in lines)
    assert lines[0] == "path=0,0 node=3 re=0.5 im=0"


def test_prepare_summary_and_samples():
    status, text = invoke(
        ["prepare", str(fixture_path("deadend")), "--depth", "2", "--samples", "3", "--seed", "4"]
    )
    assert status == 0
    assert "live_paths=2 dead_prefixes=1" in text
    assert text.count("sample path=") == 3


def test_search_records_format():
    status, text = invoke(
        [
            "search",
            str(fixture_path("binary7")),
            "--depth",
            "2",
            "--seed",
            "9",
            "--format",
            "records",
        ]
    )
    assert status == 0
    line = text.strip()
    assert line.startswith("command=search depth=2 n_paths=4 m_marked=1 a=0.25")
    assert line.endswith("solution=0,1")
    assert all("=" in part for part in line.split())


def test_identical_runs_are_byte_identical():
    for argv in (
        [
            "search",
            str(fixture_path("nonconst5")),
            "--depth",
            "2",
            "--seed",
            "5",
            "--policy",
            "exponential_search",
            "--format",
            "records",
        ],
        ["compare", str(fixture_path("binary7")), "--depth", "2", "--seed", "3", "--seeds", "4", "--format", "records"],
        ["iddfs", str(fixture_path("mislead")), "--depth", "3", "--seed", "2", "--format", "records"],
        ["greedy", str(fixture_path("grid4")), "--depth", "8", "--seed", "7", "--format", "records"],
    ):
        s1, t1 = invoke(argv)
        s2, t2 = invoke(argv)
        assert s1 == s2
        assert t1 == t2, argv


def test_different_seed_changes_records():
    argv = [
        "search",
        str(fixture_path("nonconst5")),
        "--depth",
        "2",
        "--policy",
        "exponential_search",
        "--format",
        "records",
    ]
    _, t1 = invoke(argv + ["--seed", "1"])
    _, t2 = invoke(argv + ["--seed", "2"])
    assert t1 != t2


def test_prune_stage_flag():
    status, text = invoke(
        [
            "prune",
            str(fixture_path("prune2")),
            "--depth",
            "2",
            "--seed",
            "3",
            "--stage",
            "1:1:2.0",
            "--format",
            "records",
        ]
    )
    assert status == 0
    assert "stage0=level:1,tau:2,k:1" in text
    assert "after:1" in text
    assert "solution=0,0" in text


def test_bad_stage_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(
            ["prune", "x.problem", "--depth", "2", "--stage", "1:1"]
        )
    assert exc.value.code == 2


def test_greedy_command():
    status, text = invoke(
        ["greedy", str(fixture_path("grid4")), "--depth", "8", "--seed", "1"]
    )
    assert status == 0
    assert "path=0,0,0,2,2,2" in text  # n,n,n then e,e,e


def test_greedy_failure_exits_one():
    status, text = invoke(
        ["greedy", str(fixture_path("mislead")), "--depth", "5", "--seed", "1"]
    )
    assert status == 1


def test_stats_command():
    status, text = invoke(["stats", str(fixture_path("nonconst5")), "--depth", "2"])
    assert status == 0
    assert "b_max=3" in text
    assert "paths=5" in text


def test_iddfs_finds_shallowest():
    status, text = invoke(
        ["iddfs", str(fixture_path("deadend")), "--depth", "4", "--seed", "2"]
    )
    assert status == 0
    assert "cumulative_oracle_queries=" in text


def test_compare_table_format():
    status, text = invoke(
        ["compare", str(fixture_path("comb6")), "--depth", "6", "--seeds", "2"]
    )
    assert status == 0
    assert "b_eff=" in text
    assert "quantum_fixed_optimal" in text
    assert "greedy_best_first" in text


def test_main_entry_point(capsys):
    status = main(["stats", str(fixture_path("binary7")), "--depth", "2"])
    assert status == 0
    assert "b_max=2" in capsys.readouterr().out


def test_exit_statuses_across_fixture_suite():
    # status 0 iff some depth-d path ends in a goal (seeded runs are
    # deterministic, and the chosen seed validates within the retry budget)
    from qtreesearch import enumerate_paths, load_problem
    from conftest import DEFAULT_DEPTHS, all_fixture_stems

    for stem in all_fixture_stems():
        depth = DEFAULT_DEPTHS[stem]
        problem = load_problem(fixture_path(stem))
        solvable = any(g for _, _, g in enumerate_paths(problem, depth))
        status, _ = invoke(
            ["search", str(fixture_path(stem)), "--depth", str(depth), "--seed", "1"]
        )
        assert status == (0 if solvable else 1), stem
        status, _ = invoke(["stats", str(fixture_path(stem)), "--depth", str(max(depth, 1))])
        assert status == (0 if stem != "tiny" else 2), stem  # tiny generates no nodes


@pytest.mark.parametrize("command", ["search", "prune"])
def test_tau_marks_below_threshold_values(command):
    # of the three depth-2 paths of mislead, two end at h <= 2.5 (mass 1/4 + 1/2)
    status, text = invoke(
        [command, str(fixture_path("mislead")), "--depth", "2", "--tau", "2.5", "--format", "records"]
    )
    assert status == 0
    assert "m_marked=2 a=0.75" in text


def test_state_dump_is_not_an_output_format():
    # nor is --growth an option: exponential search grows by a fixed 6/5
    for rest in (["--format", "state-dump"], ["--growth", "1.3"]):
        with pytest.raises(SystemExit) as exc:
            main(["search", str(fixture_path("binary7")), "--depth", "2", *rest])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["prepare", "binary7", "--depth", "2", "--samples", "-1"], "--samples"),
        (["search", "binary7", "--depth", "2", "--iterations", "3"], "--iterations"),
        (["iddfs", "binary7", "--depth", "2", "--iterations", "3"], "--iterations"),
        (["prune", "prune2", "--depth", "2", "--iterations", "3"], "--iterations"),
        (["greedy", "grid4", "--depth", "0", "--budget", "-1"], "budget"),
        (["prepare", "binary7", "--depth", "2", "--state-dump", "--samples", "1"], "--samples"),
    ],
)
def test_flag_that_cannot_be_honoured_exits_two(argv, message, capsys):
    command, stem, *rest = argv
    status, text = invoke([command, str(fixture_path(stem)), *rest])
    assert status == 2
    assert text == ""
    assert message in capsys.readouterr().err


def test_tree_above_the_prefix_cap_exits_two(tmp_path, capsys):
    # needle b=2 d=25 has 2**25 paths; the guard refuses it before preparing
    path = tmp_path / "needle.problem"
    write_problem(needle_problem(25, 2), path)
    status, text = invoke(["search", str(path), "--depth", "25"])
    assert status == 2
    assert text == ""
    assert "2**24" in capsys.readouterr().err


class _Sink:
    """An output stream that keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)


@pytest.mark.parametrize(
    "argv, sizes",
    [
        (["prepare", str(fixture_path("grid4")), "--depth", "6", "--samples"], ("2000", "20000")),
        (["prepare", str(fixture_path("grid4")), "--state-dump", "--depth"], ("6", "9")),
    ],
    ids=["samples", "state-dump"],
)
def test_prepare_streams_its_output(argv, sizes):
    # 2,000 and 20,000 draws, and dumps of 602 and 20,378 rows: each line is
    # printed as it is made, so the peak does not grow with the output
    run(build_parser().parse_args(argv + [sizes[0]]), out=_Sink())  # caches outside the window
    peaks = []
    for size in sizes:
        args = build_parser().parse_args(argv + [size])
        tracemalloc.start()
        try:
            assert run(args, out=_Sink()) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + (64 << 10), peaks
