"""CLI goldens: the stdout of every subcommand, in both formats, byte for byte.

Each case's expected stdout is ``tests/golden/<name>.txt``. A change that
alters a CLI line on purpose rewrites the golden and says which line changed
and why; any other difference is a regression.
"""
from pathlib import Path

import pytest

from conftest import cli_invoke, fixture_path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# name -> (subcommand, fixture, remaining argv, exit status)
CASES = {
    "prepare-table": ("prepare", "binary7", "--depth 2 --seed 3", 0),
    "prepare-records": ("prepare", "binary7", "--depth 2 --seed 3 --format records", 0),
    "prepare-samples": ("prepare", "deadend", "--depth 2 --samples 3 --seed 4", 0),
    "prepare-state-dump": ("prepare", "binary7", "--depth 2 --state-dump", 0),
    "prepare-state-dump-deadend": ("prepare", "deadend", "--depth 3 --state-dump", 0),
    "search-table": ("search", "binary7", "--depth 2 --seed 7", 0),
    "search-records": ("search", "binary7", "--depth 2 --seed 7 --format records", 0),
    "search-exponential-table": (
        "search", "comb6", "--depth 6 --policy exponential_search --seed 7", 0,
    ),
    "search-exponential-records": (
        "search", "comb6", "--depth 6 --policy exponential_search --seed 7 --format records", 0,
    ),
    "search-explicit-records": (
        "search", "nonconst5", "--depth 2 --policy explicit --iterations 2 --seed 2 --format records", 0,
    ),
    "search-goalless-table": ("search", "goalless", "--depth 2 --seed 1", 1),
    "search-root-records": ("search", "tiny", "--depth 0 --seed 1 --format records", 0),
    "search-half-table": ("search", "mislead", "--depth 2 --seed 0", 0),
    "search-half-records": ("search", "mislead", "--depth 2 --seed 0 --format records", 0),
    "search-tau-table": ("search", "mislead", "--depth 2 --tau 2.5 --seed 0", 0),
    "search-tau-records": ("search", "mislead", "--depth 2 --tau 2.5 --seed 0 --format records", 0),
    "iddfs-table": ("iddfs", "deadend", "--depth 4 --seed 1", 0),
    "iddfs-records": ("iddfs", "deadend", "--depth 4 --seed 1 --format records", 0),
    "iddfs-chain-records": ("iddfs", "chain4", "--depth 4 --seed 2 --format records", 0),
    "iddfs-exponential-records": (
        "iddfs", "grid4", "--depth 6 --policy exponential_search --seed 3 --format records", 0,
    ),
    "prune-table": ("prune", "prune2", "--depth 2 --stage 1:1:2.0 --seed 3", 0),
    "prune-records": ("prune", "prune2", "--depth 2 --stage 1:1:2.0 --seed 3 --format records", 0),
    "prune-skipped-table": ("prune", "prune2", "--depth 2 --stage 1:1:0.0 --seed 3", 0),
    "prune-skipped-records": (
        "prune", "prune2", "--depth 2 --stage 1:1:0.0 --seed 3 --format records", 0,
    ),
    "prune-grid-records": ("prune", "grid4", "--depth 6 --stage 3:1:3.5 --seed 5 --format records", 0),
    "prune-tau-table": ("prune", "mislead", "--depth 2 --tau 2.5 --seed 0", 0),
    "prune-tau-records": ("prune", "mislead", "--depth 2 --tau 2.5 --seed 0 --format records", 0),
    "greedy-table": ("greedy", "grid4", "--depth 8 --seed 1", 0),
    "greedy-records": ("greedy", "grid4", "--depth 8 --seed 1 --format records", 0),
    "greedy-fail-records": ("greedy", "mislead", "--depth 5 --seed 1 --format records", 1),
    "compare-table": ("compare", "comb10", "--depth 10 --seeds 5 --seed 0", 0),
    "compare-records": ("compare", "comb10", "--depth 10 --seeds 5 --seed 0 --format records", 0),
    "compare-binary-records": ("compare", "binary7", "--depth 2 --seeds 4 --seed 3 --format records", 0),
    "stats-table": ("stats", "nonconst5", "--depth 2", 0),
    "stats-records": ("stats", "nonconst5", "--depth 2 --format records", 0),
    "stats-deadend-records": ("stats", "deadend", "--depth 3 --format records", 0),
}


def _argv(case) -> list[str]:
    command, fixture, rest, _ = case
    return [command, str(fixture_path(fixture)), *rest.split()]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    status, text = cli_invoke(_argv(CASES[name]))
    assert status == CASES[name][3]
    assert text == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
