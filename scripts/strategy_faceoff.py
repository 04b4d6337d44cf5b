#!/usr/bin/env python3
"""Classical expansions versus quantum oracle queries across the fixture set.

The three instances tell the three stories: the needle (quadratic speedup of
the uninformed quantum search over uninformed classical search, and a sharp
heuristic overcoming both), the skewed tree (effective branching tracking the
average, not the maximum), and the misleading heuristic (informed strategies
losing to uninformed ones).
"""
from pathlib import Path

from qtreesearch.cli_reporting import main as cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CASES = [
    ("comb10.problem", 10),
    ("nonconst5.problem", 2),
    ("grid4.problem", 6),
    ("mislead.problem", 4),
]


def main() -> None:
    for name, depth in CASES:
        cli(["compare", str(FIXTURES / name), "--depth", str(depth), "--seeds", "5"])
        print()


if __name__ == "__main__":
    main()
