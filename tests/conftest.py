import io
from pathlib import Path

import pytest

from qtreesearch import load_problem

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def cli_invoke(argv) -> tuple[int, str]:
    """Parse argv, run the command, capture stdout text."""
    from qtreesearch.cli_reporting import build_parser, run

    args = build_parser().parse_args(argv)
    out = io.StringIO()
    status = run(args, out=out)
    return status, out.getvalue()

# depth used when a test sweeps "every shipped fixture"
DEFAULT_DEPTHS = {
    "tiny": 0,
    "chain4": 4,
    "binary7": 2,
    "goalless": 2,
    "nonconst5": 2,
    "deadend": 2,
    "mislead": 4,
    "prune2": 2,
    "quad21": 2,
    "comb6": 6,
    "comb10": 10,
    "grid4": 6,
}


def fixture_path(stem: str) -> Path:
    return FIXTURE_DIR / f"{stem}.problem"


def load_fixture(stem: str):
    return load_problem(fixture_path(stem))


def all_fixture_stems() -> list[str]:
    return sorted(DEFAULT_DEPTHS)


@pytest.fixture
def binary7():
    return load_fixture("binary7")


@pytest.fixture
def nonconst5():
    return load_fixture("nonconst5")


@pytest.fixture
def grid4():
    return load_fixture("grid4")
