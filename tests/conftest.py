import io
from pathlib import Path

import pytest
from hypothesis import strategies as st

from qtreesearch import ProblemSpec, load_problem

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


@st.composite
def connected_problems(draw):
    """A random problem: 2-5 states, 1-3 actions, a partial transition table,
    a goal set and a heuristic on every state."""
    n_states = draw(st.integers(2, 5))
    n_actions = draw(st.integers(1, 3))
    transition = {}
    for s in range(n_states):
        for a in range(n_actions):
            if draw(st.booleans()):
                transition[(s, a)] = draw(st.integers(0, n_states - 1))
    goals = draw(st.frozensets(st.integers(0, n_states - 1)))
    levels = st.sampled_from([0.0, 1.0, 2.0])
    heuristic = draw(st.lists(levels, min_size=n_states, max_size=n_states))
    return ProblemSpec(
        name="rnd",
        states=tuple(f"s{i}" for i in range(n_states)),
        actions=tuple(f"a{j}" for j in range(n_actions)),
        transition=transition,
        root=0,
        goals=goals,
        heuristic=dict(enumerate(heuristic)),
    ).validate()
