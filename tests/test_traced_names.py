import importlib.util
from pathlib import Path

from qtreesearch import cli_reporting, generators, search_drivers
from qtreesearch.amplitude_engine import AmplificationSchedule
from conftest import fixture_path

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"
LAYERS = {
    "problem_model",
    "generators",
    "tree_prep",
    "statevector",
    "amplitude_engine",
    "search_drivers",
    "cli_reporting",
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_name_the_benchmark_traces_exists():
    # the traced benchmark wraps functions under the names their callers bind;
    # Tracer() raises TracingError when a refactor drops or renames one
    _load_tracing().Tracer()


def test_trace_hooks_run_on_every_layer(capsys):
    # the hooks read state and report attributes; a refactor that breaks one
    # fails here, not only in a traced benchmark run
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        for argv in (
            ["prune", str(fixture_path("prune2")), "--depth", "2", "--stage", "1:1:2.0"],
            ["prepare", str(fixture_path("binary7")), "--depth", "2", "--samples", "2"],
            ["compare", str(fixture_path("binary7")), "--depth", "2", "--seeds", "1"],
        ):
            assert cli_reporting.main(argv) == 0
        # looked up on the modules at call time, where the wrappers are installed
        path, _ = search_drivers.iterative_deepening_search(
            generators.grid_problem(3, 3), 4, AmplificationSchedule(policy="exponential_search")
        )
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert path is not None
    _, seen = tracer.self_times()
    assert {metric.split(".")[0] for metric in seen} == LAYERS
    # len(state.entries) is the prefix count; these totals repeat exactly
    assert tracer.counts["tree_prep.prefixes"] == 92
    assert tracer.counts["amplitude_engine.amp_updates"] == 2248
    assert tracer.counts["amplitude_engine.calls"] > 0
