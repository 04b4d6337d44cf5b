import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def test_every_name_the_benchmark_traces_exists():
    # the traced benchmark wraps functions under the names their callers bind;
    # Tracer() raises TracingError when a refactor drops or renames one
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracing.Tracer()
