"""Run one workload in this process and print its measurements as one JSON line.

Started by ``run.py``, one process per workload run, so that peak RSS and
set-up time belong to that workload alone. With ``--setup-only`` it stops
right after set-up; run.py starts several of those to take the median.

The loop is closed: one solve at a time, each checked outside the timed
region. It runs until ``--seconds`` have passed and at least the workload's
counted solves are done, and it stops only at the end of a pass. The counts it
reports (oracle queries, prefixes, rounds, ...) cover the counted solves only,
so they repeat exactly for a given seed, however fast the machine is.

With ``--trace 1`` every input is solved twice, untraced and traced, in
alternating order, so the tracing overhead is measured on the same work. The
layer metrics come from the traced solves; times are seconds per solve.
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import qtreesearch

    where = Path(qtreesearch.__file__).resolve().parent
    if where != ROOT / "src" / "qtreesearch":
        raise SystemExit(f"error: imported qtreesearch from {where}, not from {ROOT / 'src'}")


def layer_metrics(tracer, workload, traced_solves: int, counted: Counter, every: Counter) -> dict:
    """Per-layer metrics of a traced run: self seconds per solve, and counts."""
    from tracing import TracingError

    times, seen = tracer.self_times()
    silent = [layer for layer in workload.layers if not any(m.startswith(layer + ".") for m in seen)]
    if silent:
        raise TracingError(
            f"layers {silent} recorded no span on {workload.name}: "
            "a traced name is no longer on the program's call path"
        )
    per_solve = {m: t / traced_solves for m, t in times.items()}
    rounds = counted["amplitude_engine.rounds"]
    prepare_s = times["tree_prep.prepare_s"]
    return {
        "problem_model.parse_s": per_solve["problem_model.parse_s"],
        "problem_model.classical_s": per_solve["problem_model.classical_s"],
        "problem_model.expansions": counted["problem_model.expansions"],
        # the inputs are built once, during set-up, so this one is per set-up
        "generators.build_s": times["generators.build_s"],
        "tree_prep.prepare_s": per_solve["tree_prep.prepare_s"],
        "tree_prep.prefixes": counted["tree_prep.prefixes"],
        "tree_prep.prefixes_per_s": every["tree_prep.prefixes"] / prepare_s if prepare_s else 0.0,
        "statevector.sort_s": per_solve["statevector.sort_s"],
        "statevector.sample_s": per_solve["statevector.sample_s"],
        "statevector.samples": counted["statevector.samples"],
        "amplitude_engine.amplify_s": per_solve["amplitude_engine.amplify_s"],
        "amplitude_engine.calls": counted["amplitude_engine.calls"],
        "amplitude_engine.amp_updates": counted["amplitude_engine.amp_updates"],
        "amplitude_engine.rounds": rounds,
        "amplitude_engine.useful_round_frac": (
            counted["amplitude_engine.validated_rounds"] / rounds if rounds else 0.0
        ),
        "amplitude_engine.budget_exhausted": counted["amplitude_engine.budget_exhausted"],
        "search_drivers.self_s": per_solve["search_drivers.self_s"],
        "search_drivers.validation_draws": counted["search_drivers.validation_draws"],
        "cli_reporting.self_s": per_solve["cli_reporting.self_s"],
        "cli_reporting.exit0": counted["cli_reporting.exit0"],
        "cli_reporting.exit1": counted["cli_reporting.exit1"],
        "cli_reporting.exit2": counted["cli_reporting.exit2"],
    }


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, run the closed loop, and return the run's measurements."""
    import tracing
    from workloads import Outcome

    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()  # so the generators' build during set-up is traced
    workload.setup()
    if tracer:
        tracer.uninstall()
    setup_end = time.monotonic()

    times: dict[bool, list[float]] = {False: [], True: []}
    counted, every = Counter(), Counter()
    paths = oracle_queries = counted_failed = attempted = failed = missed = known = wrong = 0
    unexpected: list[str] = []
    start = time.monotonic()
    i = 0
    while i < workload.counted or i % workload.pass_size or time.monotonic() - start < seconds:
        args = workload.inputs(i)
        modes = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        for traced in modes:
            if traced:
                tracer.solve = i
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = workload.solve(args)
            except Exception as exc:  # a solve that raises is a failed solve
                result = exc
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
                solve_counts = tracer.take_counts()
                every += solve_counts
                if i < workload.counted:
                    counted += solve_counts
            if isinstance(result, Exception):
                outcome = Outcome(problems=[f"raised {type(result).__name__}: {result}"])
            else:
                try:
                    outcome = workload.check(args, result)
                except Exception as exc:  # output the check cannot read
                    outcome = Outcome(problems=[f"check raised {type(exc).__name__}: {exc}"])
            attempted += 1
            failed += bool(outcome.problems or outcome.missed)
            missed += bool(outcome.missed)
            if outcome.known_defect:
                known += 1
            elif outcome.problems:
                wrong += 1
                if len(unexpected) < 20:
                    unexpected.append(f"solve {i}: " + "; ".join(outcome.problems))
            times[traced].append(elapsed)
            if not traced:
                paths += outcome.paths
                if i < workload.counted:
                    oracle_queries += outcome.oracle_queries
                    counted_failed += bool(outcome.problems or outcome.missed)
        i += 1

    import numpy

    solve_s = times[False]
    out = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": int(trace),
        "setup_end": setup_end,
        "attempted": attempted,
        "failed": failed,
        "missed": missed,
        "known_defect": known,
        "wrong": wrong,
        "unexpected": unexpected,
        "solves": len(solve_s),
        "counted_solves": workload.counted,
        "counted_failed": counted_failed,
        "solve_s_p50": statistics.median(solve_s),
        "solve_s_p90": statistics.quantiles(solve_s, n=10)[-1] if len(solve_s) >= 100 else None,
        "paths_per_s": paths / sum(solve_s),
        "oracle_queries": oracle_queries,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer:
        out["layers"] = layer_metrics(tracer, workload, len(times[True]), counted, every)
        out["overhead_frac"] = sum(times[True]) / sum(solve_s) - 1.0
        spans = HERE / "results" / f"{workload.name}-seed{workload.seed}-spans.json.gz"
        spans.parent.mkdir(exist_ok=True)
        tracer.write(spans)
        out["spans_file"] = str(spans.relative_to(ROOT))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        workload.setup()
        print(json.dumps({"setup_end": time.monotonic()}))
        return 0
    print(json.dumps(measure(workload, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
