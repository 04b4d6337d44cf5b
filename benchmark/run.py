"""Benchmark of qtreesearch: run a workload in its own process and print its metrics.

    python3 benchmark/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from any directory; the program is taken from ``src/`` next to this
directory. Without ``--workload`` every workload runs, one after the other.
Each metric is printed by name with its unit, then the last line of standard
output is one JSON object with the keys correct, attempted, failed and metrics
(for ``all``: one such object per workload, keyed by name). ``--trace 0``
gives the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer
ones. A full record of each run, with the machine and versions it ran on, is
written to ``benchmark/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("needle-deep", "grid-iddfs-bbht", "cli-fixtures")
DEFAULT_SEED = 0
SETUP_PROBES = 7  # extra set-up-only processes; setup_s is the median over these and the run
DEADLINE_S = 170.0  # a run must end within 180 s
# One BLAS thread: the worker and this process then use no more than two
# processors, and BLAS threads do not add noise on a shared machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(RuntimeError):
    pass


def git_sha() -> str:
    """The checked-out commit, read from .git without starting git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py to completion; return its JSON result and its start time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting the worker")
    env = {**os.environ, **THREAD_ENV}
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {args} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args} exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), started
    except (IndexError, ValueError):
        raise BenchmarkError(f"worker {args} printed no result") from None


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe, started = _worker(common + ["--setup-only"], deadline)
            setups.append(probe["setup_end"] - started)
    result, started = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(result["setup_end"] - started)

    if trace:
        declared = spec["per_layer"]
        values = result["layers"]
    else:
        declared = spec["end_to_end"]
        values = {
            "solve_s_p50": result["solve_s_p50"],
            "paths_per_s": result["paths_per_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
            "oracle_queries": result["oracle_queries"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    summary = {
        "correct": result["wrong"] == 0 and result["attempted"] >= 1,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": result["python"],
        "numpy": result["numpy"],
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "setup_samples_s": setups,
        "worker": result,
        "summary": summary,
    }
    out = HERE / "results" / f"{name}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    _print(record)
    return summary


def _print(record: dict) -> None:
    w = record["worker"]
    print(
        f"{record['workload']}: seed={record['seed']} trace={record['trace']} sha={record['git_sha'][:12]}"
        f" nproc={record['nproc']} python={record['python']} numpy={record['numpy']}"
        f" OPENBLAS_NUM_THREADS={record['blas_threads']}"
    )
    for name, m in record["summary"]["metrics"].items():
        print(f"  {name:36s} {m['value']:<22.6g} {m['unit']}")
    if not record["trace"]:
        p90 = w["solve_s_p90"]
        print(f"  {'solve_s_p50 samples':36s} {w['solves']:<22d} count")
        if p90 is not None:  # only where at least ten solves lie above the 90th percentile
            print(f"  {'solve_s_p90':36s} {p90:<22.6g} s")
    else:
        print(f"  {'tracing overhead':36s} {w['overhead_frac']:<22.6g} frac of untraced solve time")
        print(f"  spans written to {w['spans_file']}")
    counted = w["counted_solves"]
    print(
        f"  {'failed_frac':36s} {w['counted_failed'] / counted:<22.6g}"
        f" ({w['counted_failed']} of the {counted} counted solves; run: {w['failed']} of"
        f" {w['attempted']}, {w['missed']} missed, {w['known_defect']} known defect, {w['wrong']} wrong)"
    )
    for line in w["unexpected"]:
        print(f"  WRONG {line}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # lets subprocess.run stop the worker
    try:
        if not (ROOT / "src" / "qtreesearch" / "__init__.py").is_file():
            raise BenchmarkError(f"no program to measure: {ROOT / 'src' / 'qtreesearch'} is missing")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {n: run_workload(n, args.seed, seconds, args.trace, spec) for n in names}
    except (BenchmarkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
