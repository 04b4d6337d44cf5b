#!/usr/bin/env python3
"""Replay the benchmark's seeded solves and print every output, for ``cmp``.

    PYTHONPATH=<checkout>/src python3 scripts/replay_outputs.py > out.txt
    python3 scripts/replay_outputs.py --cli 17 --grid 1 --needle 1

Run it once with each checkout's ``src`` on ``PYTHONPATH`` and ``cmp`` the two
files: any seeded output that moved, and any solve whose check changed from
pass to fail, shows as a difference. The solves are those of
``benchmark/workloads.py`` at run seed ``--seed``, which the script imports
and does not change:

* the first ``--cli`` solves of ``cli-fixtures`` (``CliFixtures(seed).inputs(i)``
  through ``cli_reporting.main``): ``## i argv -> status``, then stdout and
  the check's verdict;
* the first ``--grid`` solves of ``grid-iddfs-bbht`` and ``--needle`` of
  ``needle-deep``: the solution, and per depth the queries, samples and
  warnings, with every float in ``.12g``, then the check's verdict.

The module path of the ``qtreesearch`` it imported goes to stderr, so that
stdout is the same wherever the checkout lies.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "benchmark"))  # after PYTHONPATH, so its src is the one imported

import qtreesearch  # noqa: E402
import workloads  # noqa: E402


def verdict(outcome) -> str:
    if outcome.missed:
        return f"check: missed {outcome.missed}"
    return "check: " + ("; ".join(outcome.problems) if outcome.problems else "ok")


def report_lines(depth: int, r) -> list[str]:
    samples = " ".join(",".join(map(str, path)) + f">{node}" for path, node in r.samples)
    return [
        f"  depth={depth} n_paths={r.n_paths} m_marked={r.m_marked} "
        f"a={r.initial_probability:.12g} theta={r.theta:.12g} queries={r.oracle_queries} "
        f"predicted={r.predicted_probability:.12g} measured={r.measured_probability:.12g} "
        f"warnings={','.join(r.warnings) or '-'}",
        f"  samples={samples or '-'}",
    ]


def replay_cli(seed: int, n: int, out) -> None:
    workload = workloads.CliFixtures(seed)
    workload.setup()
    for i in range(n):
        args = workload.inputs(i)
        status, text, _ = result = workload.solve(args)
        argv = " ".join(args[1]).replace(str(ROOT / "fixtures") + "/", "")
        out.write(f"## {i} {argv} -> {status}\n{text}")
        out.write(verdict(workload.check(args, result)) + "\n")


def replay_searches(workload, n: int, out) -> None:
    workload.setup()
    for i in range(n):
        sched = workload.inputs(i)
        result = path, reports = workload.solve(sched)
        if isinstance(reports, list):  # iterative deepening reports each depth from 0
            depths = range(len(reports))
        else:
            depths, reports = [workload.DEPTH], [reports]
        solution = "-" if path is None else ",".join(map(str, path))
        out.write(f"## {workload.name} {i} seed={sched.seed} solution={solution}\n")
        for depth, r in zip(depths, reports):
            out.write("\n".join(report_lines(depth, r)) + "\n")
        out.write(verdict(workload.check(sched, result)) + "\n")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="the benchmark run seed")
    parser.add_argument("--cli", type=int, default=3400, help="cli-fixtures solves (17 a pass)")
    parser.add_argument("--grid", type=int, default=300, help="grid-iddfs-bbht solves")
    parser.add_argument("--needle", type=int, default=20, help="needle-deep solves")
    args = parser.parse_args(argv)
    print(f"qtreesearch from {Path(qtreesearch.__file__).parent}", file=sys.stderr)
    replay_cli(args.seed, args.cli, sys.stdout)
    replay_searches(workloads.GridIddfsBbht(args.seed), args.grid, sys.stdout)
    replay_searches(workloads.NeedleDeep(args.seed), args.needle, sys.stdout)


if __name__ == "__main__":
    main()
