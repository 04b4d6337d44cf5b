"""Command-line entry point.

Exit status contract: 0 when a solution was found (or a stats/prepare run
succeeded), 1 when the search finished without a solution, 2 on input or
usage errors. All randomness flows from --seed; identical invocations print
byte-identical records.
"""
from __future__ import annotations

import argparse
import sys

from .amplitude_engine import AmplificationSchedule, MarkPredicate, RunReport
from .problem_model import (
    ProblemFormatError,
    ProblemSpec,
    ValidationError,
    branching_stats,
    enumerate_paths,
    load_problem,
)
from .search_drivers import (
    PipelinePlan,
    PruningStage,
    compare_strategies,
    greedy_quantum_loop,
    iterative_deepening_search,
    pruned_search,
    uninformed_search,
)
from .statevector import measure_paths, state_dump_lines
from .tree_prep import PreparationPlan, prepare_tree_state

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_INPUT_ERROR = 2


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _path_str(path: tuple[int, ...] | None) -> str:
    if path is None:
        return "-"
    return ",".join(str(a) for a in path) if path else ""


def _schedule(args: argparse.Namespace) -> AmplificationSchedule:
    return AmplificationSchedule(
        policy=args.policy,
        iterations=args.iterations,
        growth=args.growth,
        seed=args.seed,
        max_oracle_queries=args.budget,
    )


def _emit_run(
    args: argparse.Namespace,
    report: RunReport,
    path: tuple[int, ...] | None,
    out,
    depth: int | None = None,
) -> None:
    depth = args.depth if depth is None else depth
    if args.output_format == "records":
        print(
            f"command={args.command} depth={depth} "
            + report.to_record()
            + f" solution={_path_str(path)}",
            file=out,
        )
        return
    status = "found" if path is not None else "none"
    print(f"[{args.command}] depth={depth} solution={status} path={_path_str(path)}", file=out)
    print(
        f"  paths={report.n_paths} marked={report.m_marked} a={_fmt(report.initial_probability)}"
        f" iterations={report.iterations} oracle_queries={report.oracle_queries}",
        file=out,
    )
    print(
        f"  predicted={_fmt(report.predicted_probability)}"
        f" measured={_fmt(report.measured_probability)} seed={report.seed}"
        + (f" warnings={'|'.join(report.warnings)}" if report.warnings else ""),
        file=out,
    )
    for i, st in enumerate(report.stages):
        print(
            f"  stage{i}: level={st.level} tau={_fmt(st.threshold)} k={st.iterations}"
            f" mass {_fmt(st.mass_before)} -> {_fmt(st.mass_after)}"
            + (" (skipped)" if st.skipped else ""),
            file=out,
        )


def _cmd_prepare(args: argparse.Namespace, problem: ProblemSpec, out) -> int:
    plan = PreparationPlan.for_problem(problem, args.depth)
    state = prepare_tree_state(plan)
    if args.state_dump:
        for line in state_dump_lines(state):
            print(line, file=out)
        return EXIT_OK
    n_live = sum(1 for _, e in state.sorted_entries() if not e.dead)
    n_dead = len(state.entries) - n_live
    print(
        f"[prepare] depth={args.depth} live_paths={n_live} dead_prefixes={n_dead}"
        f" norm={_fmt(state.norm_sq())} total_width={plan.layout.total_width}",
        file=out,
    )
    if args.samples > 0:
        for path, node in measure_paths(state, args.samples, args.seed):
            print(f"  sample path={_path_str(path)} node={problem.states[node]}", file=out)
    return EXIT_OK


def _cmd_search(args: argparse.Namespace, problem: ProblemSpec, out) -> int:
    predicate = None
    if args.tau is not None:
        predicate = MarkPredicate.threshold_at(args.depth, args.tau)
    path, report = uninformed_search(problem, args.depth, _schedule(args), predicate)
    _emit_run(args, report, path, out)
    return EXIT_OK if path is not None else EXIT_NO_SOLUTION


def _cmd_iddfs(args: argparse.Namespace, problem: ProblemSpec, out) -> int:
    path, reports = iterative_deepening_search(problem, args.depth, _schedule(args))
    for depth, report in enumerate(reports):
        _emit_run(args, report, path if depth == len(reports) - 1 else None, out, depth=depth)
    if args.output_format == "table":
        total = sum(r.oracle_queries for r in reports)
        print(f"[iddfs] cumulative_oracle_queries={total}", file=out)
    return EXIT_OK if path is not None else EXIT_NO_SOLUTION


def _cmd_prune(args: argparse.Namespace, problem: ProblemSpec, out) -> int:
    stages = tuple(
        PruningStage(level=level, iterations=k, threshold=tau)
        for level, k, tau in args.stages
    )
    terminal_predicate = None
    if args.tau is not None:
        terminal_predicate = MarkPredicate.threshold_at(args.depth, args.tau)
    plan = PipelinePlan(
        problem=problem,
        depth=args.depth,
        stages=stages,
        terminal_schedule=_schedule(args),
        terminal_predicate=terminal_predicate,
    )
    path, report = pruned_search(plan, args.seed)
    _emit_run(args, report, path, out)
    return EXIT_OK if path is not None else EXIT_NO_SOLUTION


def _cmd_greedy(args: argparse.Namespace, problem: ProblemSpec, out) -> int:
    path, reports = greedy_quantum_loop(problem, args.depth, args.seed, args.budget)
    for step, report in enumerate(reports):
        _emit_run(args, report, None, out, depth=step)
    if args.output_format == "table":
        print(
            f"[greedy] solution={'found' if path is not None else 'none'}"
            f" path={_path_str(path)}",
            file=out,
        )
    elif args.output_format == "records":
        print(f"command=greedy result solution={_path_str(path)}", file=out)
    return EXIT_OK if path is not None else EXIT_NO_SOLUTION


def _cmd_compare(args: argparse.Namespace, problem: ProblemSpec, out) -> int:
    seeds = tuple(args.seed + i for i in range(args.seeds))
    table = compare_strategies(
        problem, args.depth, seeds, query_budget=args.budget
    )
    if args.output_format == "records":
        for line in table.render_records():
            print(line, file=out)
    else:
        print(table.render_text(), file=out)
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace, problem: ProblemSpec, out) -> int:
    stats = branching_stats(problem, args.depth)
    n_paths = len(enumerate_paths(problem, args.depth))
    if args.output_format == "records":
        print(
            f"command=stats depth={args.depth} b_max={stats.b_max}"
            f" b_avg={_fmt(stats.b_avg)} b_eff={_fmt(stats.b_eff)}"
            f" nodes_generated={stats.nodes_generated}"
            f" internal_nodes={stats.internal_nodes} paths={n_paths}",
            file=out,
        )
    else:
        print(
            f"[stats] depth={args.depth} b_max={stats.b_max} b_avg={_fmt(stats.b_avg)}"
            f" b_eff={_fmt(stats.b_eff)} nodes_generated={stats.nodes_generated}"
            f" paths={n_paths}",
            file=out,
        )
    return EXIT_OK


_COMMANDS = {
    "prepare": _cmd_prepare,
    "search": _cmd_search,
    "iddfs": _cmd_iddfs,
    "prune": _cmd_prune,
    "greedy": _cmd_greedy,
    "compare": _cmd_compare,
    "stats": _cmd_stats,
}


def _parse_stage(text: str) -> tuple[int, int, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("stage must be level:k:tau")
    try:
        return int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad stage {text!r}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtreesearch",
        description="Simulate quantum tree search over explicit problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, sampling: bool = True) -> None:
        p.add_argument("problem", help="path to a problem file")
        p.add_argument("--depth", type=int, required=True, help="tree depth d")
        p.add_argument(
            "--format", dest="output_format", choices=("table", "records"), default="table"
        )
        if sampling:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("prepare", help="build the superposition tree and inspect it")
    common(p)
    p.add_argument("--state-dump", action="store_true", help="print one record per amplitude")
    p.add_argument("--samples", type=int, default=1, help="diagnostic measurements to draw")

    for name, help_text in (
        ("search", "fixed-depth goal search"),
        ("iddfs", "iterative deepening over depths 0..d"),
        ("prune", "threshold-pruning pipeline, then goal search"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument(
            "--policy",
            choices=("fixed_optimal", "explicit", "exponential_search"),
            default="fixed_optimal",
        )
        p.add_argument("--iterations", type=int, default=0, help="k for --policy explicit")
        p.add_argument("--growth", type=float, default=1.2, help="exponential-search growth factor")
        p.add_argument("--budget", type=int, default=10_000, help="oracle-query budget")
        if name in ("search", "prune"):
            p.add_argument(
                "--tau",
                type=float,
                default=None,
                help="mark below-threshold heuristic values instead of goals",
            )
        if name == "prune":
            p.add_argument(
                "--stage",
                dest="stages",
                action="append",
                type=_parse_stage,
                default=[],
                metavar="LEVEL:K:TAU",
                help="pruning stage (repeatable)",
            )

    p = sub.add_parser("greedy", help="hybrid greedy descent by heuristic")
    common(p)
    p.add_argument("--budget", type=int, default=256, help="per-step oracle-query budget")

    p = sub.add_parser("compare", help="classical vs quantum cost table")
    common(p)
    p.add_argument("--seeds", type=int, default=5, help="number of seeds (base --seed)")
    p.add_argument("--budget", type=int, default=10_000)

    p = sub.add_parser("stats", help="branching statistics of the depth-d expansion")
    common(p, sampling=False)
    return parser


def run(args: argparse.Namespace, out=None) -> int:
    """Dispatch one parsed command line; returns the process exit status."""
    out = out if out is not None else sys.stdout
    if args.depth < 0:
        print("error: --depth must be >= 0", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        problem = load_problem(args.problem)
    except OSError as exc:
        print(f"error: cannot read {args.problem}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ProblemFormatError, ValidationError) as exc:
        print(f"error: {args.problem}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return _COMMANDS[args.command](args, problem, out)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
