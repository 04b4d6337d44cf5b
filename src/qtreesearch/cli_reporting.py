"""Command-line entry point.

Exit status contract: 0 when a solution was found (or a stats/prepare run
succeeded), 1 when the search finished without a solution, 2 on input or
usage errors. All randomness flows from --seed; identical invocations print
byte-identical records.

Every line the program prints is built here: each is a prefix (``[search] ``,
``  ``, ``command=search ``, ...) followed by one ``_record``.
"""
from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Iterator

import numpy as np

from .amplitude_engine import AmplificationSchedule, MarkPredicate, RunReport
from .problem_model import (
    ProblemFormatError,
    ProblemSpec,
    ValidationError,
    branching_stats,
    enumerate_paths,  # unused here, but the benchmark's tracer binds this name
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
from .tree_prep import PreparationPlan, PreparedTree, measure_paths, prepare_tree_state

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_INPUT_ERROR = 2
_SAMPLE_CHUNK = 1024  # prepare --samples draws and prints this many at a time


def _fmt(x) -> str:
    """Floats carry 12 significant digits; anything else prints as ``str``."""
    return format(x, ".12g") if isinstance(x, float) else str(x)


def _record(**fields) -> str:
    """One flat ``key=value`` line."""
    return " ".join(f"{key}={_fmt(value)}" for key, value in fields.items())


def _path_str(path: tuple[int, ...] | None) -> str:
    if path is None:
        return "-"
    return ",".join(str(a) for a in path) if path else ""


def _schedule(args: argparse.Namespace) -> AmplificationSchedule:
    if args.iterations is not None and args.policy != "explicit":
        raise ValueError("--iterations needs --policy explicit")
    return AmplificationSchedule(
        policy=args.policy,
        iterations=args.iterations or 0,
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
    r = report
    if args.output_format == "records":
        stages = {
            f"stage{i}": f"level:{st.level},tau:{_fmt(st.threshold)},k:{st.iterations}"
            f",queries:{st.oracle_queries},before:{_fmt(st.mass_before)}"
            f",after:{_fmt(st.mass_after)},skipped:{int(st.skipped)}"
            for i, st in enumerate(r.stages)
        }
        line = _record(
            command=args.command, depth=depth, n_paths=r.n_paths, m_marked=r.m_marked,
            a=r.initial_probability, theta=r.theta, iterations=r.iterations,
            oracle_queries=r.oracle_queries, predicted_probability=r.predicted_probability,
            measured_probability=r.measured_probability, samples_drawn=r.samples_drawn,
            seed=r.seed, warnings="|".join(r.warnings) or "-",
            paper_node_width=r.paper_node_width, node_width=r.node_width,
            **stages, solution=_path_str(path),
        )
        print(line, file=out)
        return
    status = "found" if path is not None else "none"
    warnings = {"warnings": "|".join(r.warnings)} if r.warnings else {}
    lines = [
        f"[{args.command}] " + _record(depth=depth, solution=status, path=_path_str(path)),
        "  " + _record(paths=r.n_paths, marked=r.m_marked, a=r.initial_probability,
                       iterations=r.iterations, oracle_queries=r.oracle_queries),
        "  " + _record(predicted=r.predicted_probability, measured=r.measured_probability,
                       seed=r.seed, **warnings),
    ]
    for i, st in enumerate(r.stages):
        lines.append(
            f"  stage{i}: " + _record(level=st.level, tau=st.threshold, k=st.iterations)
            + f" mass {_fmt(st.mass_before)} -> {_fmt(st.mass_after)}"
            + (" (skipped)" if st.skipped else "")
        )
    print("\n".join(lines), file=out)


def state_dump_lines(state: PreparedTree) -> Iterator[str]:
    """Golden-test dump: one record per nonzero amplitude, in path order, one at a time."""
    return (
        _record(path=_path_str(path), node=e.node, re=e.amp.real, im=e.amp.imag)
        for path, e in state.sorted_entries()
        if e.amp != 0
    )


def _cmd_prepare(args: argparse.Namespace, problem: ProblemSpec, out) -> int:
    if args.state_dump and args.samples is not None:
        raise ValueError("--samples cannot be combined with --state-dump")
    samples = 1 if args.samples is None else args.samples
    if samples < 0:
        raise ValueError("--samples must be >= 0")
    plan = PreparationPlan.for_problem(problem, args.depth)
    state = prepare_tree_state(plan)
    records = args.output_format == "records"
    if args.state_dump:
        for line in state_dump_lines(state):
            print(("command=prepare " if records else "") + line, file=out)
        return EXIT_OK
    live, dead = state.prefix_counts()
    head = _record(depth=args.depth, live_paths=live, dead_prefixes=dead,
                   norm=state.norm_sq(), total_width=plan.layout.total_width)
    print(("command=prepare " if records else "[prepare] ") + head, file=out)
    rng = np.random.default_rng(args.seed)
    for start in range(0, samples, _SAMPLE_CHUNK):  # one generator: the draws of one call
        for path, node in measure_paths(state, min(_SAMPLE_CHUNK, samples - start), rng):
            sample = _record(path=_path_str(path), node=problem.states[node])
            print(("command=prepare " if records else "  sample ") + sample, file=out)
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
        print("[iddfs] " + _record(cumulative_oracle_queries=total), file=out)
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
        status = "found" if path is not None else "none"
        print("[greedy] " + _record(solution=status, path=_path_str(path)), file=out)
    else:
        print("command=greedy result " + _record(solution=_path_str(path)), file=out)
    return EXIT_OK if path is not None else EXIT_NO_SOLUTION


def _cmd_compare(args: argparse.Namespace, problem: ProblemSpec, out) -> int:
    seeds = tuple(range(args.seed, args.seed + args.seeds))
    table = compare_strategies(
        problem, args.depth, seeds, query_budget=args.budget
    )
    stats = dict(b_max=table.stats.b_max, b_avg=table.stats.b_avg, b_eff=table.stats.b_eff)
    if args.output_format == "records":
        for row in table.rows:
            line = _record(problem=table.problem, depth=table.depth, **stats, strategy=row.name,
                           metric=row.metric, cost=row.cost, success_rate=row.success_rate)
            print(line, file=out)
        return EXIT_OK
    print(f"problem {table.problem} depth {table.depth}: " + _record(**stats), file=out)
    print(f"{'strategy':<28}{'metric':<16}{'cost':>16}{'success':>10}", file=out)
    for row in table.rows:
        print(
            f"{row.name:<28}{row.metric:<16}{_fmt(row.cost):>16}{_fmt(row.success_rate):>10}",
            file=out,
        )
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace, problem: ProblemSpec, out) -> int:
    stats = branching_stats(problem, args.depth)
    records = args.output_format == "records"
    internal = {"internal_nodes": stats.internal_nodes} if records else {}
    line = _record(depth=args.depth, b_max=stats.b_max, b_avg=stats.b_avg, b_eff=stats.b_eff,
                   nodes_generated=stats.nodes_generated, **internal, paths=stats.paths)
    print(("command=stats " if records else "[stats] ") + line, file=out)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: ``parse_args`` leaves it unchanged."""
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
    p.add_argument(
        "--samples", type=int, default=None, help="diagnostic measurements to draw (default 1)"
    )

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
        p.add_argument("--iterations", type=int, default=None, help="k for --policy explicit")
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
