"""Spans around the entry points of each qtreesearch module, recorded from outside.

A wrapper is installed on each name as its caller looks it up at call time
(``search_drivers.amplify`` is what the drivers call, ``cli_reporting.load_problem``
is what the CLI calls), so the program itself is not edited. Calls that the
benchmark's own checks make go through other names and are never traced.

Each span records the traced name, start, end, its parent span and the solve
it belongs to. Spans stay in memory until ``write`` is called. A layer's self
time is the length of its spans minus the part their child spans cover.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import Counter


class TracingError(RuntimeError):
    """A traced name is missing or a layer that must be reached recorded nothing."""


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_prepared(args, kwargs, state, counts) -> None:
    counts["tree_prep.prefixes"] += len(state.entries)


def _count_level(args, kwargs, state, counts) -> None:
    # pruned_pipeline builds its tree one level at a time; the state is
    # complete once the last level's transition has been applied
    if _arg(args, kwargs, 2, "level") == state.layout.depth - 1:
        counts["tree_prep.prefixes"] += len(state.entries)


def _count_validation_draws(args, kwargs, result, counts) -> None:
    n = _arg(args, kwargs, 1, "samples")
    counts["statevector.samples"] += n
    counts["search_drivers.validation_draws"] += n


def _count_measure(args, kwargs, result, counts) -> None:
    counts["statevector.samples"] += _arg(args, kwargs, 1, "samples")


def _count_draw(args, kwargs, result, counts) -> None:
    counts["statevector.samples"] += 1


def _count_amplify(args, kwargs, result, counts) -> None:
    x0 = _arg(args, kwargs, 0, "x0")
    plan = _arg(args, kwargs, 1, "plan")
    predicate = _arg(args, kwargs, 2, "predicate")
    sched = _arg(args, kwargs, 3, "sched")
    report = result[1]
    support = len(x0.entries) if x0.mode == "structured" else x0.vector.size
    counts["amplitude_engine.calls"] += 1
    counts["amplitude_engine.amp_updates"] += report.oracle_queries * support
    if sched.policy == "exponential_search":
        # one measurement per round; only the last round of a call can validate
        counts["amplitude_engine.rounds"] += report.samples_drawn
        if report.samples and predicate.holds_classically(plan.problem, report.samples[-1][0]):
            counts["amplitude_engine.validated_rounds"] += 1
    if "budget_exhausted" in report.warnings:
        counts["amplitude_engine.budget_exhausted"] += 1


def _count_expansions(args, kwargs, result, counts) -> None:
    counts["problem_model.expansions"] += result[1]


def _count_exit(args, kwargs, status, counts) -> None:
    counts[f"cli_reporting.exit{status}"] += 1


# (owner, attribute, time metric, count hook). The owner is a module of the
# package or a class inside one. Private names stand in for public layers:
#   search_drivers._measure_with_rng  -> statevector.sample_s (the drivers'
#       validation draws; measure_paths is its public wrapper)
#   amplitude_engine._RunArrays.sample -> statevector.sample_s (the one draw
#       per exponential-search round, made inside amplify)
BINDINGS = (
    ("cli_reporting", "main", "cli_reporting.self_s", _count_exit),
    ("cli_reporting", "load_problem", "problem_model.parse_s", None),
    ("cli_reporting", "branching_stats", "problem_model.classical_s", None),
    ("cli_reporting", "enumerate_paths", "problem_model.classical_s", None),
    ("search_drivers", "branching_stats", "problem_model.classical_s", None),
    ("search_drivers", "classical_search", "problem_model.classical_s", _count_expansions),
    ("generators", "needle_problem", "generators.build_s", None),
    ("generators", "grid_problem", "generators.build_s", None),
    ("search_drivers", "prepare_tree_state", "tree_prep.prepare_s", _count_prepared),
    ("cli_reporting", "prepare_tree_state", "tree_prep.prepare_s", _count_prepared),
    ("search_drivers", "apply_action_superposition", "tree_prep.prepare_s", None),
    ("search_drivers", "apply_transition", "tree_prep.prepare_s", _count_level),
    ("statevector.TreeState", "sorted_entries", "statevector.sort_s", None),
    ("cli_reporting", "measure_paths", "statevector.sample_s", _count_measure),
    ("search_drivers", "_measure_with_rng", "statevector.sample_s", _count_validation_draws),
    ("amplitude_engine._RunArrays", "sample", "statevector.sample_s", _count_draw),
    ("search_drivers", "amplify", "amplitude_engine.amplify_s", _count_amplify),
    ("search_drivers", "uninformed_search", "search_drivers.self_s", None),
    ("search_drivers", "iterative_deepening_search", "search_drivers.self_s", None),
    ("search_drivers", "pruned_pipeline", "search_drivers.self_s", None),
    ("cli_reporting", "uninformed_search", "search_drivers.self_s", None),
    ("cli_reporting", "iterative_deepening_search", "search_drivers.self_s", None),
    ("cli_reporting", "pruned_search", "search_drivers.self_s", None),
    ("cli_reporting", "greedy_quantum_loop", "search_drivers.self_s", None),
    ("cli_reporting", "compare_strategies", "search_drivers.self_s", None),
)

TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric, _ in BINDINGS))


def _resolve(owner: str):
    module, _, cls = owner.partition(".")
    try:
        obj = importlib.import_module(f"qtreesearch.{module}")
        return getattr(obj, cls) if cls else obj
    except (ImportError, AttributeError) as exc:
        raise TracingError(f"traced owner qtreesearch.{owner} is missing: {exc}") from None


class Tracer:
    """Installs span-recording wrappers on every name in ``BINDINGS``."""

    def __init__(self) -> None:
        self.spans: list = []  # (binding index, start, end, parent span, solve)
        self.counts: Counter = Counter()
        self.solve = -1
        self._stack: list[int] = []
        self._slots = []  # (owner object, attribute, original, wrapper)
        for index, (owner, attr, _, hook) in enumerate(BINDINGS):
            target = _resolve(owner)
            original = target.__dict__.get(attr) if isinstance(target, type) else getattr(target, attr, None)
            if not callable(original):
                raise TracingError(
                    f"traced name qtreesearch.{owner}.{attr} is missing or renamed; "
                    f"it feeds {BINDINGS[index][2]}; update BINDINGS in benchmark/tracing.py"
                )
            self._slots.append((target, attr, original, self._wrap(index, original, hook)))

    def _wrap(self, index: int, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pos = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(pos)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[pos] = (index, start, end, parent, self.solve)
            if hook is not None:
                hook(args, kwargs, result, self.counts)
            return result

        return traced

    def install(self) -> None:
        for target, attr, _, wrapper in self._slots:
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original, _ in self._slots:
            setattr(target, attr, original)

    def take_counts(self) -> Counter:
        counts, self.counts = self.counts, Counter()
        return counts

    def self_times(self) -> tuple[dict[str, float], set[str]]:
        """Self seconds per time metric, and the metrics that recorded any span."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = dict.fromkeys(TIME_METRICS, 0.0)
        seen = set()
        for pos, (index, start, end, _, _) in enumerate(self.spans):
            metric = BINDINGS[index][2]
            totals[metric] += (end - start) - covered[pos]
            seen.add(metric)
        return totals, seen

    def write(self, path) -> None:
        names = [f"{owner}.{attr}" for owner, attr, _, _ in BINDINGS]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "solve"],
                    "spans": [[names[s[0]], *s[1:]] for s in self.spans],
                },
                fh,
            )
