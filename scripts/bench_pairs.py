#!/usr/bin/env python3
"""Alternating benchmark pairs: the committed HEAD against the working tree.

    python3 scripts/bench_pairs.py --workload grid-iddfs-bbht --seed 1601 --pairs 10
    python3 scripts/bench_pairs.py --workload needle-deep --base ../checkout-of-parent

Each pair runs ``benchmark/run.py --workload W --seed S`` once in a checkout of
the base and once in the working tree, alternating which side goes first, and
the seed advances by one per pair. The base is a detached ``git worktree`` of
HEAD, made in a temporary directory and removed at the end, or any checkout
given with ``--base``. The script reads the JSON line that ``run.py`` prints
last, and the counted solves from the record it writes under
``benchmark/results/``. For each end-to-end metric of BENCHMARK.json the
script prints both sides' medians and quartiles, and how many pairs the
working tree won; a tie is no win. Each pair's line also gives both sides'
``peak_rss_mb`` next to their solve count, since the peak grows with the
solves a run gets through. It then prints each side's failures: the
pooled ``failed/attempted`` of the timed runs, and ``counted_failed`` of the
fixed counted solves per pair, which a faster build cannot move.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float | None) -> dict:
    cmd = [sys.executable, str(checkout / "benchmark" / "run.py"), "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    record = checkout / "benchmark" / "results" / f"{workload}-seed{seed}-trace0.json"
    worker = json.loads(record.read_text())["worker"]
    summary["counted"] = (worker["counted_failed"], worker["counted_solves"])
    return summary


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def pairs(base: Path, args) -> list[tuple[dict, dict]]:
    out = []
    for i in range(args.pairs):
        seed = args.seed + i
        sides = [("base", base), ("change", ROOT)]
        if i % 2:
            sides.reverse()
        got = {name: run_once(path, args.workload, seed, args.seconds) for name, path in sides}
        out.append((got["base"], got["change"]))
        print(
            f"pair {i + 1} seed {seed}: "
            + "  ".join(
                f"{name} solve_s_p50={got[name]['metrics']['solve_s_p50']['value']:.6g}"
                f" peak_rss_mb={got[name]['metrics']['peak_rss_mb']['value']:.4g}"
                f" solves={got[name]['attempted']} failed={got[name]['failed']}"
                f" counted_failed={got[name]['counted'][0]}/{got[name]['counted'][1]}"
                for name in ("base", "change")
            ),
            flush=True,
        )
    return out


def summarize(results: list[tuple[dict, dict]]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{'metric':16s} {'base q1/median/q3':>36s} {'change q1/median/q3':>36s}  wins")
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b["metrics"][name]["value"] for b, _ in results]
        change = [c["metrics"][name]["value"] for _, c in results]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        cols = ["/".join(f"{v:.4g}" for v in quartiles(side)) for side in (base, change)]
        print(f"{name:16s} {cols[0]:>36s} {cols[1]:>36s}  {wins}/{len(results)}")
    for side, name in ((0, "base"), (1, "change")):
        failed = sum(pair[side]["failed"] for pair in results)
        attempted = sum(pair[side]["attempted"] for pair in results)
        counted = " ".join(f"{pair[side]['counted'][0]}/{pair[side]['counted'][1]}" for pair in results)
        print(f"{name:6s} failed/attempted {failed}/{attempted}  counted_failed per pair: {counted}")
    same = all(b["counted"] == c["counted"] for b, c in results)
    print(f"counted_failed equal in every pair: {'yes' if same else 'no'}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--base", type=Path, default=None, help="default: a git worktree of HEAD")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    if args.base is not None:
        summarize(pairs(args.base.resolve(), args))
        return 0
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base = Path(tmp) / "head"
        subprocess.run(["git", "worktree", "add", "--detach", str(base), "HEAD"], cwd=ROOT, check=True,
                       capture_output=True)
        try:
            summarize(pairs(base, args))
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base)], cwd=ROOT, check=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
