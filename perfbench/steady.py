#!/usr/bin/env python3
"""Repeat one workload and judge its end-to-end metrics against their bounds.

Usage, from the repository root:

    python3 perfbench/steady.py --workload NAME [--seeds 1,2,3,4,5]
        [--repeat 2] [--seconds 20] [--traced]

Runs `perfbench/run.py` once per (repeat, seed), cycling through the seeds
so repeats of a seed are minutes apart. For every end-to-end metric of
BENCHMARK.json it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median against the metric's bound. Fails
(exit 1) when a run fails or reports failed operations, when a
deterministic metric differs between runs of the same seed, or when a
spread exceeds its bound. setup_s is exempt from the spread test: its bound
guards the median between two sets of runs, as for every metric. With
--traced it also makes an untraced and a traced run per seed, back to
back, and reports the span overhead as the median ratio of their run_s.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Pure functions of the seed: any difference between two runs of one seed
# is a fault, not noise.
DETERMINISTIC = ("deliveries", "relay_msgs_per_pub", "delay_hops")


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, check=False)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--repeat", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    problems = []
    results = []
    for _ in range(args.repeat):
        for seed in seeds:
            result = run(args.workload, seed, seconds, 0)
            if result is None:
                problems.append(f"seed {seed}: run failed")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"seed {seed}: correct={result['correct']} "
                                f"failed={result['failed']}")
            results.append((seed, result))
            timings = "  ".join(
                f"{name} {result['metrics'][name]['value']:.6g}"
                for name in ("setup_s", "run_s", "cycles_per_s",
                             "publish_per_s"))
            print(f"seed {seed}: {timings}", flush=True)
    if len(results) < 2:
        print("\n".join(problems or ["fewer than two runs"]))
        return 1

    for name in DETERMINISTIC:
        by_seed = {}
        for seed, result in results:
            value = result["metrics"][name]["value"]
            by_seed.setdefault(seed, set()).add(value)
        for seed, values in sorted(by_seed.items()):
            if len(values) > 1:
                problems.append(f"{name}: seed {seed} gave {sorted(values)}")

    print(f"{args.workload}: {len(results)} runs of {seconds} s, "
          f"seeds {args.seeds} x {args.repeat}")
    print(f"{'metric':20s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for _, r in results]
        med, q1, q3, share = spread(values)
        flag = ""
        if share > bound and name != "setup_s":
            flag = "  EXCEEDS BOUND"
            problems.append(f"{name}: spread {share:.4f} > bound {bound}")
        elif share > bound / 3:
            flag = "  above a third of the bound"
        print(f"{name:20s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{share:8.4f} {bound:6.2f}{flag}")

    if args.traced:
        # Each traced run right after an untraced run of the same seed, so
        # the host's drift over minutes mostly cancels in the ratio.
        ratios = []
        for seed in seeds:
            plain = run(args.workload, seed, seconds, 0)
            traced = run(args.workload, seed, seconds, 1)
            if plain is None or traced is None:
                problems.append(f"seed {seed}: overhead pair failed")
                continue
            ratios.append(traced["metrics"]["bench.traced_run_s"]["value"] /
                          plain["metrics"]["run_s"]["value"])
        if ratios:
            print(f"span overhead: traced/untraced run_s, median of "
                  f"{len(ratios)} pairs: {statistics.median(ratios):.4f} "
                  f"(pairs: {', '.join(f'{r:.3f}' for r in ratios)})")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
