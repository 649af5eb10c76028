"""Run every workload over several seeds, round-robin, and report spreads.

    python3 perfbench/sweep.py                      # 10 seeds, all workloads
    python3 perfbench/sweep.py --seeds 5 --workloads crowd-social
    python3 perfbench/sweep.py --trace 1 --seeds 1  # per-layer metrics
    python3 perfbench/sweep.py --against ../parent  # parent vs this tree

Workloads take turns (seed 1: a b c d, seed 2: b c d a, ...) so that a
drift in host speed spreads over all of them instead of landing on one.
For each end-to-end metric it prints the median of the per-run values, the
quartile spread as a share of that median, and the metric's bound from
``BENCHMARK.json``, and the same for the times as measured, before run.py
scales them to the reference host speed; ``failed_frac`` is failed runs over attempted runs, and
``check notes`` counts output defects the checks report without failing.

With ``--against DIR`` (another source tree with its own ``perfbench/``,
such as the parent commit) every seed and workload runs on both trees back
to back, the first side alternating, so both meet the same host drift. It
then prints, per workload and end-to-end metric, both medians, the change
as a share of the other tree's median, the pairs this tree won, and a
verdict: WORSE beyond the bound; "unresolved" where the other tree's own
spread is wider than the bound, unless every run of this tree reads better
than every run of the other; else ok.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    notes, measured = 0, {}
    for line in lines[:-1]:
        notes += line.startswith("check note")
        if line.startswith(("check", "absent", "host.probe_s")):
            print(f"    {workload} seed {seed}: {line}")
        name, sep, rest = line.partition(" as measured: median ")
        if sep:
            measured[name] = float(rest.split()[0])
    result = json.loads(lines[-1])
    result["notes"] = notes
    result["measured"] = measured
    return result


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def summarize(results: Dict[str, List[dict]], bench: dict, trace: int) -> None:
    metrics = bench["per_layer"] if trace else bench["end_to_end"]
    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, failed_frac {failed / attempted:.4f} ratio "
              f"({failed} of {attempted}), correct={correct}, "
              f"check notes {sum(r['notes'] for r in runs)}")
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            line = f"  {name}: median {median:.6g} {metric['unit']}"
            if len(values) >= 2 and median:
                line += f", spread {spread(values):.4f}"
            if "bound" in metric:
                line += f" (bound {metric['bound']}, target < {metric['bound'] / 3:.4f})"
            raw = [r["measured"][name] for r in runs if name in r["measured"]]
            if len(raw) >= 2 and metric["unit"] == "s":
                line += f"; as measured: median {statistics.median(raw):.6g}, spread {spread(raw):.4f}"
            print(line)


def compare(other: Dict[str, List[dict]], this: Dict[str, List[dict]], bench: dict) -> bool:
    """True when no median of this tree is worse than the other tree's by
    more than its metric's bound."""
    ok = True
    for workload in this:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            before = [r["metrics"][name]["value"] for r in other[workload]]
            after = [r["metrics"][name]["value"] for r in this[workload]]
            change = sign * (statistics.median(after) / statistics.median(before) - 1.0)
            won = sum(sign * (a - b) < 0 for a, b in zip(after, before))
            all_better = all(sign * (a - b) < 0 for a in after for b in before)
            if change > bound:
                verdict = "WORSE"
            elif len(before) >= 2 and spread(before) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            ok &= verdict != "WORSE"
            print(f"  {workload} {name}: {statistics.median(before):.6g} -> "
                  f"{statistics.median(after):.6g} {metric['unit']}, change {change:+.4f} "
                  f"(worse above {bound}), won {won} of {len(after)} pairs: {verdict}")
    return ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--against", type=Path, help="another source tree to run interleaved")
    args = parser.parse_args()

    trees = [ROOT] if args.against is None else [args.against.resolve(), ROOT]
    results: Dict[Path, Dict[str, List[dict]]] = {t: {w: [] for w in args.workloads} for t in trees}
    n = len(args.workloads)
    for i in range(args.seeds):
        seed = i + 1
        for workload in args.workloads[i % n:] + args.workloads[:i % n]:
            for tree in trees if i % 2 == 0 else trees[::-1]:
                results[tree][workload].append(run_once(tree, workload, seed, args.seconds, args.trace))
            print(f"  done {workload} seed {seed}", flush=True)
    for tree in trees:
        if len(trees) > 1:
            print(f"== {tree}")
        summarize(results[tree], bench, args.trace)
    if args.against is not None and not args.trace:
        print(f"== {ROOT} against {trees[0]}")
        return 0 if compare(results[trees[0]], results[ROOT], bench) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
