"""skelstat benchmark: seeded inputs, CLI runs as child processes, checks.

    python3 perfbench/run.py --workload report-m --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``). The inputs are built from ``--seed`` before any timing starts.

With ``--trace 0`` the workload's CLI command runs again and again as a
child process for ``--seconds`` (closed loop: one client, one child at a
time). Each run has the host-speed probe, the reference child
(``REF_CODE``) and a set-up child (Python start plus ``import
skelstat.cli``) before it and the reference child again after it. The
result holds the medians of the end-to-end metrics; the three times are
scaled to a reference host speed (see ``REF_CODE``), and the medians as
measured are printed above the result line.

With ``--trace 1`` one child process calls ``skelstat.cli.main`` in
process, alternating untraced and traced runs (``tracer.py``); the result
holds the per-layer metrics.

Every run's outputs are checked against the generator's arrays
(``checks.py``) and must be byte-identical to the first run's. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import checks
import inputs
from checks import CheckFailed
from inputs import TrackSpec

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

MIN_RUNS = 3  # medians need a few samples even when --seconds is tiny
CLI_TIMEOUT_S = 40  # one CLI run takes 1-2 s; three hung runs still end within 180 s
SETUP_CODE = "import skelstat.cli"
CLI_CODE = "import sys; from skelstat.cli import main; sys.exit(main())"

# The reference child: a fixed mix of what the CLI spends its time on
# (Python start, numpy import, float text round trips, a sort, a pure-Python
# loop) that never changes with the program. On a shared host the speed of
# every process drifts together over minutes, by up to ~1.45x; the CLI's and
# the reference's medians over a run move together, so the three time
# metrics are reported as ``median x REF_NOMINAL_S / median(reference)``:
# seconds at a fixed host speed. A change to the program moves the numerator
# only. The medians as measured are printed too.
REF_CODE = (
    "import numpy as np\n"
    "values = np.random.default_rng(0).random(60_000)\n"
    "text = '\\n'.join(map(repr, values.tolist()))\n"
    "parsed = np.array([float(x) for x in text.split()])\n"
    "order = np.argsort(parsed, kind='stable')\n"
    "total = 0\n"
    "for i in range(200_000):\n"
    "    total += i * i\n"
)
REF_NOMINAL_S = 0.4  # about the reference's median wall time on a 2-core VM

# Workload sizes. Each CLI run takes 1-1.5 s on a 2-core VM, so a 28-s run
# holds ~12 samples for its medians (and ~24 of the reference); more samples per run do not help
# further, because what remains is the host's drift over minutes, which the
# reference takes out.
# report-m: the paper's main product; M scaled to 6k detections, k=17.
REPORT_M = TrackSpec(n_train=2, n_val=2, frames=300, persons=5, k=17)
# synth-m: the same shape through the program's own generator and writer.
SYNTH_M = dict(videos=2, val_videos=2, frames=300, persons=5, keypoints=17, fraction=0.25)
# crowd-social: long videos with track-id churn, so social windowing
# (windows x tracks per video) outweighs parsing; k=4 keeps parsing small.
CROWD = TrackSpec(n_train=1, n_val=1, frames=900, persons=8, k=4, churn=15, drop=0.01)
# score-eval: long videos of continuous detector scores; no tracklet code runs.
SCORE_VIDEOS, SCORE_FRAMES = 15, 2000



def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit of one section of BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in bench[section]}


@dataclass
class Prepared:
    argv: List[str]  # CLI arguments; "{out}" stands for the run's output directory
    check: Callable[[Path], Optional[List[str]]]


def _tracklet_argv(command: str, paths: Dict[str, Path], spec: TrackSpec) -> List[str]:
    return [
        command, "--out", "{out}", "--keypoints", str(spec.k),
        "--tracklets", str(paths["tracklets"]), "--labels", str(paths["labels"]),
        "--manifest", str(paths["manifest"]),
    ]


def prepare_report_m(seed: int, directory: Path) -> Prepared:
    data = inputs.make_tracklet_dataset(REPORT_M, seed)
    paths = inputs.write_tracklet_inputs(data, directory)
    return Prepared(_tracklet_argv("report", paths, REPORT_M), lambda out: checks.check_report(out, data))


def prepare_crowd_social(seed: int, directory: Path) -> Prepared:
    data = inputs.make_tracklet_dataset(CROWD, seed)
    paths = inputs.write_tracklet_inputs(data, directory)
    argv = _tracklet_argv("sdom", paths, CROWD)
    argv += ["--feature", "social", "--nodes", str(CROWD.max_tracks_per_window)]
    return Prepared(argv, lambda out: checks.check_sdom(out, data, "social"))


def prepare_score_eval(seed: int, directory: Path) -> Prepared:
    data = inputs.make_score_dataset(SCORE_VIDEOS, SCORE_FRAMES, seed)
    paths = inputs.write_score_inputs(data, directory)
    argv = ["metrics", "--out", "{out}", "--scores", str(paths["scores"]),
            "--labels", str(paths["labels"]), "--manifest", str(paths["manifest"])]
    return Prepared(argv, lambda out: checks.check_metrics(out, data))


def prepare_synth_m(seed: int, directory: Path) -> Prepared:
    s = SYNTH_M
    argv = [
        "synth", "--out", "{out}", "--seed", str(seed), "--videos", str(s["videos"]),
        "--val-videos", str(s["val_videos"]), "--frames", str(s["frames"]),
        "--persons", str(s["persons"]), "--keypoints", str(s["keypoints"]),
        "--anomaly-mode", "traj-shift:100", "--anomaly-fraction", str(s["fraction"]),
        "--oracle", "distance",
    ]
    return Prepared(argv, lambda out: checks.check_synth(
        out, s["videos"], s["val_videos"], s["frames"], s["persons"], s["keypoints"],
        s["fraction"], seed))


WORKLOADS: Dict[str, Callable[[int, Path], Prepared]] = {
    "report-m": prepare_report_m,
    "synth-m": prepare_synth_m,
    "crowd-social": prepare_crowd_social,
    "score-eval": prepare_score_eval,
}


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a reading of host speed."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - start


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def spawn(argv: List[str], env: Dict[str, str], stderr_path: Path,
          timeout_s: int = CLI_TIMEOUT_S) -> Child:
    """Run one child to completion, killing it after ``timeout_s``; wall
    time from spawn to exit, and its own CPU time and peak RSS from wait4."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(timeout_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


class OutputJudge:
    """Checks each distinct output once and requires every run's bytes to
    equal the first run's."""

    def __init__(self, check: Callable[[Path], Optional[List[str]]]):
        self.check = check
        self.first: Optional[str] = None
        self.verdicts: Dict[str, Optional[str]] = {}
        self.errors: List[str] = []
        self.notes: List[str] = []

    def judge(self, out: Path) -> bool:
        digest = checks.tree_digest(out)
        if digest not in self.verdicts:
            try:
                self.notes += self.check(out) or []
                self.verdicts[digest] = None
            except (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                self.verdicts[digest] = f"{type(exc).__name__}: {exc}"
        if self.first is None:
            self.first = digest
        error = self.verdicts[digest]
        if error is None and digest != self.first:
            error = "output bytes differ from the first run's"
        if error is not None:
            self.errors.append(error)
        return error is None


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} [q1 {q1:.4f}, q3 {q3:.4f}], n={len(values)}"


def _child_env(work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work)
    return env


def timed_runs(prepared: Prepared, judge: OutputJudge, work: Path, seconds: float):
    env = _child_env(work)
    python = sys.executable
    spawn([python, "-c", SETUP_CODE], env, work / "setup.err")  # writes bytecode caches
    units = declared_units("end_to_end")
    samples: Dict[str, List[float]] = {name: [] for name in units}
    probes: List[float] = []
    refs: List[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted < MIN_RUNS or time.perf_counter() - start < seconds:
        probes.append(host_probe())
        before = spawn([python, "-c", REF_CODE], env, work / "ref0.err")
        setup = spawn([python, "-c", SETUP_CODE], env, work / "setup.err")
        out = work / f"out{attempted:03d}"
        child = spawn([python, "-c", CLI_CODE, *[str(out) if a == "{out}" else a for a in prepared.argv]],
                      env, work / "run.err")
        after = spawn([python, "-c", REF_CODE], env, work / "ref1.err")
        refs += [before.wall_s, after.wall_s]
        attempted += 1
        ok = before.code == setup.code == child.code == after.code == 0
        if not ok:
            stderr = b"".join((work / f"{name}.err").read_bytes() for name in ("ref0", "setup", "run", "ref1"))
            judge.errors.append(f"exit codes: reference {before.code} and {after.code}, setup {setup.code}, "
                                f"run {child.code}: " + stderr.decode(errors="replace")[-500:])
        ok = ok and judge.judge(out)
        failed += not ok
        shutil.rmtree(out, ignore_errors=True)
        samples["wall_s"].append(child.wall_s)
        samples["cpu_s"].append(child.cpu_s)
        samples["peak_rss_mb"].append(child.rss_mb)
        samples["setup_s"].append(setup.wall_s)
    for name, values in samples.items():
        print(f"{name} as measured: {_quartiles(values)} {units[name]}")
    print(f"host.probe_s: {_quartiles(probes)} s")
    print(f"reference: {_quartiles(refs)} s")
    scale = REF_NOMINAL_S / statistics.median(refs)
    print(f"host-speed scale for wall_s, cpu_s and setup_s: {scale:.4f}")
    print(f"failed_frac: {failed / attempted} ratio ({failed} of {attempted})")
    metrics = {
        name: {"value": statistics.median(values) * (scale if units[name] == "s" else 1.0),
               "unit": units[name]}
        for name, values in samples.items()
    }
    return attempted, failed, metrics


def traced_runs(prepared: Prepared, judge: OutputJudge, work: Path, seconds: float):
    units = declared_units("per_layer")
    env = _child_env(work)
    spawn([sys.executable, "-c", SETUP_CODE], env, work / "setup.err")
    probe = statistics.median(host_probe() for _ in range(5))
    spec_path, result_path = work / "trace_spec.json", work / "trace_result.json"
    spec_path.write_text(json.dumps({
        "argv": prepared.argv, "seconds": seconds,
        "out_prefix": str(work / "trace_out"),
    }))
    child = spawn([sys.executable, str(HERE / "tracer.py"), str(spec_path), str(result_path)],
                  env, work / "stderr.txt", timeout_s=int(seconds) + 60)
    if child.code != 0 or not result_path.is_file():
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        judge.errors.append(f"traced child exited {child.code}: {tail}")
        return 1, 1, {name: {"value": 0.0, "unit": unit} for name, unit in units.items()}
    runs = json.loads(result_path.read_text())["runs"]
    attempted, failed, errors = len(runs), 0, judge.errors
    for run in runs:
        ok = run["code"] == 0 and judge.judge(Path(run["out"]))
        if run["code"] != 0:
            errors.append(f"in-process run exited {run['code']}")
        if run["traced"]:
            m = run["metrics"]
            total = sum(v for k, v in m.items() if k.endswith(".self_s")) + m["trace.untraced_s"]
            if run["negative_self"] or abs(total - m["trace.root_s"]) > 1e-9 * m["trace.root_s"]:
                errors.append("self times plus trace.untraced_s do not add up to the root span")
                ok = False
            unknown = sorted(k for k in m if k.endswith(".self_s") and k not in units)
            if unknown:
                errors.append(f"spans with no per-layer metric: {unknown}")
                ok = False
        failed += not ok
    traced = [r for r in runs if r["traced"]]
    untraced = [r for r in runs if not r["traced"]]
    absent = traced[0]["absent"] if traced else []
    if absent:
        print(f"absent (reported as 0): {', '.join(absent)}")
    overhead = (statistics.median(r["root_s"] for r in traced)
                / statistics.median(r["root_s"] for r in untraced) - 1.0)
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_frac":
            value = overhead
        elif name == "host.probe_s":
            value = probe
        else:
            value = statistics.median(r["metrics"].get(name, 0.0) for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    print(f"traced runs: {len(traced)}, untraced runs: {len(untraced)}")
    for name, entry in sorted(metrics.items(), key=lambda kv: -kv[1]["value"] if kv[1]["unit"] == "s" else 0):
        if entry["unit"] == "s" and entry["value"] > 0:
            print(f"  {name}: {entry['value']:.4f} s")
    return attempted, failed, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "skelstat" / "cli.py").is_file():
        sys.stderr.write(f"no skelstat sources under {SRC}; run from a source checkout\n")
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    try:
        build_start = time.perf_counter()
        prepared = WORKLOADS[args.workload](args.seed, work / "in")
        print(f"{args.workload} seed {args.seed}: inputs built in "
              f"{time.perf_counter() - build_start:.2f} s (not timed)")
        runner = traced_runs if args.trace else timed_runs
        judge = OutputJudge(prepared.check)
        attempted, failed, metrics = runner(prepared, judge, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for note in dict.fromkeys(judge.notes):
        print(f"check note (not counted as a failure): {note}")
    for error in dict.fromkeys(judge.errors):
        print(f"check failed: {error}")
    print(json.dumps({
        "correct": not judge.errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
