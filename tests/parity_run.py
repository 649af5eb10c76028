"""Run every skelstat command on fixed inputs and keep what each one leaves.

    PYTHONPATH=<tree>/src python3 tests/parity_run.py OUT

Each command runs as ``python -m skelstat.cli`` in OUT; its ``--out``
files land in OUT/<name>/, its stderr in OUT/<name>.stderr and its exit
code in OUT/<name>.code. Run it once per source tree, with that tree's
``src`` on PYTHONPATH; ``diff -r`` of the two OUT trees is the parity check.
Inputs: ``skelstat synth`` seed 3 (every oracle and anomaly mode, two frame
sizes) and the benchmark's REPORT_M, CROWD and score-eval inputs at seed 1
(``perfbench/inputs.py`` never imports skelstat). Some runs are refusals.
"""

import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402
from run import CROWD, REPORT_M, SCORE_FRAMES, SCORE_VIDEOS  # noqa: E402

MODES = ["traj-shift:100", "pose-deform:0.5", "group-converge:0.5"]
SYNTH = ["--seed", "3", "--videos", "2", "--val-videos", "2", "--frames", "120", "--persons", "3",
         "--anomaly-fraction", "0.25", *(a for m in MODES for a in ("--anomaly-mode", m)),
         *(a for o in ("perfect", "random", "distance") for a in ("--oracle", o))]


def run(out: Path, name: str, *argv: str) -> None:
    proc = subprocess.run([sys.executable, "-m", "skelstat.cli", argv[0], "--out", name, *argv[1:]],
                          cwd=out, capture_output=True, text=True)
    (out / f"{name}.stderr").write_text(proc.stderr)
    (out / f"{name}.code").write_text(f"{proc.returncode}\n")


def data(directory: str, k: int) -> list:
    return ["--tracklets", f"{directory}/tracklets.txt", "--labels", f"{directory}/labels.csv",
            "--manifest", f"{directory}/manifest.json", "--keypoints", str(k)]


def main(out: Path) -> None:
    out.mkdir(parents=True)
    run(out, "synth", "synth", *SYNTH)
    run(out, "synth_small", "synth", *SYNTH, "--width", "640", "--height", "360", "--keypoints", "4")
    for name, spec in (("report_m", REPORT_M), ("crowd", CROWD)):
        (out / "inputs" / name).mkdir(parents=True)
        inputs.write_tracklet_inputs(inputs.make_tracklet_dataset(spec, 1), out / "inputs" / name)
    (out / "inputs" / "score_eval").mkdir()
    score_eval = inputs.make_score_dataset(SCORE_VIDEOS, SCORE_FRAMES, 1)
    inputs.write_score_inputs(score_eval, out / "inputs" / "score_eval")

    nodes = ["--nodes", str(CROWD.max_tracks_per_window)]  # the social capacity the benchmark gives CROWD
    datasets = {"synth": (data("synth", 17), []), "report_m": (data("inputs/report_m", REPORT_M.k), []),
                "crowd": (data("inputs/crowd", CROWD.k), nodes)}
    for name, (files, windowing) in datasets.items():
        run(out, f"{name}_validate", "validate", *files)
        for feature in ("pose", "traj", "social"):
            for command in ("windows", "sdom", "dist-hist"):
                run(out, f"{name}_{command}_{feature}", command, *files, *windowing, "--feature", feature)
            run(out, f"{name}_dist-hist_{feature}_width", "dist-hist", *files, *windowing,
                "--feature", feature, "--binning", "width:25")
        for tag, extra in (("auto", []), ("count", ["--binning", "count:7", "--no-center"]),
                           ("width", ["--binning", "width:25"])):
            run(out, f"{name}_report_{tag}", "report", *files, *windowing, *extra)

    scores = [f"{d}/scores_{o}.csv" for d in ("synth", "synth_small") for o in ("perfect", "random", "distance")]
    for path in [*scores, "inputs/score_eval/scores.csv"]:
        directory = path.rsplit("/", 1)[0]
        files = ["--labels", f"{directory}/labels.csv", "--manifest", f"{directory}/manifest.json", "--scores", path]
        for tag, extra in (("plain", []), ("per_video", ["--per-video-average"]),
                           ("normality", ["--polarity", "normality"])):
            run(out, f"metrics_{path.replace('/', '_')[:-4]}_{tag}", "metrics", *files, *extra)

    for width in ("nan", "inf", "0"):
        run(out, f"refuse_width_{width}", "dist-hist", *datasets["synth"][0],
            "--feature", "pose", "--binning", f"width:{width}")
    for tag, size in (("text", '"wide"'), ("list", "[1]")):
        (out / f"manifest_{tag}.json").write_text(f'{{"v": {{"split": "val", "width": {size}, "height": 48}}}}\n')
        files = ["--labels", "synth/labels.csv", "--manifest", f"manifest_{tag}.json"]
        run(out, f"refuse_manifest_{tag}_validate", "validate", *files, "--tracklets", "synth/tracklets.txt")
        run(out, f"refuse_manifest_{tag}_metrics", "metrics", *files, "--scores", "synth/scores_random.csv")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
