"""Run every skelstat command on fixed inputs and keep what each one leaves.

    PYTHONPATH=<tree>/src python3 tests/parity_run.py OUT

Each command runs as ``python -m skelstat.cli`` in OUT; its ``--out``
files land in OUT/<name>/, its stderr in OUT/<name>.stderr and its exit
code in OUT/<name>.code. Run it once per source tree, with that tree's
``src`` on PYTHONPATH (the children get the package's absolute path);
``diff -r`` of the two OUT trees is the parity check.
Inputs: ``skelstat synth`` seed 3 (every oracle and anomaly mode, two frame
sizes) and the benchmark's REPORT_M, CROWD and score-eval inputs at seed 1
(``perfbench/inputs.py`` never imports skelstat), a copy of the synth
labels without one validation frame, an empty label file, a copy of the
synth labels with every frame normal, the synth files with the
validation videos' frames shifted by 10^6, a file whose
finite hip coordinates overflow their midpoint, the small synth files
with the validation videos renamed ``v`` and ``v\\0`` (and labels and
scores of a video the manifest lacks), seeded embedding files of 4 and of
12000 values a row, an embedding file whose squared distance overflows,
one of equal distances 2^53, and one malformed tracklet, label, score,
embedding and manifest file per fault family of its parser, made from
those inputs. The REPORT_M tracklets are also read with CRLF and CR line
ends, behind a first parse block of blank lines, and with a fault past
the first parse block. Every embedding command runs alone and again
beside the synth data files, which it refuses, as it refuses each
windowing option. Some runs are refusals, among them window parameters
above their cap and below their floor, binning specs, synth specs (an
anomaly fraction that rounds to no frame among them) and anomaly modes,
metrics on labels of one class or on no labels, per-video averaging with
no two-class video, and an ``--out`` path that is a directory (its stderr
names that path). One tracklet file with padded fields and
non-ASCII digits is valid. A dataset of one window per split reaches the
report's single-window warnings.

    PYTHONPATH=<tree>/src python3 tests/parity_run.py OUT --lines FILE

also records which ``src/`` statements the commands reach: each child runs
the CLI under a ``sys.settrace`` hook, FILE gets one ``<module>.py:<line>``
per reached statement, and the script prints reached and total statements
per module. A statement is any AST statement other than ``def``, ``class``,
an import or a docstring. What only tests reach, and the test that imports
it: ``features.center_window`` (test_acceptance, test_features),
``metrics.error_rates`` (test_acceptance, test_metrics) and
``WindowBatch.from_columns`` (test_acceptance, test_analysis, test_core,
test_metrics) and ``DistanceSeries.__len__`` (test_analysis);
``WindowBatch.__len__`` is reached by the benchmark's tracer and by tests. No input reaches the closing
``AssertionError`` of ``ingest._raise_first_fault``: it marks a file that
a parser's column or block checks refuse and its line checks accept. Nor
does one reach ``DatasetBundle``'s keypoint-count check, since the CLI
parses the tracklets with the configured k.

No command reaches these checks of values the program computes itself,
since the CLI's own parsers and builders already refuse or cannot make
what they test; the tests named pin them:

- the result checks of ``MeanTensor``, ``SdomReport``, ``MetricsReport``
  and ``BoxStats`` (test_core), ``DistanceSeries`` (test_analysis),
  ``EmbeddingPrior`` and ``Histogram``, whose inputs ``parse_embeddings``
  and ``histogram`` check first;
- the column checks of ``Detections.from_columns`` and
  ``Labels.from_columns`` (test_core), and ``WindowingConfig``'s hip
  indices, which no option sets (test_core);
- the input checks of ``mean_tensor``, ``delta``, ``sdom``,
  ``distances_to_mean`` and ``latent_distances`` (test_analysis), of
  ``person_center`` and ``center_window`` (test_features), and of
  ``roc_curve``, ``pr_curve``, ``_threshold_counts`` and
  ``windows_to_frame_scores`` (test_metrics);
- ``stats.histogram``'s and ``box_stats``' empty series and unknown
  binning (test_stats);
- ``synth.oracle_scores``' unknown mode, which ``--oracle``'s choices
  refuse, and its distance oracle's refusal of a bundle without training
  or validation windows, which every synth spec has (test_synth).
"""

import argparse
import ast
import json
import os
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402
import numpy as np  # noqa: E402
from run import CROWD, REPORT_M, SCORE_FRAMES, SCORE_VIDEOS  # noqa: E402

MODES = ["traj-shift:100", "pose-deform:0.5", "group-converge:0.5"]
SYNTH = ["--seed", "3", "--videos", "2", "--val-videos", "2", "--frames", "120", "--persons", "3",
         "--anomaly-fraction", "0.25", *(a for m in MODES for a in ("--anomaly-mode", m)),
         *(a for o in ("perfect", "random", "distance") for a in ("--oracle", o))]


# The child under --lines: record (file, line) of every line run in the skelstat
# package, append them to the file named by its first argument, then exit as the CLI does.
TRACE = """
import runpy, sys
from importlib.util import find_spec
package = find_spec("skelstat").submodule_search_locations[0]
reached = set()

def line(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return line

def call(frame, event, arg):
    return line if frame.f_code.co_filename.startswith(package) else None

record, sys.argv = sys.argv[1], ["skelstat", *sys.argv[2:]]
sys.settrace(call)
try:
    runpy.run_module("skelstat.cli", run_name="__main__")
finally:
    sys.settrace(None)
    with open(record, "a") as fh:
        fh.writelines(f"{path}:{number}\\n" for path, number in reached)
"""


def data(directory: str, k: int) -> list:
    return ["--tracklets", f"{directory}/tracklets.txt", "--labels", f"{directory}/labels.csv",
            "--manifest", f"{directory}/manifest.json", "--keypoints", str(k)]


def main(out: Path, lines: Optional[Path] = None) -> None:
    """Run every command in ``out``; with ``lines``, under the trace, then report the reach there."""
    # the package this process finds, by an absolute path: the children run in out,
    # where a relative PYTHONPATH would find none
    package = Path(find_spec("skelstat").origin).parent
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    child = ["-m", "skelstat.cli"] if lines is None else ["-c", TRACE, str(lines)]

    def run(name: str, *argv: str) -> None:
        proc = subprocess.run([sys.executable, *child, argv[0], "--out", name, *argv[1:]],
                              cwd=out, capture_output=True, text=True, env=env)
        (out / f"{name}.stderr").write_text(proc.stderr)
        (out / f"{name}.code").write_text(f"{proc.returncode}\n")

    out.mkdir(parents=True)
    if lines is not None:
        lines.write_text("")  # the children append what they reach
    run("synth", "synth", *SYNTH)
    run("synth_small", "synth", *SYNTH, "--width", "640", "--height", "360", "--keypoints", "4")
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
        run(f"{name}_validate", "validate", *files)
        for feature in ("pose", "traj", "social"):
            for command in ("windows", "sdom", "dist-hist"):
                run(f"{name}_{command}_{feature}", command, *files, *windowing, "--feature", feature)
            run(f"{name}_dist-hist_{feature}_width", "dist-hist", *files, *windowing,
                "--feature", feature, "--binning", "width:25")
        for tag, extra in (("auto", []), ("count", ["--binning", "count:7", "--no-center"]),
                           ("width", ["--binning", "width:25"])):
            run(f"{name}_report_{tag}", "report", *files, *windowing, *extra)

    scores = [f"{d}/scores_{o}.csv" for d in ("synth", "synth_small") for o in ("perfect", "random", "distance")]
    for path in [*scores, "inputs/score_eval/scores.csv"]:
        directory = path.rsplit("/", 1)[0]
        files = ["--labels", f"{directory}/labels.csv", "--manifest", f"{directory}/manifest.json", "--scores", path]
        for tag, extra in (("plain", []), ("per_video", ["--per-video-average"]),
                           ("normality", ["--polarity", "normality"])):
            run(f"metrics_{path.replace('/', '_')[:-4]}_{tag}", "metrics", *files, *extra)

    for width in ("nan", "inf", "0"):
        run(f"refuse_width_{width}", "dist-hist", *datasets["synth"][0],
            "--feature", "pose", "--binning", f"width:{width}")
    # more bins than the cap; neither size can be allocated
    for tag, spec in (("width_1e-310", "width:1e-310"), ("count_2e62", f"count:{2**62}")):
        for command in ("dist-hist", "report"):
            run(f"refuse_bins_{tag}_{command}", command, *datasets["synth"][0], "--binning", spec)
    for tag, size in (("text", '"wide"'), ("list", "[1]")):
        (out / f"manifest_{tag}.json").write_text(f'{{"v": {{"split": "val", "width": {size}, "height": 48}}}}\n')
        files = ["--labels", "synth/labels.csv", "--manifest", f"manifest_{tag}.json"]
        run(f"refuse_manifest_{tag}_validate", "validate", *files, "--tracklets", "synth/tracklets.txt")
        run(f"refuse_manifest_{tag}_metrics", "metrics", *files, "--scores", "synth/scores_random.csv")

    # social capacity: refused, truncated to 3 and to 1 node, and short dense windows
    for name in ("report_m", "crowd"):
        for tag, options in (("n3", ["--nodes", "3"]), ("n3_truncate", ["--nodes", "3", "--truncate-social"]),
                             ("n1_truncate", ["--nodes", "1", "--truncate-social"]),
                             ("t5_s1_n40", ["--t", "5", "--stride", "1", "--nodes", "40"])):
            for command in ("sdom", "windows"):
                run(f"{name}_{command}_social_{tag}", command, *datasets[name][0], *options, "--feature", "social")

    # a validation frame without a label, inside pose and social windows
    (out / "unlabeled").mkdir()
    labels = (out / "synth" / "labels.csv").read_text().splitlines(keepends=True)
    labels.remove("val000,50,0\n")
    (out / "unlabeled" / "labels.csv").write_text("".join(labels))
    files = ["--tracklets", "synth/tracklets.txt", "--labels", "unlabeled/labels.csv",
             "--manifest", "synth/manifest.json"]
    for feature in ("pose", "social"):
        run(f"refuse_unlabeled_sdom_{feature}", "sdom", *files, "--feature", feature)
    run("refuse_unlabeled_sdom_social_n1_truncate", "sdom", *files, "--feature", "social",
        "--nodes", "1", "--truncate-social")

    # an empty label file: every validation window is unlabeled, and so is every score
    (out / "empty_labels").mkdir()
    (out / "empty_labels" / "labels.csv").write_text("")
    run("refuse_empty_labels_sdom_pose", "sdom", "--tracklets", "synth/tracklets.txt",
        "--labels", "empty_labels/labels.csv", "--manifest", "synth/manifest.json", "--feature", "pose")
    run("refuse_empty_labels_metrics", "metrics", "--labels", "empty_labels/labels.csv",
        "--manifest", "synth/manifest.json", "--scores", "synth/scores_random.csv")

    # validation frames that start at 10^6: the synth files with each validation
    # video's tracklet and label frames shifted by that much
    (out / "shifted").mkdir()
    manifest = (out / "synth" / "manifest.json").read_text()
    val = {video for video, meta in json.loads(manifest).items() if meta["split"] == "val"}
    for name, sep, at in (("tracklets.txt", "\t", 1), ("labels.csv", ",", 1)):
        rows = [line.split(sep) for line in (out / "synth" / name).read_text().splitlines()]
        for fields in rows:
            fields[at] = str(int(fields[at]) + 10**6) if fields[0] in val else fields[at]
        (out / "shifted" / name).write_text("".join(sep.join(fields) + "\n" for fields in rows))
    (out / "shifted" / "manifest.json").write_text(manifest)
    for feature in ("pose", "traj", "social"):
        run(f"shifted_sdom_{feature}", "sdom", *data("shifted", 17), "--feature", feature)
    run("shifted_windows_traj", "windows", *data("shifted", 17), "--feature", "traj")
    run("shifted_report", "report", *data("shifted", 17))

    # one window per video, k = 2, so one window per split: with finite keypoints whose
    # hip midpoint overflows (x = 1.7e308 on both hips of the training video), and without
    for name, train in (("overflow", "1.7e308,0.0,1.0;1.7e308,0.0,1.0"), ("single", "50.0,25.0,1.0;54.0,25.0,1.0")):
        (out / name).mkdir()
        kp = {"train000": train, "val000": "10.0,20.0,1.0;12.0,20.0,1.0", "val001": "30.0,40.0,1.0;34.0,40.0,1.0"}
        (out / name / "tracklets.txt").write_text(
            "".join(f"{video}\t{frame}\tp\t{points}\n" for video, points in kp.items() for frame in range(24)))
        (out / name / "labels.csv").write_text("".join(
            f"{video},{frame},{int(video == 'val001')}\n" for video in ("val000", "val001") for frame in range(24)))
        (out / name / "manifest.json").write_text(json.dumps(
            {video: {"split": "train" if video == "train000" else "val", "width": 100, "height": 50}
             for video in kp}))
    for feature in ("pose", "traj"):
        for tag, extra in (("", []), ("_no_center", ["--no-center"])):
            run(f"overflow_windows_{feature}{tag}", "windows", *data("overflow", 2), "--feature", feature, *extra)
    for command in ("sdom", "dist-hist"):
        run(f"overflow_{command}", command, *data("overflow", 2))
    run("single_report", "report", *data("single", 2))

    # ids that differ only by a trailing NUL: synth_small with val000 named v and val001 v\0
    (out / "nul").mkdir()
    rename = {"val000": "v", "val001": "v\x00"}
    for name in ("tracklets.txt", "labels.csv", "scores_random.csv", "scores_distance.csv"):
        sep = "\t" if name == "tracklets.txt" else ","
        rows = [line.split(sep, 1) for line in (out / "synth_small" / name).read_text().splitlines()]
        (out / "nul" / name).write_text("".join(f"{rename.get(video, video)}{sep}{rest}\n" for video, rest in rows))
    manifest = json.loads((out / "synth_small" / "manifest.json").read_text())
    (out / "nul" / "manifest.json").write_text(json.dumps({rename.get(v, v): meta for v, meta in manifest.items()}))
    run("nul_validate", "validate", *data("nul", 4))
    run("nul_report", "report", *data("nul", 4))
    run("nul_sdom_social", "sdom", *data("nul", 4), "--feature", "social")
    files = ["--labels", "nul/labels.csv", "--manifest", "nul/manifest.json"]
    for oracle in ("random", "distance"):
        for tag, extra in (("plain", []), ("per_video", ["--per-video-average"])):
            run(f"nul_metrics_{oracle}_{tag}", "metrics", *files, "--scores", f"nul/scores_{oracle}.csv", *extra)
    # labels and scores of a video the manifest lacks: metrics does not read the manifest's ids
    labels = (out / "nul" / "labels.csv").read_text()
    scores = (out / "nul" / "scores_random.csv").read_text()
    (out / "nul" / "labels_unknown.csv").write_text(labels + "u,0,0\nu,1,1\n")
    (out / "nul" / "scores_unknown.csv").write_text(scores + "u,1,0.5\nu,0,0.25\n")
    for tag, extra in (("plain", []), ("per_video", ["--per-video-average"])):
        run(f"nul_metrics_unknown_video_{tag}", "metrics", "--labels", "nul/labels_unknown.csv",
            "--manifest", "nul/manifest.json", "--scores", "nul/scores_unknown.csv", *extra)

    # window parameters above the cap of 10^6; none of these sizes can be allocated
    for tag, options in (("t", ["--t", str(2**63)]), ("stride", ["--stride", str(2**63)]),
                         ("nodes", ["--feature", "social", "--nodes", str(2**62)]),
                         ("keypoints", ["--keypoints", str(2**63)])):
        run(f"refuse_window_{tag}", "sdom", *datasets["synth"][0], *options)
    # and below their floor
    for tag, options in (("t_1", ["--t", "1"]), ("stride_0", ["--stride", "0"]),
                         ("nodes_0", ["--feature", "social", "--nodes", "0"]), ("keypoints_0", ["--keypoints", "0"])):
        run(f"refuse_window_{tag}", "sdom", *datasets["synth"][0], *options)
    for tag, spec in (("count_0", "count:0"), ("count_x", "count:x")):
        run(f"refuse_binning_{tag}", "dist-hist", *datasets["synth"][0], "--binning", spec)
    # an output path that is a directory: refused, and the temp file removed
    (out / "refuse_out_directory" / "sdom.json").mkdir(parents=True)
    run("refuse_out_directory", "sdom", *datasets["synth"][0])

    # synth specs the generator refuses, and one it accepts: a spawn radius
    tiny = ["--videos", "1", "--val-videos", "1", "--frames", "48", "--persons", "2", "--keypoints", "4"]
    for tag, options in (("videos_0", ["--videos", "0"]), ("frames_10", ["--frames", "10"]),
                         ("persons_0", ["--persons", "0"]), ("keypoints_1", ["--keypoints", "1"]),
                         ("fraction_2", ["--anomaly-fraction", "2", "--anomaly-mode", "traj-shift:1"]),
                         ("fraction_no_mode", ["--anomaly-fraction", "0.25"]),
                         ("fraction_no_frame", ["--anomaly-fraction", "0.001", "--anomaly-mode", "traj-shift:100"]),
                         ("jitter", ["--jitter", "-1"]),
                         ("shift", ["--anomaly-mode", "traj-shift:-1"]),
                         ("deform", ["--anomaly-mode", "pose-deform:-1"]),
                         ("converge", ["--anomaly-mode", "group-converge:2"]),
                         ("mode_bogus", ["--anomaly-mode", "bogus:1"]), ("mode_x", ["--anomaly-mode", "traj-shift:x"])):
        run(f"refuse_synth_{tag}", "synth", *tiny, *options)
    run("synth_spawn_radius", "synth", *tiny, "--spawn-radius", "20", "--oracle", "distance")

    # per-video averaging with one single-class video, and with none of two classes
    (out / "one_class").mkdir()
    labels = [line.split(",") for line in (out / "synth" / "labels.csv").read_text().splitlines()]
    for tag, flip in (("one", {"val001": "0"}), ("none", {"val000": "0", "val001": "1"})):
        (out / "one_class" / f"labels_{tag}.csv").write_text(
            "".join(f"{video},{frame},{flip.get(video, label)}\n" for video, frame, label in labels))
        run(f"metrics_single_class_{tag}", "metrics", "--labels", f"one_class/labels_{tag}.csv",
            "--manifest", "synth/manifest.json", "--scores", "synth/scores_random.csv", "--per-video-average")
    # labels of one class only, and no labels and no scores at all
    (out / "one_class" / "labels_normal.csv").write_text("".join(f"{video},{frame},0\n" for video, frame, _ in labels))
    (out / "one_class" / "empty.csv").write_text("")
    for tag, files in (("normal", ["one_class/labels_normal.csv", "synth/scores_random.csv"]),
                       ("empty", ["one_class/empty.csv", "one_class/empty.csv"])):
        run(f"refuse_metrics_{tag}", "metrics", "--labels", files[0], "--manifest", "synth/manifest.json",
            "--scores", files[1])

    def embedding_run(name: str, *argv: str) -> None:
        """dist-hist on an embedding file alone, and beside the synth data files it does not read."""
        run(f"{name}_alone", "dist-hist", *argv)
        run(name, "dist-hist", *datasets["synth"][0], *argv)

    # latent distances of seeded embedding files: 4 values a row, and 12000, above the
    # 10^4 at which OpenBLAS splits a dot product across threads
    for tag, dim, n_train in (("", 4, 20), ("_large", 12000, 10)):
        rng = np.random.default_rng(3)
        rows = [f"dim={dim} mu={','.join(map(repr, rng.normal(size=dim).tolist()))}"]
        for i, split in enumerate(["train"] * n_train + ["val_normal"] * 10 + ["val_anomalous"] * 10):
            vector = rng.normal(loc=2.0 if split == "val_anomalous" else 0.0, size=dim)
            rows.append(f"{split}\t{','.join(map(repr, vector.tolist()))}" + (f"\tw{i}" if i % 2 else ""))
        (out / f"embeddings{tag}.txt").write_text("\n".join(rows) + "\n")
    embedding_run("dist-hist_embeddings_large", "--embeddings", "embeddings_large.txt")
    rows = (out / "embeddings.txt").read_text().splitlines()
    for tag, extra in (("auto", []), ("width", ["--binning", "width:0.5"])):
        embedding_run(f"dist-hist_embeddings_{tag}", "--embeddings", "embeddings.txt", *extra)
    embedding_run("refuse_embeddings_feature", "--embeddings", "embeddings.txt", "--feature", "pose")
    # the windowing options, which it does not read either
    for tag, options in (("t", ["--t", "5"]), ("stride", ["--stride", "2"]), ("keypoints", ["--keypoints", "4"]),
                         ("nodes", ["--nodes", "3"]), ("no_center", ["--no-center"]),
                         ("truncate_social", ["--truncate-social"]),
                         ("all", ["--nodes", "3", "--no-center", "--t", "5", "--truncate-social", "--stride", "2",
                                  "--keypoints", "4"])):
        run(f"refuse_embeddings_window_{tag}", "dist-hist", "--embeddings", "embeddings.txt", *options)
    run("refuse_disthist_no_manifest", "dist-hist", *datasets["synth"][0][:4], "--feature", "pose")
    # one training vector: a split of one distance, in one bin narrower than the float spacing
    header, *vectors = rows
    (out / "embeddings_one_train.txt").write_text("\n".join([header, vectors[0], *vectors[20:]]) + "\n")
    embedding_run("refuse_width_float_spacing", "--embeddings", "embeddings_one_train.txt",
                  "--binning", "width:1e-310")
    # a squared distance that overflows, and equal training distances of 2^53
    (out / "embeddings_overflow.txt").write_text("dim=2 mu=0,0\ntrain\t1e200,1e200\n")
    run("overflow_embeddings", "dist-hist", "--embeddings", "embeddings_overflow.txt")
    (out / "embeddings_equal_2e53.txt").write_text("dim=1 mu=0\n" + "train\t9007199254740992\n" * 3)
    for tag, extra in (("auto", []), ("count", ["--binning", "count:10"])):
        run(f"refuse_equal_2e53_{tag}", "dist-hist", "--embeddings", "embeddings_equal_2e53.txt", *extra)

    # one malformed file per fault family of each parser: a valid file with a blank line
    # and a bad line appended, or with a bad header in place of its own
    (out / "faults").mkdir()

    def faulty(kind: str, texts: dict) -> dict:
        """Write each (tag, text) to faults/<kind>_<tag>.txt; the paths by tag."""
        for tag, text in texts.items():
            (out / "faults" / f"{kind}_{tag}.txt").write_text(text)
        return {tag: f"faults/{kind}_{tag}.txt" for tag in texts}

    tracklets = (out / "synth_small" / "tracklets.txt").read_text()
    first, rest = tracklets.split("\n", 1)
    kp = ";".join(["1.0,2.0,0.5"] * 3)  # three of synth_small's four joints
    paths = faulty("tracklets", {tag: f"{tracklets}\n{line}\n" for tag, line in (
        ("fields", "val000\t5\tzz"), ("frame", f"val000\tx\tzz\t{kp};{kp}"),
        ("frame_large", f"val000\t99999999999999999999\tzz\t{kp};1,2,0"),
        ("negative_frame", f"val000\t-1\tzz\t{kp};1,2,0"), ("keypoints", f"val000\t5\tzz\t{kp}"),
        ("triple", f"val000\t5\tzz\t{kp};1.0,2.0"), ("number", f"val000\t5\tzz\t{kp};1.0,y,0.5"),
        ("non_finite", f"val000\t5\tzz\tnan,2.0,0.5;{kp}"), ("confidence", f"val000\t5\tzz\t{kp};1.0,2.0,1.5"),
        ("duplicate", first))})
    # padded fields and non-ASCII digits, which Python's int() and float() read, are accepted
    video, frame, track, values = first.split("\t")
    digits = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))  # Arabic-Indic
    values = values.replace(",", " , ").translate(digits)
    paths.update(faulty("tracklets", {"padded": f"{video}\t {frame.translate(digits)} \t{track}\t{values}\n{rest}"}))
    small = ["--labels", "synth_small/labels.csv", "--manifest", "synth_small/manifest.json"]
    for tag, path in paths.items():
        for command in ("validate", "sdom"):
            run(f"fault_tracklets_{tag}_{command}", command, "--tracklets", path, *small, "--keypoints", "4")
    # a repeat in an earlier parse block than the bad last line
    report_m = (out / "inputs" / "report_m" / "tracklets.txt").read_text().splitlines(keepends=True)
    report_m.insert(3000, report_m[0])
    path = faulty("tracklets", {"report_m_repeat": "".join(report_m) + "v\t0\tt\tbad\n"})["report_m_repeat"]
    for command in ("validate", "sdom"):
        run(f"fault_tracklets_report_m_repeat_{command}", command, "--tracklets", path,
            *data("inputs/report_m", REPORT_M.k)[2:])

    # the REPORT_M tracklets with CRLF and CR line ends, behind a first parse block of
    # blank lines, and with a bad confidence at line 1001, past the first 2^18 characters
    (out / "blocks").mkdir()
    text = (out / "inputs" / "report_m" / "tracklets.txt").read_text()
    rows = text.splitlines()
    bad = rows[1000].rsplit(",", 1)[0] + ",1.5"
    for tag, variant in (("crlf", "\r\n".join(rows) + "\r\n"), ("cr", "\r".join(rows) + "\r"),
                         ("blank_start", "\n" * 2**18 + " \r\n" * 10 + text),
                         ("late_fault", "\r\n".join(rows[:1000] + [bad] + rows[1001:]) + "\r\n")):
        (out / "blocks" / f"{tag}.txt").write_text(variant)
        for command in ("validate", "sdom"):
            run(f"blocks_{tag}_{command}", command, "--tracklets", f"blocks/{tag}.txt",
                *data("inputs/report_m", REPORT_M.k)[2:])

    labels = (out / "synth_small" / "labels.csv").read_text()
    paths = faulty("labels", {tag: f"{labels}\n{line}\n" for tag, line in (
        ("fields", "val000,5"), ("frame", "val000,x,0"), ("negative_frame", "val000,-1,0"), ("label", "val000,5,2"),
        ("duplicate", "val000,0,1"))})
    for tag, path in paths.items():
        files = ["--labels", path, "--manifest", "synth_small/manifest.json"]
        run(f"fault_labels_{tag}_validate", "validate", *files, "--tracklets", "synth_small/tracklets.txt",
            "--keypoints", "4")
        run(f"fault_labels_{tag}_metrics", "metrics", *files, "--scores", "synth_small/scores_random.csv")

    scores = (out / "synth_small" / "scores_random.csv").read_text()
    paths = faulty("scores", {tag: f"{scores}\n{line}\n" for tag, line in (
        ("fields", "val000,5"), ("number", "val000,5,x"), ("non_finite", "val000,5,nan"),
        ("unlabeled", "val000,99999,0.5"), ("duplicate", "val000,0,0.5"))})
    for tag, path in paths.items():
        run(f"fault_scores_{tag}_metrics", "metrics", *small, "--scores", path)

    header, body = (out / "embeddings.txt").read_text().split("\n", 1)
    paths = faulty("embeddings", {
        "empty": "", "header": "dim=4\n" + body, "dimension": "dim=0 mu=\n" + body,
        "prior_count": "dim=4 mu=0,0\n" + body, "prior_value": "dim=4 mu=0,0,0,x\n" + body,
        **{tag: f"{header}\n{body}\n{line}\n" for tag, line in (
            ("fields", "train"), ("split", "test\t1,2,3,4"), ("length", "train\t1,2"), ("value", "train\t1,2,3,inf"))},
    })
    for tag, path in paths.items():
        embedding_run(f"fault_embeddings_{tag}", "--embeddings", path)

    size = '"width": 640, "height": 360'
    paths = faulty("manifest", {
        "json": "{", "array": "[]", "fields": '{"val000": {"split": "val", "width": 640}}',
        "split": f'{{"val000": {{"split": "test", {size}}}}}',
        "size": '{"val000": {"split": "val", "width": 0, "height": 1}}',
        "missing": f'{{"val000": {{"split": "val", {size}}}}}',  # the other three videos
    })
    for tag, path in paths.items():
        run(f"fault_manifest_{tag}_validate", "validate", "--tracklets", "synth_small/tracklets.txt",
            "--labels", "synth_small/labels.csv", "--manifest", path, "--keypoints", "4")
    if lines is not None:
        report_lines(package, lines)


def statements(path: Path) -> list:
    """Line numbers of a module's statements, other than def, class, imports and docstrings."""
    skip = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.stmt) and not isinstance(node, skip)
            and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                     and isinstance(node.value.value, str))]


def report_lines(package: Path, lines: Path) -> None:
    """Replace the (file, line) entries the children appended to ``lines`` with
    the statements they reach, and print reached/total statements per module."""
    hits = {(Path(path).name, int(number)) for path, number in
            (entry.rsplit(":", 1) for entry in lines.read_text().splitlines())}
    reached_all, totals = [], [0, 0]
    for path in sorted(package.glob("*.py")):
        numbers = statements(path)
        reached = [n for n in numbers if (path.name, n) in hits]
        reached_all += [f"{path.name}:{n}" for n in sorted(set(reached))]
        totals = [totals[0] + len(reached), totals[1] + len(numbers)]
        print(f"{path.stem:10} {len(reached):5} / {len(numbers)}")
    print(f"{'total':10} {totals[0]:5} / {totals[1]}")
    lines.write_text("".join(entry + "\n" for entry in reached_all))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Run every skelstat command on fixed inputs.")
    parser.add_argument("out", type=Path)
    parser.add_argument("--lines", type=Path, help="write the src/ statements the commands reach here")
    cli = parser.parse_args()
    main(cli.out, cli.lines and cli.lines.resolve())
