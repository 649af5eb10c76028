"""Command-line front door: validate | windows | sdom | dist-hist | metrics | synth | report.

All outputs are written atomically (temp file + rename) into the --out
directory; fatal errors produce machine-readable JSON on stderr and a
non-zero exit status. Defaults reproduce the reference configuration:
T=24, stride=6, N=35, k=17, centering on, anomaly score polarity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

import numpy as np

# Each command imports the other layers it runs inside its own body, so a
# run loads (and compiles, where no bytecode is cached) only those modules.
from .core import DataError, FeatureType, SkelstatError, WindowingConfig
from .ingest import DatasetBundle, ScorePolarity, format_rows, json_text, load_bundle

_FEATURES = {f.value: f for f in FeatureType}
_HIST_HEADER = ["bin_left", "bin_right", "count", "split"]
_WRITE_CHARS = 1 << 16  # characters per write: bounds the encoded copy of an output


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename; a failed
    rename is reported against ``path``, not the temp file it removes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for a in range(0, len(text), _WRITE_CHARS):
                fh.write(text[a : a + _WRITE_CHARS])
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: List[str], columns: list) -> str:
    """CSV text of equally long columns of numbers or strings, lists or 1-D arrays."""
    return ",".join(header) + "\n" + format_rows(",".join(["%s"] * len(columns)), columns)


def _distinct_text(values: np.ndarray) -> List[str]:
    """``str`` of each float, formatting each distinct value once: a curve
    rate is a count over n, so it takes at most n + 1 values. ``np.unique``
    merges only equal floats, and of those only -0.0 and 0.0 differ in text;
    no rate is -0.0."""
    distinct, index = np.unique(values, return_inverse=True)
    text = list(map(str, distinct.tolist()))
    return [text[i] for i in index.tolist()]


def _load_bundle(args) -> DatasetBundle:
    # validate takes no --stride or --nodes; its config keeps their defaults
    windowing = {"stride": args.stride, "N": args.nodes} if "stride" in args else {}
    config = WindowingConfig(T=args.t, k=args.keypoints, **windowing)
    return load_bundle(args.tracklets, args.labels, args.manifest, config)


def _center_policy(args):
    from .features import CenterPolicy
    return CenterPolicy.NONE if args.no_center else CenterPolicy.FIRST_POSE_TO_FRAME_CENTER


def _windows(args):
    """The --feature (pose when unset) and the bundle's windows of it."""
    from .features import build_windows
    feature = _FEATURES[args.feature or "pose"]
    return feature, build_windows(_load_bundle(args), feature, _center_policy(args), args.truncate_social)


def cmd_validate(args) -> int:
    from .ingest import validate_bundle
    report = validate_bundle(_load_bundle(args))
    atomic_write_text(Path(args.out) / "validation.json", json_text(report.to_dict()))
    return 0 if report.ok else 1


def cmd_windows(args) -> int:
    from .features import serialize_windows
    feature, windows = _windows(args)
    atomic_write_text(Path(args.out) / f"windows_{feature.value}.txt", serialize_windows(windows))
    return 0


def cmd_sdom(args) -> int:
    from .analysis import sdom_report
    feature, windows = _windows(args)
    report = sdom_report(windows, feature)
    atomic_write_text(Path(args.out) / "sdom.json", json_text(report.to_dict()))
    return 0


def _write_histogram(out: Path, tag: str, hist: dict) -> None:
    """One histogram's CSV from its ``Histogram.to_dict()`` form."""
    edges, counts = hist["bin_edges"], hist["counts"]
    columns = [edges[:-1], edges[1:], counts, [hist["split"]] * len(counts)]
    atomic_write_text(out / f"hist_{tag}_{hist['split']}.csv", _csv_text(_HIST_HEADER, columns))


def cmd_disthist(args) -> int:
    from .analysis import distance_series, latent_distances
    from .ingest import parse_embeddings
    from .stats import box_stats, histogram, parse_binning
    binning = parse_binning(args.binning)
    out = Path(args.out)
    data = ("tracklets", "labels", "manifest")
    if args.embeddings:  # latent mode reads no window data and takes no windowing option
        # an option given at its default value cannot be told from an absent one
        default = vars(build_parser().parse_args(["dist-hist", "--out", ""]))
        windowing = ("t", "keypoints", "stride", "nodes", "no_center", "truncate_social")
        given = [option for option in ("feature", *data, *windowing) if getattr(args, option) != default[option]]
        if given:
            raise DataError(f"--embeddings and --{given[0].replace('_', '-')} are mutually exclusive")
        with open(args.embeddings, "r", encoding="utf-8") as fh:
            vectors, splits, _, prior = parse_embeddings(fh.read())
        series_by_split = latent_distances(vectors, splits, prior)
        tag = "latent"
    else:
        missing = [option for option in data if getattr(args, option) is None]
        if missing:
            raise DataError(f"--{missing[0]} is required without --embeddings")
        feature, windows = _windows(args)
        series_by_split = distance_series(windows)
        tag = feature.value
    boxes = {}  # box_{tag}.json sorts its keys
    for split, series in series_by_split.items():
        boxes[split.value] = box_stats(series).to_dict()
        _write_histogram(out, tag, histogram(series, binning).to_dict())
    atomic_write_text(out / f"box_{tag}.json", json_text(boxes))
    return 0


def cmd_metrics(args) -> int:
    from .ingest import parse_labels, parse_manifest, parse_scores
    from .metrics import metrics_report, metrics_report_per_video
    with open(args.manifest, "r", encoding="utf-8") as fh:
        parse_manifest(fh.read())  # validates the manifest is well-formed
    with open(args.labels, "r", encoding="utf-8") as fh:
        labels = parse_labels(fh.read())
    polarity = ScorePolarity(args.polarity)
    with open(args.scores, "r", encoding="utf-8") as fh:
        frames = parse_scores(fh.read(), polarity, labels)
    uncovered = len(labels.frame) - len(frames.frame)  # parse_scores joins each score to its own label row
    if args.per_video_average:  # first: its refusals come before those of the pooled report
        per_video, skipped = metrics_report_per_video(
            frames.score, frames.positive, frames.video, frames.video_ids, uncovered
        )
        if skipped:
            logging.getLogger(__name__).warning("skipped single-class videos: %s", skipped)
    report, roc, pr = metrics_report(frames.score, frames.positive, uncovered)
    if args.per_video_average:
        report = per_video
    out = Path(args.out)
    atomic_write_text(out / "metrics.json", json_text(report.to_dict()))
    # both curves come from one threshold table: roc.csv's rows after its
    # (inf, 0, 0) row hold pr.csv's thresholds, and tpr is recall (tp / n_pos),
    # so those two columns are formatted once, and a rate once per distinct value
    thresholds, recall = list(map(str, pr[:, 0].tolist())), _distinct_text(pr[:, 1])
    pr_columns = [thresholds, recall, pr[:, 2]]
    atomic_write_text(out / "pr.csv", _csv_text(["threshold", "recall", "precision"], pr_columns))
    roc_columns = [["inf", *thresholds], _distinct_text(roc[:, 1]), ["0.0", *recall]]
    atomic_write_text(out / "roc.csv", _csv_text(["threshold", "fpr", "tpr"], roc_columns))
    return 0


def parse_anomaly_mode(text: str):
    from .synth import GroupConverge, PoseDeform, TrajectoryShift
    kind, _, value = text.partition(":")
    try:
        if kind == "traj-shift":
            return TrajectoryShift(float(value))
        if kind == "pose-deform":
            return PoseDeform(float(value))
        if kind == "group-converge":
            return GroupConverge(float(value))
    except ValueError:
        pass
    raise DataError(
        f"invalid anomaly mode {text!r}; expected traj-shift:<px>, "
        "pose-deform:<amp> or group-converge:<rate>"
    )


def cmd_synth(args) -> int:
    from .ingest import serialize_labels, serialize_manifest, serialize_scores, serialize_tracklets
    from .synth import SynthSpec, generate, oracle_scores
    spec = SynthSpec(
        n_train_videos=args.videos,
        n_val_videos=args.val_videos,
        frames_per_video=args.frames,
        persons_per_video=args.persons,
        k=args.keypoints,
        frame_width=args.width,
        frame_height=args.height,
        drift_speed=args.drift,
        jitter_std=args.jitter,
        spawn_radius=args.spawn_radius,
        anomaly_modes=tuple(parse_anomaly_mode(m) for m in args.anomaly_mode),
        anomaly_fraction=args.anomaly_fraction,
        seed=args.seed,
        T=args.t,
        stride=args.stride,
        N=args.nodes,
    )
    bundle = generate(spec)
    out = Path(args.out)
    atomic_write_text(out / "tracklets.txt", serialize_tracklets(bundle.detections))
    atomic_write_text(out / "labels.csv", serialize_labels(bundle.labels))
    atomic_write_text(out / "manifest.json", serialize_manifest(bundle.videos))
    atomic_write_text(out / "synth_spec.json", json_text(spec.to_dict()))
    for mode in args.oracle:
        atomic_write_text(out / f"scores_{mode}.csv", serialize_scores(oracle_scores(bundle, mode, seed=args.seed)))
    return 0


def cmd_report(args) -> int:
    from .stats import difficulty_report, parse_binning
    report = difficulty_report(
        _load_bundle(args),
        feature_types=tuple(FeatureType),
        center=_center_policy(args),
        binning=parse_binning(args.binning),
        truncate_social=args.truncate_social,
    )
    out = Path(args.out)
    atomic_write_text(out / "report.json", json_text(report))
    for feature_value, entry in report["features"].items():
        for hist in entry.get("histograms", {}).values():
            _write_histogram(out, feature_value, hist)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skelstat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, windowing=True):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--t", type=int, default=24, help="frames per window")
        p.add_argument("--keypoints", type=int, default=17, help="keypoints per pose")
        if windowing:
            p.add_argument("--stride", type=int, default=6)
            p.add_argument("--nodes", type=int, default=35, help="social node capacity N")

    def add_data(p, windowing=True, feature=True, required=True):
        add_common(p, windowing)
        p.add_argument("--tracklets", required=required)
        p.add_argument("--labels", required=required)
        p.add_argument("--manifest", required=required)
        if windowing:
            p.add_argument("--no-center", action="store_true")
            p.add_argument("--truncate-social", action="store_true")
        if windowing and feature:
            p.add_argument("--feature", choices=sorted(_FEATURES), default=None)

    p = sub.add_parser("validate", help="cross-check tracklets, labels and manifest")
    add_data(p, windowing=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("windows", help="build and export feature windows")
    add_data(p)
    p.set_defaults(func=cmd_windows)

    p = sub.add_parser("sdom", help="S-DoM report for one feature type")
    add_data(p)
    p.set_defaults(func=cmd_sdom)

    p = sub.add_parser("dist-hist", help="distance histograms and box statistics")
    add_data(p, required=False)  # cmd_disthist requires the data files without --embeddings
    p.add_argument("--binning", default="auto", help="auto | count:<n> | width:<w>")
    p.add_argument("--embeddings", default=None, help="latent mode: embedding file")
    p.set_defaults(func=cmd_disthist)

    p = sub.add_parser("metrics", help="AUC-ROC, AUC-PR and EER of a score file")
    p.add_argument("--out", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--polarity", choices=[p.value for p in ScorePolarity], default="anomaly")
    p.add_argument("--per-video-average", action="store_true")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    add_common(p)
    p.add_argument("--width", type=float, default=856.0, help="frame width")
    p.add_argument("--height", type=float, default=480.0, help="frame height")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--videos", type=int, default=3, help="training videos")
    p.add_argument("--val-videos", type=int, default=3)
    p.add_argument("--frames", type=int, default=240)
    p.add_argument("--persons", type=int, default=3)
    p.add_argument("--drift", type=float, default=1.0, help="max drift speed px/frame")
    p.add_argument("--jitter", type=float, default=1.0, help="joint jitter std px")
    p.add_argument("--spawn-radius", type=float, default=None)
    p.add_argument("--anomaly-mode", action="append", default=[],
                   help="traj-shift:<px> | pose-deform:<amp> | group-converge:<rate>")
    p.add_argument("--anomaly-fraction", type=float, default=0.0)
    p.add_argument("--oracle", action="append", default=[],
                   choices=["perfect", "random", "distance"],
                   help="also emit oracle score files")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="consolidated difficulty report")
    add_data(p, feature=False)
    p.add_argument("--binning", default="auto")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=os.environ.get("SKELSTAT_LOG", "WARNING"))
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SkelstatError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
