"""Golden bytes of ``metrics``, ``dist-hist``, ``report``, ``sdom`` and
``validate`` outputs, and of the spec ``synth`` writes.

Test 09 checks that two runs write the same bytes; this test checks that
the bytes are the ones recorded before the score path and the CSV writer
moved to columns, before validation moved to whole-table counts, and
before the histogram CSVs and the curve rates got one formatting path each.
Inputs are built from exact binary fractions, so they do not depend on a
random generator or on libm.
"""

import hashlib
import json

import pytest

from skelstat.cli import main

VIDEOS = ("cam", "cam\x00")  # the NUL-suffixed id must stay its own video


def write_score_inputs(directory):
    """Two 200-frame videos with tie-heavy scores on a 1/4 grid, written in
    reverse frame order."""
    labels, scores = [], []
    for v, video in enumerate(VIDEOS):
        for f in range(200):
            positive = (f // 25) % 3 == 1
            labels.append(f"{video},{f},{int(positive)}")
            score = ((f * 37 + v * 11) % 17) / 4 + positive * (1.25 + v)
            scores.append(f"{video},{f},{score!r}")
    (directory / "labels.csv").write_text("\n".join(labels) + "\n", encoding="utf-8")
    (directory / "scores.csv").write_text("\n".join(reversed(scores)) + "\n", encoding="utf-8")
    manifest = {video: {"split": "val", "width": 64, "height": 48} for video in VIDEOS}
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def write_tracklet_inputs(directory):
    """Two training and two validation videos of two 4-joint tracks over 40
    frames; validation frames 20-29 are anomalous and their joints spread."""
    tracklets, labels, manifest = [], [], {}
    for name, split in (("t0", "train"), ("t1", "train"), ("u0", "val"), ("u1", "val")):
        manifest[name] = {"split": split, "width": 200, "height": 100}
        for f in range(40):
            anomalous = split == "val" and 20 <= f < 30
            labels.append(f"{name},{f},{int(anomalous)}")
            for t in range(2):
                joints = []
                for j in range(4):
                    x = 40 + 30 * t + 8 * j + ((f * 7 + j * 3 + t * 5) % 11) / 8 + anomalous * j * 2.5
                    y = 50 + 4 * j + ((f * 5 + j) % 7) / 4 - anomalous * 1.5
                    joints.append(f"{x!r},{y!r},{(j + 1) / 4!r}")
                tracklets.append(f"{name}\t{f}\tp{t}\t{';'.join(joints)}")
    (directory / "tracklets.txt").write_text("\n".join(tracklets) + "\n", encoding="utf-8")
    (directory / "labels.csv").write_text("\n".join(labels) + "\n", encoding="utf-8")
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def write_validate_inputs(directory, anomalous_train):
    """Three 2-joint videos of two tracks each, the second gapped every 7th
    frame, one of them NUL-suffixed; the validation video ``b`` misses three
    labels; ``empty`` is in the manifest only. With ``anomalous_train`` the
    training video ``a`` has one anomalous frame. Lines are written in
    reverse order."""
    tracklets, labels = [], []
    for v, name in enumerate(("a", "a\x00", "b")):
        for t, frames in enumerate((range(12), [f for f in range(3, 20) if f % 7])):
            tracklets += [f"{name}\t{f + v}\tp{t}\t{f}.5,{t}.25,0.5;{v}.0,{f}.0,1.0" for f in frames]
        for f in range(22):
            anomalous = 8 <= f < 11 if name != "a" else anomalous_train and f == 6
            if name != "b" or f not in (4, 5, 13):
                labels.append(f"{name},{f},{int(anomalous)}")
    splits = {"a": "train", "a\x00": "val", "b": "val", "empty": "val"}
    manifest = {name: {"split": split, "width": 64, "height": 48} for name, split in splits.items()}
    (directory / "tracklets.txt").write_text("\n".join(reversed(tracklets)) + "\n", encoding="utf-8")
    (directory / "labels.csv").write_text("\n".join(reversed(labels)) + "\n", encoding="utf-8")
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in sorted(out.iterdir())}


# sha256 prefixes of each output file, recorded from the row-wise writer
METRICS_GOLDEN = {
    (): {"metrics.json": "a381414c3ac944f3", "pr.csv": "9d8bf34aecbb5aec", "roc.csv": "0a5f66084792f593"},
    ("--per-video-average",): {
        "metrics.json": "d83665fdd3ee45d2", "pr.csv": "9d8bf34aecbb5aec", "roc.csv": "0a5f66084792f593",
    },
    ("--polarity", "normality"): {
        "metrics.json": "05c96c6a88b03d33", "pr.csv": "b09516972335e521", "roc.csv": "182802f692e71cf8",
    },
}

DISTHIST_GOLDEN = {
    (): {
        "box_pose.json": "b4490f8c506d3255", "hist_pose_train.csv": "b2f19b1abbed7c4b",
        "hist_pose_val_anomalous.csv": "fbb6c208914f57b4", "hist_pose_val_normal.csv": "aed1a05a3b925e5b",
    },
    ("--binning", "count:7", "--no-center"): {
        "box_pose.json": "a409f5a9566b87a0", "hist_pose_train.csv": "014a84b09d724f9e",
        "hist_pose_val_anomalous.csv": "f7b908378fbabb78", "hist_pose_val_normal.csv": "25f568f79f1e4181",
    },
}


@pytest.mark.parametrize("extra", list(METRICS_GOLDEN))
def test_metrics_bytes(tmp_path, extra):
    write_score_inputs(tmp_path)
    out = tmp_path / "out"
    argv = ["metrics", "--out", out, "--labels", tmp_path / "labels.csv",
            "--manifest", tmp_path / "manifest.json", "--scores", tmp_path / "scores.csv", *extra]
    assert main([str(a) for a in argv]) == 0
    assert digests(out) == METRICS_GOLDEN[extra]


@pytest.mark.parametrize("extra", list(DISTHIST_GOLDEN))
def test_dist_hist_bytes(tmp_path, extra):
    write_tracklet_inputs(tmp_path)
    out = tmp_path / "out"
    argv = ["dist-hist", "--out", out, "--tracklets", tmp_path / "tracklets.txt",
            "--labels", tmp_path / "labels.csv", "--manifest", tmp_path / "manifest.json",
            "--keypoints", 4, "--t", 4, "--stride", 2, "--feature", "pose", *extra]
    assert main([str(a) for a in argv]) == 0
    assert digests(out) == DISTHIST_GOLDEN[extra]


REPORT_GOLDEN = {
    (): {
        "hist_pose_train.csv": "b2f19b1abbed7c4b", "hist_pose_val_anomalous.csv": "fbb6c208914f57b4",
        "hist_pose_val_normal.csv": "aed1a05a3b925e5b", "hist_social_train.csv": "b4d49af506cc6621",
        "hist_social_val_anomalous.csv": "0bd9ed834fe3f285", "hist_social_val_normal.csv": "308329bd5368c82b",
        "hist_traj_train.csv": "7f3f64aea2424529", "hist_traj_val_anomalous.csv": "3a25de228630f8be",
        "hist_traj_val_normal.csv": "5286683e568347f3", "report.json": "7283871e01302670",
    },
    ("--binning", "count:7", "--no-center"): {
        "hist_pose_train.csv": "014a84b09d724f9e", "hist_pose_val_anomalous.csv": "f7b908378fbabb78",
        "hist_pose_val_normal.csv": "25f568f79f1e4181", "hist_social_train.csv": "d53ef8acd8f65580",
        "hist_social_val_anomalous.csv": "4d1718ed03129c88", "hist_social_val_normal.csv": "aa1938e2ada6a90f",
        "hist_traj_train.csv": "6306938387641f95", "hist_traj_val_anomalous.csv": "5ad542244902aa5b",
        "hist_traj_val_normal.csv": "8b92972eb2be21b0", "report.json": "13fd3503460950fe",
    },
}

SDOM_SOCIAL_GOLDEN = {
    (): {"sdom.json": "b70b9cb4e784d112"},
    ("--no-center", "--nodes", "1", "--truncate-social"): {"sdom.json": "82f7abb8f2f5ff55"},
}


def tracklet_argv(directory, command, extra):
    argv = [command, "--out", directory / "out", "--tracklets", directory / "tracklets.txt",
            "--labels", directory / "labels.csv", "--manifest", directory / "manifest.json",
            "--keypoints", 4, "--t", 4, "--stride", 2, *extra]
    return [str(a) for a in argv]


@pytest.mark.parametrize("extra", list(REPORT_GOLDEN))
def test_report_bytes(tmp_path, extra):
    write_tracklet_inputs(tmp_path)
    assert main(tracklet_argv(tmp_path, "report", extra)) == 0
    assert digests(tmp_path / "out") == REPORT_GOLDEN[extra]


@pytest.mark.parametrize("extra", list(SDOM_SOCIAL_GOLDEN))
def test_sdom_social_bytes(tmp_path, extra):
    write_tracklet_inputs(tmp_path)
    assert main(tracklet_argv(tmp_path, "sdom", ("--feature", "social", *extra))) == 0
    assert digests(tmp_path / "out") == SDOM_SOCIAL_GOLDEN[extra]


# (exit code, sha256 prefix of validation.json) by whether a training video has an anomalous label
VALIDATE_GOLDEN = {False: (0, "00352864c824969f"), True: (1, "4e248726d57079cc")}


@pytest.mark.parametrize("anomalous_train", list(VALIDATE_GOLDEN))
def test_validate_bytes(tmp_path, anomalous_train):
    write_validate_inputs(tmp_path, anomalous_train)
    out = tmp_path / "out"
    argv = ["validate", "--out", out, "--tracklets", tmp_path / "tracklets.txt",
            "--labels", tmp_path / "labels.csv", "--manifest", tmp_path / "manifest.json",
            "--keypoints", 2, "--t", 5]
    code = main([str(a) for a in argv])
    assert (code, digests(out)["validation.json"]) == VALIDATE_GOLDEN[anomalous_train]


SYNTH_ARGS = (
    "--videos", 1, "--val-videos", 1, "--frames", 24, "--persons", 2, "--keypoints", 4, "--t", 4, "--stride", 2,
    "--nodes", 3, "--width", 640, "--height", 360, "--drift", 1.5, "--jitter", 0.25, "--spawn-radius", 40.5,
    "--anomaly-mode", "traj-shift:12.5", "--anomaly-mode", "pose-deform:0.75", "--anomaly-mode", "group-converge:0.5",
    "--anomaly-fraction", 0.25, "--seed", 7,
)


def test_synth_spec_bytes(tmp_path):
    # the other synth files depend on the generator and libm; parity runs cover them
    assert main([str(a) for a in ("synth", "--out", tmp_path, *SYNTH_ARGS)]) == 0
    assert digests(tmp_path)["synth_spec.json"] == "742845de5cba58e7"
