"""Acceptance suite: ten numbered criteria, one test (and one pass/fail
line under ``pytest -v``) per criterion.

Fast criteria run on every invocation; the synthetic-scale criteria
(07, 08, 09, 10) build their fixtures inline and stay within the stated
runtime budgets on a commodity 4-core machine.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from skelstat.analysis import (
    distances_to_mean,
    mean_tensor,
    sdom,
    sdom_report,
)
from skelstat.cli import main as cli_main
from skelstat.core import (
    Detections,
    FeatureType,
    Labels,
    Split,
    WindowBatch,
    WindowingConfig,
)
from skelstat.features import CenterPolicy, build_windows, center_window
from skelstat.ingest import DatasetBundle, VideoMeta
from skelstat.metrics import auc_roc, eer, error_rates, roc_curve
from skelstat.synth import SynthSpec, TrajectoryShift, generate


def _fixtures_with_ties(n_fixtures=100, seed=1234):
    """Seeded (scores, positive) fixtures (n <= 200) with injected ties."""
    rng = np.random.default_rng(seed)
    fixtures = []
    for _ in range(n_fixtures):
        n = int(rng.integers(10, 201))
        labels = rng.random(n) < rng.uniform(0.15, 0.85)
        if not labels.any():
            labels[0] = True
        if labels.all():
            labels[0] = False
        scores = rng.normal(size=n) + labels * rng.uniform(0.0, 2.0)
        grid = int(rng.integers(2, 8))  # coarse grid injects ties
        scores = np.round(scores * grid) / grid
        fixtures.append((scores, labels))
    return fixtures


def test_01_sdom_arithmetic_reference_table():
    pairs = [
        (2.80, 3.75, 0.95),
        (0.58, 0.76, 0.18),
        (2.91, 2.76, -0.15),
        (0.30, 0.13, -0.17),
    ]
    for delta_n, delta_a, expected in pairs:
        assert abs(sdom(delta_a, delta_n) - expected) <= 1e-12


def test_02_auc_roc_pairwise_oracle_equivalence():
    for scores, positive in _fixtures_with_ties():
        pos = scores[positive]
        neg = scores[~positive]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        oracle = wins / (pos.size * neg.size)
        assert abs(auc_roc(roc_curve(scores, positive)) - oracle) <= 1e-9


def test_03_eer_rate_balance_and_perfect_separation():
    for scores, positive in _fixtures_with_ties():
        roc = roc_curve(scores, positive)
        rate, threshold = eer(roc)
        n_pos = int(positive.sum())
        n_neg = len(scores) - n_pos
        fpr, fnr = error_rates(roc, threshold)
        assert abs(fpr - fnr) <= 1.0 / (2.0 * min(n_pos, n_neg))
        assert 0.0 <= rate <= 1.0
    # perfectly separable scores give EER = 0 exactly
    positive = np.arange(20) >= 10
    perfect = roc_curve(positive.astype(float), positive)
    rate, threshold = eer(perfect)
    assert rate == 0.0
    assert error_rates(perfect, threshold) == (0.0, 0.0)


def test_04_window_count_law():
    rng = np.random.default_rng(77)
    cfg_cache = {}
    for _ in range(1000):
        L = int(rng.integers(1, 120))
        T = int(rng.integers(2, 40))
        stride = int(rng.integers(1, 12))
        key = (T, stride)
        if key not in cfg_cache:
            cfg_cache[key] = WindowingConfig(T=T, stride=stride, k=1, hip_indices=(0, 0))
        kp = [[(float(f), 0.0, 0.9)] for f in range(L)]
        tracklet = Detections.from_columns(["v"] * L, ["t"] * L, list(range(L)), kp)
        no_labels = Labels.from_columns([], [], [])
        bundle = DatasetBundle(tracklet, no_labels, {"v": VideoMeta("train", 100, 100)}, cfg_cache[key])
        windows = build_windows(bundle, FeatureType.POSE, CenterPolicy.NONE)
        expected_starts = [s for s in range(0, L - T + 1, stride)] if L >= T else []
        assert windows.start.tolist() == expected_starts
        assert len(windows) == ((L - T) // stride + 1 if L >= T else 0)


def test_05_centering_invariants():
    rng = np.random.default_rng(99)
    center = np.array([428.0, 240.0])
    for _ in range(1000):
        coords = rng.uniform(-50, 900, size=(12, 17, 2))
        out = center_window(coords, center, (11, 12))
        hip_mid = (out[0, 11] + out[0, 12]) / 2.0
        assert np.abs(hip_mid - center).max() <= 1e-9  # (a)
        assert np.abs(np.diff(out, axis=0) - np.diff(coords, axis=0)).max() <= 1e-9  # (b)
        shift = rng.uniform(-500, 500, size=2)
        out_shifted = center_window(coords + shift, center, (11, 12))
        assert np.abs(out_shifted - out).max() <= 1e-9  # (c)


def test_06_sdom_translation_invariance_and_scale_equivariance():
    rng = np.random.default_rng(55)

    def make(loc):
        return loc + rng.normal(size=(25, 8, 3, 2))

    train, vn, va = make(0.0), make(0.7), make(2.0)

    def remap(groups, fn):
        coords = np.concatenate([fn(group) for group in groups])
        splits = [split for split in (Split.TRAIN, Split.VAL_NORMAL, Split.VAL_ANOMALOUS) for _ in range(25)]
        return WindowBatch.from_columns(
            coords, np.ones(coords.shape[:3], dtype=bool), ["v"] * 75, list(range(25)) * 3, splits, [("t",)] * 75
        )

    base = sdom_report(remap((train, vn, va), lambda c: c))
    shift = np.array([311.5, -47.25])
    shifted = sdom_report(remap((train, vn, va), lambda c: c + shift))
    for got, want in (
        (shifted.delta_n, base.delta_n),
        (shifted.delta_a, base.delta_a),
        (shifted.sdom, base.sdom),
    ):
        assert abs(got - want) <= 1e-9

    s = 3.25
    scaled = sdom_report(remap((train, vn, va), lambda c: c * s))
    for got, want in (
        (scaled.delta_n, s * base.delta_n),
        (scaled.delta_a, s * base.delta_a),
        (scaled.sdom, s * base.sdom),
    ):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def _monotonicity_sdom(delta):
    spec = SynthSpec(
        n_train_videos=23,
        n_val_videos=65,
        frames_per_video=246,
        persons_per_video=6,
        k=2,
        spawn_radius=2.0,
        drift_speed=0.0,
        jitter_std=1.0,
        anomaly_modes=(TrajectoryShift(delta),),
        anomaly_fraction=0.25,
        seed=123,
    )
    bundle = generate(spec)
    # uncentered trajectories: centering would cancel the constant shift by design
    windows = build_windows(bundle, FeatureType.ABSOLUTE_TRAJECTORY, CenterPolicy.NONE)
    return sdom_report(windows, FeatureType.ABSOLUTE_TRAJECTORY)


def test_07_synthetic_sdom_monotonicity():
    start = time.perf_counter()
    reports = {delta: _monotonicity_sdom(delta) for delta in (0, 10, 25, 50, 100)}
    assert all(count >= 5000 for count in reports[0].counts)
    assert abs(reports[0].sdom) < 0.05
    values = [reports[d].sdom for d in (0, 10, 25, 50, 100)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert time.perf_counter() - start < 30.0


def _synth_and_metrics(tmp_path, oracle):
    data = tmp_path / "data"
    if not data.exists():
        assert cli_main(
            [
                "synth", "--out", str(data), "--seed", "202", "--videos", "3",
                "--val-videos", "10", "--frames", "240", "--persons", "2",
                "--keypoints", "4", "--spawn-radius", "10", "--drift", "0.2",
                "--jitter", "1.0", "--anomaly-mode", "traj-shift:100",
                "--anomaly-fraction", "0.25", "--oracle", "distance", "--oracle", "random",
            ]
        ) == 0
    out = tmp_path / f"metrics_{oracle}"
    assert cli_main(
        [
            "metrics", "--out", str(out), "--labels", str(data / "labels.csv"),
            "--manifest", str(data / "manifest.json"),
            "--scores", str(data / f"scores_{oracle}.csv"),
        ]
    ) == 0
    return json.loads((out / "metrics.json").read_text())


def test_08_detector_sanity_through_cli(tmp_path):
    distance = _synth_and_metrics(tmp_path, "distance")
    assert distance["n_pos"] + distance["n_neg"] >= 2000
    assert distance["auc_roc"] > 0.9
    assert distance["eer"] < 0.2
    random_report = _synth_and_metrics(tmp_path, "random")
    assert 0.4 <= random_report["auc_roc"] <= 0.6


def _run_pipeline(root: Path):
    data = root / "data"
    assert cli_main(
        [
            "synth", "--out", str(data), "--seed", "77", "--videos", "2", "--val-videos", "2",
            "--frames", "96", "--persons", "2", "--keypoints", "4", "--spawn-radius", "20",
            "--drift", "0.5", "--anomaly-mode", "traj-shift:60", "--anomaly-fraction", "0.25",
            "--oracle", "distance",
        ]
    ) == 0
    common = [
        "--tracklets", str(data / "tracklets.txt"),
        "--labels", str(data / "labels.csv"),
        "--manifest", str(data / "manifest.json"),
        "--keypoints", "4",
    ]
    assert cli_main(["windows", "--out", str(root / "win"), *common, "--feature", "traj"]) == 0
    assert cli_main(["sdom", "--out", str(root / "sdom"), *common, "--feature", "traj", "--no-center"]) == 0
    assert cli_main(["dist-hist", "--out", str(root / "hist"), *common, "--feature", "traj",
                     "--binning", "count:16"]) == 0
    assert cli_main(["report", "--out", str(root / "report"), *common, "--binning", "count:16"]) == 0


def test_09_pipeline_byte_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _run_pipeline(a)
    _run_pipeline(b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_10_throughput_100k_windows():
    rng = np.random.default_rng(0)
    base = rng.normal(size=(100_000, 24, 17, 2))
    mask = np.ones((100_000, 24, 17), dtype=bool)
    splits = (
        [Split.TRAIN] * 40_000 + [Split.VAL_NORMAL] * 30_000 + [Split.VAL_ANOMALOUS] * 30_000
    )
    windows = WindowBatch.from_columns(base, mask, ["v"] * 100_000, [0] * 100_000, splits, [("t",)] * 100_000)
    start = time.perf_counter()
    report = sdom_report(windows, FeatureType.POSE)
    mu = mean_tensor(windows, Split.TRAIN)
    series = distances_to_mean(windows, mu)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert math.isfinite(report.sdom)
    assert len(series) == 100_000
