import math

import numpy as np
import pytest

from skelstat.core import DataError, Labels, Split, WindowBatch, video_names
from skelstat.metrics import (
    auc_pr,
    auc_roc,
    eer,
    error_rates,
    metrics_report,
    metrics_report_per_video,
    pr_curve,
    roc_curve,
    windows_to_frame_scores,
)


def frames(scores, labels):
    """(scores, positive) columns."""
    return np.asarray(scores, dtype=np.float64), np.asarray(labels, dtype=bool)


def random_frames(rng, n=80, p=0.4, tie_grid=None):
    labels = rng.random(n) < p
    if not labels.any():
        labels[0] = True
    if labels.all():
        labels[0] = False
    scores = rng.normal(size=n) + labels  # mildly informative
    if tie_grid:
        scores = np.round(scores * tie_grid) / tie_grid
    return frames(scores, labels)


def pairwise_auc(samples):
    """Mann-Whitney oracle: P(pos > neg) + 0.5 * P(tie)."""
    scores, positive = samples
    pos = scores[positive].tolist()
    neg = scores[~positive].tolist()
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def sweep_rates(samples, threshold):
    """Direct-count oracle for the rule: positive when score >= threshold."""
    scores, positive = samples
    pos = scores[positive].tolist()
    neg = scores[~positive].tolist()
    fp = sum(1 for s in neg if s >= threshold)
    fn = sum(1 for s in pos if s < threshold)
    return fp / len(neg), fn / len(pos)


def roc_auc(samples):
    return auc_roc(roc_curve(*samples))


class TestRocCurve:
    def test_perfect_separation(self):
        samples = frames([3, 2, 1, 0], [1, 1, 0, 0])
        points = roc_curve(*samples)
        assert (points[0, 1], points[0, 2]) == (0.0, 0.0)
        assert (points[-1, 1], points[-1, 2]) == (1.0, 1.0)
        assert auc_roc(points) == 1.0

    def test_worst_case(self):
        assert roc_auc(frames([0, 1, 2, 3], [1, 1, 0, 0])) == 0.0

    def test_all_tied_is_half(self):
        assert roc_auc(frames([5, 5, 5, 5], [1, 0, 1, 0])) == pytest.approx(0.5, abs=1e-12)

    def test_points_match_sweep_oracle(self):
        rng = np.random.default_rng(0)
        samples = random_frames(rng, tie_grid=4)
        for threshold, x, y in roc_curve(*samples)[1:]:
            fpr, fnr = sweep_rates(samples, threshold)
            assert x == pytest.approx(fpr, abs=1e-12)
            assert y == pytest.approx(1 - fnr, abs=1e-12)

    def test_auc_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        for grid in (None, 3, 10):
            for _ in range(20):
                samples = random_frames(rng, n=60, tie_grid=grid)
                assert roc_auc(samples) == pytest.approx(pairwise_auc(samples), abs=1e-10)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            roc_curve(*frames([1, 2], [1, 1]))
        with pytest.raises(DataError):
            roc_curve([], [])

    def test_non_finite_score_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DataError, match="finite"):
                roc_curve(*frames([0.5, bad, 1.0], [0, 1, 1]))

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        samples = random_frames(rng, tie_grid=5)
        order = rng.permutation(len(samples[0]))
        shuffled = (samples[0][order], samples[1][order])
        assert roc_auc(samples) == pytest.approx(roc_auc(shuffled), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        samples = random_frames(rng)
        transformed = (np.tanh(samples[0] / 4) * 7 + 1, samples[1])
        assert roc_auc(samples) == pytest.approx(roc_auc(transformed), abs=1e-12)

    def test_flip_symmetry(self):
        rng = np.random.default_rng(4)
        samples = random_frames(rng)  # no ties: AUC(-s) = 1 - AUC(s)
        flipped = (-samples[0], samples[1])
        assert roc_auc(flipped) == pytest.approx(1.0 - roc_auc(samples), abs=1e-10)


class TestPrCurve:
    def test_perfect(self):
        samples = frames([3, 2, 1, 0], [1, 1, 0, 0])
        assert auc_pr(pr_curve(*samples)) == 1.0

    def test_all_tied_equals_prevalence(self):
        samples = frames([1, 1, 1, 1, 1], [1, 0, 0, 1, 0])
        assert auc_pr(pr_curve(*samples)) == pytest.approx(0.4, abs=1e-12)

    def test_points_match_sweep_oracle(self):
        rng = np.random.default_rng(5)
        samples = random_frames(rng, tie_grid=4)
        scores, positive = samples
        n_pos = int(positive.sum())
        for threshold, x, y in pr_curve(*samples):
            tp = sum(1 for s, p in zip(scores, positive) if s >= threshold and p)
            predicted = sum(1 for s in scores if s >= threshold)
            assert x == pytest.approx(tp / n_pos, abs=1e-12)
            assert y == pytest.approx(tp / predicted, abs=1e-12)

    def test_stepwise_area_hand_example(self):
        # scores 4,3,2,1 labels 1,0,1,0:
        # recall 0.5 @ precision 1, recall 1.0 @ precision 2/3
        samples = frames([4, 3, 2, 1], [1, 0, 1, 0])
        assert auc_pr(pr_curve(*samples)) == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3), abs=1e-12)

    def test_no_positive_rejected(self):
        with pytest.raises(DataError):
            pr_curve(*frames([1, 2], [0, 0]))


class TestErrorRates:
    def test_interpolated_agrees_at_distinct_thresholds(self):
        rng = np.random.default_rng(7)
        samples = random_frames(rng, tie_grid=4)
        roc = roc_curve(*samples)
        for t in sorted(set(samples[0].tolist())):
            direct = sweep_rates(samples, t)
            interp = error_rates(roc, t)
            assert interp == pytest.approx(direct, abs=1e-12)

    def test_interpolated_endpoints(self):
        roc = roc_curve(*frames([3, 2, 1], [1, 0, 1]))
        assert error_rates(roc, 100.0) == (0.0, 1.0)
        assert error_rates(roc, -100.0) == (1.0, 0.0)


class TestEer:
    def test_perfect_separation_zero(self):
        rate, threshold = eer(roc_curve(*frames([4, 3, 1, 0], [1, 1, 0, 0])))
        assert rate == 0.0
        fpr, fnr = sweep_rates(frames([4, 3, 1, 0], [1, 1, 0, 0]), threshold)
        assert fpr == fnr == 0.0

    def test_balanced_symmetric_case(self):
        # one error each way at the crossing
        samples = frames([4, 3, 2, 1], [1, 0, 1, 0])
        rate, _ = eer(roc_curve(*samples))
        assert rate == pytest.approx(0.5, abs=1e-12)

    def test_interpolated_rates_equal_at_threshold(self):
        rng = np.random.default_rng(8)
        for grid in (None, 3, 8):
            for _ in range(30):
                samples = random_frames(rng, n=50, tie_grid=grid)
                roc = roc_curve(*samples)
                rate, threshold = eer(roc)
                fpr, fnr = error_rates(roc, threshold)
                assert abs(fpr - fnr) <= 1e-9
                assert rate == pytest.approx((fpr + fnr) / 2, abs=1e-9)

    def test_rate_in_unit_interval_and_bounded_by_half_for_good_scores(self):
        rng = np.random.default_rng(9)
        labels = rng.random(200) < 0.5
        scores = rng.normal(size=200) + 3.0 * labels
        rate, _ = eer(roc_curve(*frames(scores, labels)))
        assert 0.0 <= rate < 0.5

    def test_direct_count_gap_bounded_by_crossing_jump(self):
        # direct counting at the returned threshold can disagree with the
        # interpolated rate by at most the largest FPR/FNR step across the
        # crossing segment (a tie group cannot be split)
        rng = np.random.default_rng(10)
        for _ in range(50):
            samples = random_frames(rng, n=40, tie_grid=2)
            rate, threshold = eer(roc_curve(*samples))
            fpr, fnr = sweep_rates(samples, threshold)
            thresholds = sorted(set(samples[0].tolist()), reverse=True)
            steps = []
            prev = (0.0, 1.0)
            for t in [thresholds[0] + 1] + thresholds:
                cur = sweep_rates(samples, t)
                steps.append(abs(cur[0] - prev[0]) + abs(cur[1] - prev[1]))
                prev = cur
            assert abs(fpr - fnr) <= max(steps) + 1e-9

    def test_flip_invariance_of_rate(self):
        rng = np.random.default_rng(11)
        samples = random_frames(rng, n=61)  # continuous scores, no ties
        flipped = (-samples[0], ~samples[1])
        assert eer(roc_curve(*samples))[0] == pytest.approx(eer(roc_curve(*flipped))[0], abs=1e-9)


def make_windows(videos, starts, T=4):
    """A batch of T-frame validation windows, one per (video, start)."""
    n = len(starts)
    return WindowBatch.from_columns(
        np.zeros((n, T, 1, 2)), np.ones((n, T, 1), dtype=bool), videos, starts,
        [Split.VAL_NORMAL] * n, [("t1",)] * n,
    )


class TestWindowsToFrameScores:
    def labels(self, n, video="v1", anomalous=()):
        return Labels.from_columns([video] * n, range(n), [f in anomalous for f in range(n)])

    def test_max_rule_exhaustive_oracle(self):
        rng = np.random.default_rng(12)
        starts = list(range(0, 12, 2))
        scores = rng.normal(size=len(starts)).tolist()
        out, uncovered = windows_to_frame_scores(make_windows(["v1"] * len(starts), starts), scores, self.labels(14))
        assert not uncovered.any()
        by_frame = dict(zip(out.frame.tolist(), out.score.tolist()))
        for frame in range(14):
            covering = [sc for start, sc in zip(starts, scores) if start <= frame < start + 4]
            expected = max(covering) if covering else min(scores)
            assert by_frame[frame] == expected

    def test_uncovered_default(self):
        windows = make_windows(["v1"], [0])
        out, uncovered = windows_to_frame_scores(windows, [2.0], self.labels(6))
        assert uncovered.tolist() == [False] * 4 + [True] * 2  # frames 4 and 5
        assert out.score.tolist() == [2.0, 2.0, 2.0, 2.0, 2.0, 2.0]  # default = min observed

    def test_labels_carried_through(self):
        out, _ = windows_to_frame_scores(make_windows(["v1"], [0]), [1.0], self.labels(4, anomalous={2}))
        assert out.positive.tolist() == [False, False, True, False]

    def test_videos_kept_separate(self):
        windows = make_windows(["v1", "v2"], [0, 0])
        labels = Labels.from_columns(["v1"] * 4 + ["v2"] * 4, [0, 1, 2, 3] * 2, [False] * 8)
        out, _ = windows_to_frame_scores(windows, [5.0, 1.0], labels)
        scores = dict(zip(zip(video_names(out).tolist(), out.frame.tolist()), out.score.tolist()))
        assert scores[("v2", 0)] == 1.0 and scores[("v1", 0)] == 5.0

    def test_uncovered_default_ignores_unlabeled_positions(self):
        # the v2 window covers no labeled frame, so its lower score is no covered frame's score
        windows = make_windows(["v1", "v2"], [0, 0])
        out, uncovered = windows_to_frame_scores(windows, [5.0, 1.0], self.labels(10))
        assert uncovered.tolist() == [False] * 4 + [True] * 6  # frames 4 to 9
        assert out.score.tolist() == [5.0] * 10

    def test_uncovered_default_zero_without_covered_frames(self):
        out, uncovered = windows_to_frame_scores(make_windows(["v2"], [0]), [3.0], self.labels(3))
        assert uncovered.tolist() == [True] * 3 and out.score.tolist() == [0.0] * 3

    def test_scored_rows_only(self):
        windows = make_windows(["v1", "v1"], [0, 2])
        out, uncovered = windows_to_frame_scores(windows, [3.0], self.labels(6), rows=[1])
        assert uncovered.tolist() == [True] * 2 + [False] * 4  # frames 0 and 1
        assert out.score.tolist() == [3.0] * 6

    def test_video_ids_kept_exactly(self):
        # numpy's fixed-width str dtype would drop the trailing NUL
        out, uncovered = windows_to_frame_scores(make_windows(["v\x00"], [0]), [1.0], self.labels(4, "v\x00"))
        assert not uncovered.any()

    def test_non_finite_score_rejected(self):
        with pytest.raises(DataError):
            windows_to_frame_scores(make_windows(["v1"], [0]), [float("nan")], self.labels(4))

    def test_negative_start_rejected(self):
        with pytest.raises(DataError, match="non-negative"):
            windows_to_frame_scores(make_windows(["v1"], [-2]), [1.0], self.labels(4))


class TestReports:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(13)
        samples = random_frames(rng, n=100)
        report, roc, pr = metrics_report(*samples, uncovered_frames=3)
        assert report.auc_roc == pytest.approx(auc_roc(roc_curve(*samples)), abs=1e-12)
        assert report.auc_pr == pytest.approx(auc_pr(pr_curve(*samples)), abs=1e-12)
        assert report.eer == pytest.approx(eer(roc_curve(*samples))[0], abs=1e-12)
        assert np.array_equal(roc, roc_curve(*samples)) and np.array_equal(pr, pr_curve(*samples))
        assert report.n_pos + report.n_neg == 100
        assert report.uncovered_frames == 3
        d = report.to_dict()
        assert set(d) >= {"auc_roc", "auc_pr", "eer", "eer_threshold"}

    def test_exact_bits_on_tie_heavy_fixture(self):
        # compared with ==: a change of summation order must fail here, not
        # only in a byte diff of metrics.json
        rng = np.random.default_rng(2024)
        positive = rng.random(500) < 0.3
        scores = np.round((rng.normal(size=500) + positive) * 4) / 4
        roc, pr = roc_curve(scores, positive), pr_curve(scores, positive)
        assert auc_roc(roc) == 0.7788146167557932
        assert auc_pr(pr) == 0.6491425596116236
        assert eer(roc) == (0.2853860294117647, 0.6840533088235294)

    def test_per_video_average(self):
        rng = np.random.default_rng(14)
        a = random_frames(rng, n=40)
        b_scores, b_positive = random_frames(rng, n=40)
        b = (b_scores + rng.normal(size=40), b_positive)
        single = frames([0.5] * 5, [0] * 5)
        scores, positive = (np.concatenate(c) for c in zip(a, b, single))
        video = [0] * 40 + [1] * 40 + [2] * 5
        report, skipped = metrics_report_per_video(scores, positive, video, ("v1", "v2", "v3"))
        assert skipped == ["v3"]
        expected = (metrics_report(*a)[0].auc_roc + metrics_report(*b)[0].auc_roc) / 2
        assert report.auc_roc == pytest.approx(expected, abs=1e-12)

    def test_per_video_all_single_class(self):
        with pytest.raises(DataError, match="per-video"):
            metrics_report_per_video(*frames([0.5] * 5, [0] * 5), [0] * 5, ("v1",))

    def test_per_video_matches_the_mask_version_on_shuffled_codes(self):
        rng = np.random.default_rng(15)
        n, names = 600, ("a", "b", "c", "d", "e", "f")
        video = rng.integers(0, len(names), size=n)
        video[video == 3] = 4  # a code without samples
        positive = rng.random(n) < 0.3
        positive[video == 5] = False  # a single-class video
        scores = np.round(rng.normal(size=n) + positive, 1)  # ties inside each video
        reports, skipped = [], []
        for code in np.unique(video).tolist():
            rows = video == code
            if positive[rows].all() or not positive[rows].any():
                skipped.append(names[code])
            else:
                reports.append(metrics_report(scores[rows], positive[rows])[0])
        report, got_skipped = metrics_report_per_video(scores, positive, video, names)
        assert got_skipped == skipped == ["f"]
        assert report.auc_roc == sum(r.auc_roc for r in reports) / len(reports)
        assert report.auc_pr == sum(r.auc_pr for r in reports) / len(reports)
        assert report.eer == sum(r.eer for r in reports) / len(reports)
        assert report.eer_threshold == sum(r.eer_threshold for r in reports) / len(reports)
        assert (report.n_pos, report.n_neg) == (sum(r.n_pos for r in reports), sum(r.n_neg for r in reports))
