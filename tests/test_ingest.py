import re
import tracemalloc

import numpy as np
import pytest

from oracle import embedding_text, frame_scores
from skelstat.core import SPLITS, DataError, Detections, Labels, ParseError, Split, WindowingConfig, video_names
from skelstat.ingest import (
    DatasetBundle,
    ScorePolarity,
    VideoMeta,
    parse_embeddings,
    parse_labels,
    parse_manifest,
    parse_scores,
    parse_tracklets,
    serialize_labels,
    serialize_manifest,
    serialize_scores,
    serialize_tracklets,
    validate_bundle,
)
from skelstat.metrics import auc_roc, metrics_report_per_video, roc_curve


def kp_text(k, base=0.0):
    return ";".join(f"{base + i},{base + 2 * i},0.9" for i in range(k))


def assert_same_rows(a, b):
    """Equal Detections tables."""
    assert (a.video_ids, a.track_ids) == (b.video_ids, b.track_ids)
    for name in ("video", "track", "frame", "kp"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def assert_same_labels(a, b):
    for name in ("video", "frame", "positive"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestParseTracklets:
    def test_single_line(self):
        det = parse_tracklets(f"v1\t0\tt1\t{kp_text(17)}\n", k=17)
        assert len(det.tracklet_bounds()[0]) == 1
        assert len(det.frame) == 1
        assert det.kp[0, 1, 0] == 1.0

    def test_out_of_order_frames_sorted(self):
        text = f"v1\t5\tt1\t{kp_text(17)}\nv1\t3\tt1\t{kp_text(17)}\n"
        det = parse_tracklets(text, k=17)
        assert len(det.tracklet_bounds()[0]) == 1
        assert det.frame.tolist() == [3, 5]

    def test_keypoint_count_mismatch_names_line(self):
        text = f"v1\t0\tt1\t{kp_text(17)}\nv1\t1\tt1\t{kp_text(16)}\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_tracklets(text, k=17)

    def test_duplicate_detection(self):
        text = f"v1\t0\tt1\t{kp_text(17)}\nv1\t0\tt1\t{kp_text(17)}\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_tracklets(text, k=17)

    def test_non_finite_coordinate(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_tracklets("v1\t0\tt1\tnan,0,0.9;" + kp_text(16), k=17)

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_tracklets("not a tracklet line\n", k=17)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        lines = []
        for track in ("a", "b"):
            for frame in range(4):
                kps = ";".join(
                    f"{rng.normal()!r},{rng.normal()!r},{rng.random()!r}" for _ in range(5)
                )
                lines.append(f"v1\t{frame}\t{track}\t{kps}")
        text = "\n".join(lines) + "\n"
        det = parse_tracklets(text, k=5)
        assert serialize_tracklets(det) == text
        assert_same_rows(parse_tracklets(serialize_tracklets(det), k=5), det)

    def test_order_insensitive(self):
        text = f"v1\t0\tt1\t{kp_text(4)}\nv1\t1\tt1\t{kp_text(4, 9)}\nv2\t0\tt1\t{kp_text(4)}\n"
        shuffled = "\n".join(reversed(text.strip().split("\n"))) + "\n"
        assert_same_rows(parse_tracklets(text, k=4), parse_tracklets(shuffled, k=4))

    def test_parse_peak_is_bounded_by_the_table(self):
        # 6000 rows of 17 joints: a 2.6 MB table from 5.7 MB of text. Block by block
        # the parse peaked at 6.2 MB above the text; the whole-text line list took 24 MB.
        rng = np.random.default_rng(5)
        n, k = 6000, 17
        kp = np.concatenate([rng.uniform(0, 1000, (n, k, 2)), rng.uniform(0, 1, (n, k, 1))], axis=2)
        table = Detections.from_columns([f"v{i % 4}" for i in range(n)], [f"t{i % 5}" for i in range(n)],
                                        np.arange(n) // 20, kp)
        text = serialize_tracklets(table)
        tracemalloc.start()
        try:
            parsed = parse_tracklets(text, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_rows(parsed, table)
        assert peak < 3 * sum(column.nbytes for column in (table.video, table.track, table.frame, table.kp))

    def test_serialize_peak_is_bounded_by_the_text(self):
        # the same 6000 x 17 table gives 5.7 MB of text. Formatted one slice of cells at
        # a time the serializer peaked at 2.09x the text; all cells at once took 3.37x.
        rng = np.random.default_rng(5)
        n, k = 6000, 17
        kp = np.concatenate([rng.uniform(0, 1000, (n, k, 2)), rng.uniform(0, 1, (n, k, 1))], axis=2)
        table = Detections.from_columns([f"v{i % 4}" for i in range(n)], [f"t{i % 5}" for i in range(n)],
                                        np.arange(n) // 20, kp)
        tracemalloc.start()
        try:
            text = serialize_tracklets(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("\n") == n and peak < 2.5 * len(text)


class TestParseLabels:
    def test_basic(self):
        labels = parse_labels("v1,0,0\n")
        assert labels.positive.tolist() == [False] and labels.frame.tolist() == [0]

    def test_duplicate(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_labels("v1,0,0\nv1,0,1\n")

    def test_bad_value(self):
        with pytest.raises(ParseError, match="0 or 1"):
            parse_labels("v1,0,2\n")

    def test_anomalous_count_matches_fixture(self):
        rows = [f"v1,{i},{1 if i in (2, 5, 7) else 0}" for i in range(10)]
        labels = parse_labels("\n".join(rows))
        assert np.count_nonzero(labels.positive) == 3

    def test_round_trip_and_order_insensitivity(self):
        text = "v1,0,0\nv1,1,1\nv2,3,0\n"
        labels = parse_labels(text)
        assert serialize_labels(labels) == text
        assert_same_labels(parse_labels("v2,3,0\nv1,1,1\nv1,0,0\n"), labels)


class TestParseEmbeddings:
    def test_basic(self):
        vectors, splits, sources, prior = parse_embeddings("dim=4 mu=0,0,0,0\ntrain\t1,0,0,0\n")
        assert vectors.shape == (1, 4)
        assert prior.mu_normal.size == 4
        assert splits.tolist() == [SPLITS.index(Split.TRAIN)]
        assert sources == [None]

    def test_dimension_mismatch(self):
        with pytest.raises(ParseError, match="3 values"):
            parse_embeddings("dim=4 mu=0,0,0,0\ntrain\t1,0,0\n")

    def test_missing_prior(self):
        with pytest.raises(ParseError, match="header"):
            parse_embeddings("train\t1,0,0\n")

    def test_generated_fixture_counts(self):
        rng = np.random.default_rng(3)
        splits = [Split.TRAIN] * 50 + [Split.VAL_NORMAL] * 30 + [Split.VAL_ANOMALOUS] * 20
        lines = ["dim=3 mu=0.5,-0.5,1.0"]
        for split in splits:
            lines.append(f"{split.value}\t" + ",".join(repr(float(v)) for v in rng.normal(size=3)))
        vectors, splits, sources, prior = parse_embeddings("\n".join(lines))
        assert len(vectors) == 100
        for split, expected in ((Split.TRAIN, 50), (Split.VAL_NORMAL, 30), (Split.VAL_ANOMALOUS, 20)):
            assert sum(1 for s in splits if SPLITS[s] is split) == expected
        round_trip = embedding_text(vectors, [SPLITS[s].value for s in splits], sources, prior.mu_normal)
        again = parse_embeddings(round_trip)
        assert np.array_equal(again[0], vectors)
        assert np.array_equal(again[1], splits)
        assert again[2] == sources


class TestParseScores:
    labels = Labels.from_columns(["v1", "v1"], [0, 1], [False, True])

    def test_normality_negated(self):
        (score,) = parse_scores("v1,0,0.9\n", ScorePolarity.NORMALITY, self.labels).score
        assert score == -0.9

    def test_anomaly_kept(self):
        (score,) = parse_scores("v1,0,0.9\n", ScorePolarity.ANOMALY, self.labels).score
        assert score == 0.9

    def test_columns_sorted_by_video_and_frame(self):
        labels = Labels.from_columns(["v2", "v1", "v1"], [0, 3, 1], [False, True, False])
        frames = parse_scores("v2,0,0.1\nv1,3,0.3\nv1,1,0.2\n", ScorePolarity.ANOMALY, labels)
        assert video_names(frames).tolist() == ["v1", "v1", "v2"]
        assert frames.frame.tolist() == [1, 3, 0]
        assert frames.score.tolist() == [0.2, 0.3, 0.1]
        assert frames.positive.tolist() == [False, True, False]

    def test_video_ids_kept_exactly(self):
        labels = Labels.from_columns(["v", "v", "v\x00", "v\x00"], [0, 1, 0, 1], [False, True] * 2)
        text = "v,0,0.1\nv,1,0.9\nv\x00,0,0.95\nv\x00,1,0.05\n"
        frames = parse_scores(text, ScorePolarity.ANOMALY, labels)
        assert video_names(frames).tolist() == ["v", "v", "v\x00", "v\x00"]
        report, skipped = metrics_report_per_video(frames.score, frames.positive, frames.video, frames.video_ids)
        assert (report.auc_roc, skipped) == (0.5, [])  # per video 1.0 and 0.0; pooled 0.25

    def test_unlabeled_frame(self):
        with pytest.raises(ParseError, match="unlabeled"):
            parse_scores("v1,7,0.9\n", ScorePolarity.ANOMALY, self.labels)

    def test_non_finite(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_scores("v1,0,inf\n", ScorePolarity.ANOMALY, self.labels)

    def test_auc_invariant_under_polarity(self):
        rng = np.random.default_rng(11)
        labels = Labels.from_columns(["v1"] * 60, range(60), [rng.random() < 0.4 for _ in range(60)])
        anomaly_rows = [("v1", i, float(rng.normal())) for i in range(60)]
        normality_rows = [(v, f, -s) for v, f, s in anomaly_rows]
        as_anomaly = parse_scores(serialize_scores(frame_scores(anomaly_rows)), ScorePolarity.ANOMALY, labels)
        as_normality = parse_scores(serialize_scores(frame_scores(normality_rows)), ScorePolarity.NORMALITY, labels)
        assert auc_roc(roc_curve(as_anomaly.score, as_anomaly.positive)) == pytest.approx(
            auc_roc(roc_curve(as_normality.score, as_normality.positive)), abs=1e-12
        )


class TestManifest:
    def test_round_trip(self):
        videos = {"v1": VideoMeta("train", 856, 480), "v2": VideoMeta("val", 1280, 720)}
        assert parse_manifest(serialize_manifest(videos)) == videos

    def test_bad_split(self):
        with pytest.raises(DataError):
            parse_manifest('{"v1": {"split": "test", "width": 10, "height": 10}}')

    @pytest.mark.parametrize("size", ["NaN", "Infinity", "0", "-5"])
    def test_non_finite_or_non_positive_size(self, size):
        with pytest.raises(DataError, match="finite and positive"):
            parse_manifest(f'{{"v1": {{"split": "val", "width": {size}, "height": 10}}}}')
        with pytest.raises(DataError, match="finite and positive"):
            parse_manifest(f'{{"v1": {{"split": "val", "width": 10, "height": {size}}}}}')


class TestValidateBundle:
    def make_bundle(self, tracklet_text="", label_text="", split="val"):
        cfg = WindowingConfig(T=4, stride=2, k=2, hip_indices=(0, 1))
        return DatasetBundle(
            detections=parse_tracklets(tracklet_text, k=2),
            labels=parse_labels(label_text),
            videos={"v1": VideoMeta(split, 100, 100)},
            config=cfg,
        )

    def test_anomalous_train_label_fatal(self):
        report = validate_bundle(self.make_bundle(label_text="v1,0,1\n", split="train"))
        assert not report.ok
        assert "train" in report.fatal_errors[0]

    def test_empty_bundle_valid(self):
        report = validate_bundle(self.make_bundle())
        assert report.ok
        assert report.videos[0].n_detections == 0

    def test_per_video_counts(self):
        lines = [f"v1\t{f}\tt1\t{kp_text(2)}" for f in range(6)]
        report = validate_bundle(self.make_bundle("\n".join(lines), "v1,0,0\n"))
        video = report.videos[0]
        assert video.n_detections == 6
        assert video.frame_range == (0, 5)
        assert video.window_eligible_frames == 6  # one run of 6 >= T=4

    def test_eligible_frames_count_runs_of_each_tracklet(self):
        frames = {"t1": [0, 1, 2, 3, 5, 6, 7], "t2": [2, 3, 4, 5, 6, 9, 10, 11, 12]}
        lines = [f"v1\t{f}\t{t}\t{kp_text(2)}" for t, fs in frames.items() for f in fs]
        video = validate_bundle(self.make_bundle("\n".join(lines), "v1,0,0\nv1,3,0\n")).videos[0]
        assert (video.n_tracklets, video.n_detections, video.frame_range) == (2, 16, (0, 12))
        assert video.window_eligible_frames == 4 + 5 + 4
        assert (video.n_labeled, video.label_gaps) == (2, 2)

    def test_bundle_codes_every_table_into_the_manifest_ids(self):
        videos = {v: VideoMeta("val", 100, 100) for v in ("a", "v", "v\x00", "z")}
        bundle = DatasetBundle(
            detections=parse_tracklets(f"v\x00\t0\tt1\t{kp_text(2)}\nz\t0\tt1\t{kp_text(2)}", k=2),
            labels=Labels.from_columns(["v", "v\x00"], [0, 0], [False, True]),
            videos=videos,
            config=WindowingConfig(k=2, hip_indices=(0, 1)),
        )
        assert bundle.detections.video_ids == bundle.labels.video_ids == ("a", "v", "v\x00", "z")
        assert (bundle.detections.video.tolist(), bundle.labels.video.tolist()) == ([2, 3], [1, 2])
        assert video_names(bundle.labels).tolist() == ["v", "v\x00"]

    def test_unknown_video_rejected_at_assembly(self):
        for tracklet_video, label_videos, error in (
            ("vX", [], "tracklet video 'vX' missing from manifest"),
            ("v1", ["v1\x00"], "label video 'v1\\x00' missing from manifest"),
        ):
            with pytest.raises(DataError, match=f"^{re.escape(error)}$"):
                DatasetBundle(
                    detections=parse_tracklets(f"{tracklet_video}\t0\tt1\t{kp_text(2)}", k=2),
                    labels=Labels.from_columns(label_videos, [0] * len(label_videos), [False] * len(label_videos)),
                    videos={"v1": VideoMeta("val", 100, 100)},
                    config=WindowingConfig(k=2, hip_indices=(0, 1)),
                )
