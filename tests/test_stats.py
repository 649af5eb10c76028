import jsonschema
import numpy as np
import pytest

from skelstat.analysis import DistanceSeries
from skelstat.core import DataError, FeatureType, Split
from skelstat.stats import (
    AUTO,
    REPORT_SCHEMA,
    FixedCount,
    FixedWidth,
    box_stats,
    difficulty_report,
    histogram,
    parse_binning,
)
from skelstat.synth import SynthSpec, TrajectoryShift, generate


def series(values, split=Split.TRAIN):
    return DistanceSeries(np.asarray(values, dtype=float), split, "test")


class TestParseBinning:
    def test_variants(self):
        assert parse_binning("auto") == AUTO
        assert parse_binning("count:25") == FixedCount(25)
        assert parse_binning("width:0.5") == FixedWidth(0.5)

    @pytest.mark.parametrize(
        "text", ["", "count:", "count:x", "width:", "bins:3", "auto:5", "width:nan", "width:inf", "width:-inf"]
    )
    def test_invalid(self, text):
        with pytest.raises(DataError):
            parse_binning(text)


class TestHistogram:
    def test_identical_values(self):
        h = histogram(series([1.0, 1.0, 1.0]), FixedCount(4))
        assert h.counts.sum() == 3
        assert h.bin_edges[0] < 1.0 < h.bin_edges[-1]

    def test_uniform_ints_fixed_count(self):
        h = histogram(series(np.arange(100.0)), FixedCount(10))
        assert h.counts.tolist() == [10] * 10
        assert h.bin_edges[0] == 0.0 and h.bin_edges[-1] == 99.0

    def test_mass_conserved(self):
        rng = np.random.default_rng(0)
        for binning in (AUTO, FixedCount(7), FixedWidth(0.3)):
            values = rng.gamma(2.0, size=500)
            h = histogram(series(values), binning)
            assert h.counts.sum() == 500

    def test_recount_oracle(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=300) ** 2
        h = histogram(series(values), FixedCount(13))
        for i in range(h.counts.size):
            left, right = h.bin_edges[i], h.bin_edges[i + 1]
            if i == h.counts.size - 1:
                expected = np.sum((values >= left) & (values <= right))
            else:
                expected = np.sum((values >= left) & (values < right))
            assert h.counts[i] == expected

    def test_fixed_width_edges(self):
        h = histogram(series([0.0, 0.9, 2.1]), FixedWidth(1.0))
        assert np.allclose(h.bin_edges, [0.0, 1.0, 2.0, 3.0])
        assert h.counts.tolist() == [2, 0, 1]

    def test_fixed_width_keeps_the_largest_value(self):
        # (hi - lo) / width rounds to exactly 55, and lo + 55 * width is one ulp below hi
        values = [54.23138678015194, 100.0, 204.66348120829545]
        h = histogram(series(values), FixedWidth(2.735128989602609))
        assert h.counts.sum() == 3
        assert h.bin_edges.size == 57 and h.bin_edges[-2] < values[-1] <= h.bin_edges[-1]

    def test_auto_zero_iqr_falls_back(self):
        values = [5.0] * 98 + [1.0, 9.0]  # IQR is 0
        h = histogram(series(values), AUTO)
        assert h.counts.size == 10
        assert h.counts.sum() == 100

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            histogram(series([]))


class TestBoxStats:
    def test_constant_series(self):
        b = box_stats(series([5.0, 5.0, 5.0, 5.0]))
        assert (b.lower_fence, b.q1, b.median, b.q3, b.upper_fence) == (5, 5, 5, 5, 5)

    def test_1_to_100(self):
        b = box_stats(series(np.arange(1.0, 101.0)))
        assert b.median == pytest.approx(50.5)
        assert b.q1 == pytest.approx(25.75)
        assert b.q3 == pytest.approx(75.25)
        # fences clamp to the data range (no outliers)
        assert b.lower_fence == 1.0 and b.upper_fence == 100.0

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            values = rng.gamma(1.5, size=int(rng.integers(5, 200)))
            b = box_stats(series(values))
            q1, med, q3 = np.quantile(values, [0.25, 0.5, 0.75])
            assert (b.q1, b.median, b.q3) == pytest.approx((q1, med, q3), rel=1e-12)
            iqr = q3 - q1
            inside = values[(values >= q1 - 1.5 * iqr) & (values <= q3 + 1.5 * iqr)]
            assert b.lower_fence == pytest.approx(min(inside.min(), q1), rel=1e-12)
            assert b.upper_fence == pytest.approx(max(inside.max(), q3), rel=1e-12)

    def test_outliers_excluded_from_whiskers(self):
        values = list(np.linspace(1, 2, 50)) + [100.0]
        b = box_stats(series(values))
        assert b.upper_fence < 3.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            box_stats(series([]))


class TestDifficultyReport:
    def bundle(self, **kw):
        params = dict(
            n_train_videos=2,
            n_val_videos=2,
            frames_per_video=80,
            persons_per_video=2,
            k=4,
            anomaly_modes=(TrajectoryShift(120.0),),
            anomaly_fraction=0.3,
            seed=9,
        )
        params.update(kw)
        return generate(SynthSpec(**params))

    def test_schema_valid_and_complete(self):
        report = difficulty_report(self.bundle())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert set(report["features"]) == {"pose", "traj", "social"}
        for entry in report["features"].values():
            assert set(entry["counts"]) == {"train", "val_normal", "val_anomalous"}
            assert set(entry["box_stats"]) == {"train", "val_normal", "val_anomalous"}
        assert sorted(report["ranking"]) == sorted(report["features"])

    def test_ranking_sorted_by_sdom(self):
        report = difficulty_report(self.bundle())
        sdoms = [report["features"][name]["sdom"]["sdom"] for name in report["ranking"]]
        assert sdoms == sorted(sdoms, reverse=True)

    def test_degenerate_split_warns_instead_of_failing(self):
        bundle = self.bundle(anomaly_fraction=0.0, anomaly_modes=())
        report = difficulty_report(bundle, feature_types=[FeatureType.POSE])
        jsonschema.validate(report, REPORT_SCHEMA)
        entry = report["features"]["pose"]
        assert entry["counts"]["val_anomalous"] == 0
        assert "sdom" not in entry
        assert any("empty" in w for w in report["warnings"])
        assert report["ranking"] == []

    def test_json_serializable(self):
        import json

        text = json.dumps(difficulty_report(self.bundle()), sort_keys=True)
        assert '"ranking"' in text
