from fractions import Fraction

import numpy as np
import pytest

from skelstat.analysis import (
    DistanceSeries,
    delta,
    distances_to_mean,
    latent_distances,
    mean_tensor,
    sdom,
    sdom_report,
)
from skelstat.core import (
    DataError,
    EmbeddingPrior,
    FeatureType,
    MeanTensor,
    Split,
    WindowBatch,
)


def batch(coords, splits=None):
    """A batch of fully occupied windows from a (W, T, k, 2) stack; every
    window is a training window unless ``splits`` are given."""
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    return WindowBatch.from_columns(
        coords, np.ones(coords.shape[:3], dtype=bool), ["v1"] * n, range(n),
        splits or [Split.TRAIN] * n, [("t1",)] * n,
    )


def by_split(train, val_normal, val_anomalous):
    """One batch of three (W, T, k, 2) stacks, split in that order."""
    groups = (train, val_normal, val_anomalous)
    splits = [split for split, group in zip(Split, groups) for _ in range(len(group))]
    return batch(np.concatenate([np.asarray(g, dtype=np.float64) for g in groups]), splits)


def random_windows(rng, n, T=6, k=3, loc=0.0):
    return loc + rng.normal(size=(n, T, k, 2))


class TestMeanTensor:
    def test_matches_numpy_mean(self):
        rng = np.random.default_rng(0)
        windows = random_windows(rng, 37)
        mu = mean_tensor(batch(windows))
        expected = np.mean(windows, axis=0)
        assert np.allclose(mu.values, expected, atol=1e-12)
        assert mu.sample_count == 37

    def test_crosses_chunk_boundary(self):
        rng = np.random.default_rng(1)
        windows = random_windows(rng, 1030, T=2, k=1)
        mu = mean_tensor(batch(windows))
        expected = np.mean(windows, axis=0)
        assert np.allclose(mu.values, expected, atol=1e-12)

    def test_compensation_keeps_ones_beside_a_huge_window(self):
        # 1535 windows of 1.0, one of 1e16 that closes the third 512-row
        # chunk, then 1535 more of 1.0: adding rows one by one, forward or in
        # reverse, rounds most of the ones after the 1e16 away (relative error
        # ~1.5e-13); compensated chunk sums stay within about one ulp
        side = 3 * 512 - 1
        values = [1.0] * side + [1e16] + [1.0] * side
        exact = Fraction(sum(map(Fraction, values)), len(values))
        mu = mean_tensor(batch(np.multiply.outer(values, np.ones((2, 1, 2)))))
        assert all(abs(Fraction(v) - exact) <= exact / 10**15 for v in mu.values.ravel())

    def test_single_window_is_identity(self):
        rng = np.random.default_rng(2)
        windows = random_windows(rng, 1)
        assert np.array_equal(mean_tensor(batch(windows)).values, windows[0])

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="zero windows"):
            mean_tensor(batch(np.zeros((0, 6, 3, 2))))

    def test_shape_mismatch_rejected(self):
        # a batch holds one window shape: its constructor refuses a second
        rng = np.random.default_rng(3)
        a = rng.normal(size=(1, 4, 2, 2))
        with pytest.raises(DataError, match="mismatch"):
            WindowBatch.from_columns(a, np.ones((1, 4, 3), dtype=bool), ["v1"], [0], [Split.TRAIN], [("t1",)])

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        windows = random_windows(rng, 20)
        shift = np.array([3.0, -7.0])
        assert np.allclose(
            mean_tensor(batch(windows + shift)).values, mean_tensor(batch(windows)).values + shift, atol=1e-12
        )


class TestDelta:
    def test_hand_worked_example(self):
        # difference tensor has sixteen entries of 3/5 and 4/5 paired per
        # point: norm = sqrt(8 * (0.36 + 0.64)) = sqrt(8); T = 8 halves twice
        T = 8
        a = MeanTensor(np.zeros((T, 1, 2)), 1)
        b = MeanTensor(np.tile([0.6, 0.8], (T, 1, 1)), 1)
        assert delta(a, b) == pytest.approx(np.sqrt(8.0) / 8.0, abs=1e-15)

    def test_unit_offset_oracle(self):
        # constant offset c in every entry: norm = c*sqrt(2*T*k), delta = c*sqrt(2*k/T)
        rng = np.random.default_rng(5)
        for _ in range(20):
            T = int(rng.integers(2, 30))
            k = int(rng.integers(1, 20))
            c = float(rng.uniform(0.1, 9.0))
            base = rng.normal(size=(T, k, 2))
            d = delta(MeanTensor(base, 1), MeanTensor(base + c, 1))
            assert d == pytest.approx(c * np.sqrt(2.0 * k / T), rel=1e-12)

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(6)
        a = MeanTensor(rng.normal(size=(5, 2, 2)), 1)
        b = MeanTensor(rng.normal(size=(5, 2, 2)), 1)
        assert delta(a, b) == delta(b, a)
        assert delta(a, a) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            delta(MeanTensor(np.zeros((4, 1, 2)), 1), MeanTensor(np.zeros((5, 1, 2)), 1))


class TestSdom:
    @pytest.mark.parametrize(
        "delta_n,delta_a,expected",
        [
            (2.80, 3.75, 0.95),
            (0.58, 0.76, 0.18),
            (2.91, 2.76, -0.15),
            (0.30, 0.13, -0.17),
        ],
    )
    def test_published_pairs(self, delta_n, delta_a, expected):
        assert sdom(delta_a, delta_n) == pytest.approx(expected, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(DataError):
            sdom(-0.1, 0.2)

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            sdom(float("nan"), 0.2)


class TestSdomReport:
    def test_closed_form_offsets(self):
        # train at origin, val-normal offset by cn, val-anomalous by ca:
        # with zero noise delta_n = cn*sqrt(2k/T) exactly, same for ca.
        T, k = 6, 3
        base = np.zeros((T, k, 2))
        train = [base] * 4
        cn, ca = 1.5, 4.0
        vn = [base + cn] * 3
        va = [base + ca] * 3
        report = sdom_report(by_split(train, vn, va), FeatureType.ABSOLUTE_TRAJECTORY)
        scale = np.sqrt(2.0 * k / T)
        assert report.delta_n == pytest.approx(cn * scale, rel=1e-12)
        assert report.delta_a == pytest.approx(ca * scale, rel=1e-12)
        assert report.sdom == report.delta_a - report.delta_n
        assert report.counts == (4, 3, 3)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(7)
        train = random_windows(rng, 30)
        vn = random_windows(rng, 20, loc=0.5)
        va = random_windows(rng, 10, loc=2.0)
        report = sdom_report(by_split(train, vn, va))
        mu_tn = np.mean(train, axis=0)
        mu_vn = np.mean(vn, axis=0)
        mu_va = np.mean(va, axis=0)
        assert report.delta_n == pytest.approx(np.linalg.norm(mu_tn - mu_vn) / 6, rel=1e-12)
        assert report.delta_a == pytest.approx(np.linalg.norm(mu_tn - mu_va) / 6, rel=1e-12)

    def test_empty_split_rejected(self):
        rng = np.random.default_rng(8)
        train = random_windows(rng, 2)
        with pytest.raises(DataError, match="val-normal"):
            sdom_report(by_split(train, train[:0], train))

    def test_scale_covariance(self):
        # scaling all coordinates by s scales every delta and the sdom by s
        rng = np.random.default_rng(9)
        train = random_windows(rng, 10)
        vn = random_windows(rng, 10, loc=1.0)
        va = random_windows(rng, 10, loc=3.0)
        r1 = sdom_report(by_split(train, vn, va))
        s = 2.5
        r2 = sdom_report(by_split(train * s, vn * s, va * s))
        assert r2.sdom == pytest.approx(s * r1.sdom, rel=1e-12)


class TestDistancesToMean:
    def test_brute_force_oracle(self):
        rng = np.random.default_rng(10)
        windows = random_windows(rng, 600)  # crosses the chunk boundary
        mu = mean_tensor(batch(windows))
        series = distances_to_mean(batch(windows), mu, Split.TRAIN, "pose")
        for i in (0, 1, 255, 511, 512, 599):
            expected = np.linalg.norm(windows[i] - mu.values)
            assert series.values[i] == pytest.approx(expected, rel=1e-12)
        assert len(series) == 600
        assert series.tag == "pose"

    def test_unscaled_vs_delta_scaling(self):
        # a single offset window: distance is T times the (scaled) delta
        T = 6
        base = np.zeros((T, 1, 2))
        mu = MeanTensor(base, 1)
        w = base + 1.0
        series = distances_to_mean(batch([w]), mu)
        d = delta(mu, MeanTensor(w, 1))
        assert series.values[0] == pytest.approx(T * d, rel=1e-12)

    def test_shape_mismatch(self):
        mu = MeanTensor(np.zeros((4, 1, 2)), 1)
        with pytest.raises(DataError):
            distances_to_mean(batch(np.zeros((1, 5, 1, 2))), mu)

    def test_empty_sequence(self):
        mu = MeanTensor(np.zeros((4, 1, 2)), 1)
        assert len(distances_to_mean(batch(np.zeros((0, 4, 1, 2))), mu)) == 0


class TestLatentDistances:
    def test_grouped_by_split_with_oracle(self):
        rng = np.random.default_rng(11)
        prior = EmbeddingPrior(rng.normal(size=4))
        vectors = rng.normal(size=(4, 4))
        splits = np.array([s.value for s in (Split.TRAIN, Split.TRAIN, Split.VAL_NORMAL, Split.VAL_ANOMALOUS)])
        out = latent_distances(vectors, splits, prior)
        assert set(out) == {Split.TRAIN, Split.VAL_NORMAL, Split.VAL_ANOMALOUS}
        assert len(out[Split.TRAIN]) == 2
        for split, series in out.items():
            expected = [
                np.linalg.norm(vector - prior.mu_normal)
                for vector, s in zip(vectors, splits)
                if s == split.value
            ]
            assert np.allclose(series.values, expected, atol=1e-12)

    def test_zero_vector_at_prior(self):
        prior = EmbeddingPrior(np.array([1.0, 2.0]))
        out = latent_distances(np.array([[1.0, 2.0]]), np.array(["train"]), prior)
        assert out[Split.TRAIN].values[0] == 0.0

    def test_dimension_mismatch(self):
        prior = EmbeddingPrior(np.zeros(3))
        with pytest.raises(DataError, match="dimension"):
            latent_distances(np.zeros((1, 4)), np.array(["train"]), prior)


class TestDistanceSeries:
    def test_rejects_negative(self):
        with pytest.raises(DataError):
            DistanceSeries(np.array([-1.0]), Split.TRAIN, "x")

    def test_immutable(self):
        s = DistanceSeries(np.array([1.0, 2.0]), Split.TRAIN, "x")
        with pytest.raises(ValueError):
            s.values[0] = 5.0
