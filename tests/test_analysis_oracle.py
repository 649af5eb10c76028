"""``mean_tensor``, ``sdom_report`` and ``distances_to_mean`` against the
naive analysis in ``oracle.py``.

The windows come from ``build_windows`` on the hypothesis bundles of
``test_window_oracle.py`` (which checks them against the window oracle);
the oracle reads them as plain ``Window`` tuples and sums one coordinate
at a time. The program sums a split's rows in chunks with Kahan
compensation and takes norms with BLAS dot products, so the summation
order differs and the comparison cannot be bit for bit: every number must
agree within a relative tolerance of 1e-12, and every refusal must have
the oracle's error text. ``difficulty_report``, which picks the mean the
distances are measured to, must give the quartiles of the oracle's
distances to the training mean.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import distances_to_train_mean, sdom, split_mean
from skelstat.analysis import DistanceSeries, distances_to_mean, mean_tensor, sdom_report
from skelstat.core import DataError, Split, WindowingConfig
from skelstat.features import CenterPolicy, build_windows
from skelstat.ingest import DatasetBundle, parse_labels, parse_manifest, parse_tracklets
from skelstat.stats import box_stats, difficulty_report
from test_window_oracle import FEATURES, datasets, outcome, records

REL_TOL = 1e-12


def close(got, want) -> bool:
    """Nested numbers equal within ``REL_TOL``; error texts equal exactly."""
    if isinstance(got, float) or isinstance(want, float):
        return isinstance(got, float) and isinstance(want, float) and math.isclose(got, want, rel_tol=REL_TOL)
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return len(got) == len(want) and all(close(a, b) for a, b in zip(got, want))


def sdom_values(windows, feature):
    report = sdom_report(windows, feature)
    return [report.delta_n, report.delta_a, report.sdom]


def quartiles(box: dict):
    # the fences are left out: they compare values with limits, which a last-bit difference may flip
    return [box["q1"], box["median"], box["q3"]]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(datasets(), st.booleans())
def test_analysis_matches_oracle(case, center):
    k, T, stride, N, truncate, tracklets, labels, manifest = case
    cfg = WindowingConfig(T=T, stride=stride, k=k, N=N)
    bundle = DatasetBundle(parse_tracklets(tracklets, k), parse_labels(labels), parse_manifest(manifest), cfg)
    policy = CenterPolicy.FIRST_POSE_TO_FRAME_CENTER if center else CenterPolicy.NONE
    for feature in FEATURES:
        try:
            windows = build_windows(bundle, feature, policy, truncate)
        except DataError:
            continue  # refusals are the window oracle's to check
        plain = records(windows)
        for split in Split:
            got = outcome(lambda: mean_tensor(windows, split).values.tolist())
            assert close(got, outcome(lambda: split_mean(plain, split.value))), (feature, split)
            got = outcome(lambda: distances_to_mean(windows, mean_tensor(windows, Split.TRAIN), split).values.tolist())
            assert close(got, outcome(lambda: distances_to_train_mean(plain, split.value))), (feature, split)
        got = outcome(lambda: sdom_values(windows, feature))
        assert close(got, outcome(lambda: list(sdom(plain)))), feature

        entry = difficulty_report(bundle, (feature,), policy, truncate_social=truncate)["features"][feature.value]
        for split, box in entry.get("box_stats", {}).items():
            want = box_stats(DistanceSeries(distances_to_train_mean(plain, split), None)).to_dict()
            assert close(quartiles(box), quartiles(want)), (feature, split)
