"""``build_windows`` against the naive oracle in ``oracle.py``.

Hypothesis draws the structure of small datasets: gaps inside tracks,
track ids that start and end inside a video (id churn), dropped
detections, k in {2, 4, 17}, small T and stride, more tracks in a window
than social slots, label files with and without gaps, and a frame base of
0 or 10^5 per video that shifts its tracklet and label frames. numpy draws the
coordinates from a drawn seed. Each feature must give the oracle's
windows, bit for bit and in the same order, or raise the oracle's error
text; the windows export must be the text ``oracle.export_text`` writes
for the oracle's windows. The ``validate`` report of the same datasets
must be the oracle's.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import OracleError, Window, export_text, read_dataset, social_windows, track_windows, validation
from skelstat.core import SPLITS, DataError, FeatureType, WindowingConfig
from skelstat.features import CenterPolicy, build_windows, serialize_windows
from skelstat.ingest import DatasetBundle, parse_labels, parse_manifest, parse_tracklets, validate_bundle

SPAN = 24  # frames base..base+SPAN-1 hold the detections
BASES = [0, 10**5]  # a video's first frame: the oracle does not depend on it
VIDEO_IDS = ["a", "b", "v\x00", "v1"]
TRACK_IDS = ["p", "q", "r", "s", "t\x00", "t1"]


@st.composite
def datasets(draw):
    """(k, T, stride, N, truncate, tracklets text, labels text, manifest text)."""
    k = draw(st.sampled_from([2, 4, 17]))
    T, stride, N = draw(st.integers(2, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    manifest, tracklets, labels = {}, [], []
    for video in draw(st.lists(st.sampled_from(VIDEO_IDS), min_size=1, max_size=3, unique=True)):
        split = draw(st.sampled_from(["train", "val"]))
        width, height = draw(st.sampled_from([(100.0, 50.0), (856.0, 480.0)]))
        manifest[video] = {"split": split, "width": width, "height": height}
        base = draw(st.sampled_from(BASES))
        for track in draw(st.lists(st.sampled_from(TRACK_IDS), max_size=5, unique=True)):
            first = draw(st.integers(0, SPAN - 1))
            last = draw(st.integers(first, SPAN - 1))
            dropped = draw(st.sets(st.integers(first, last), max_size=2))
            for frame in [f for f in range(first, last + 1) if f not in dropped]:
                joints = rng.uniform(-1000.0, 1000.0, size=(k, 2)).tolist()
                kp = ";".join(f"{x!r},{y!r},0.5" for x, y in joints)
                tracklets.append(f"{video}\t{base + frame}\t{track}\t{kp}")
        if split == "val" or draw(st.booleans()):
            gaps = draw(st.sets(st.integers(0, SPAN - 1), max_size=2)) if draw(st.integers(0, 2)) == 0 else set()
            anomalous = rng.random(SPAN) < 0.2
            labels += [f"{video},{base + f},{int(anomalous[f])}" for f in range(SPAN) if f not in gaps]
    texts = ("\n".join(tracklets) + "\n", "\n".join(labels) + "\n", json.dumps(manifest))
    return (k, T, stride, N, draw(st.booleans()), *texts)


def records(windows):
    """The program's windows as oracle ``Window`` tuples."""
    rows = zip(
        windows.video.tolist(), windows.track.tolist(), windows.start.tolist(), windows.split.tolist(),
        windows.coords.tolist(), windows.mask.tolist(),
    )
    return [
        Window(
            windows.video_ids[video], tuple(windows.track_ids[c] for c in track if c >= 0), start,
            SPLITS[split].value, [[tuple(p) for p in row] for row in coords], mask,
        )
        for video, track, start, split, coords, mask in rows
    ]


def outcome(build):
    """The windows a builder returns, or ("error", text) for what it refuses."""
    try:
        return build()
    except (DataError, OracleError) as exc:
        return ("error", str(exc))


FEATURES = [FeatureType.POSE, FeatureType.ABSOLUTE_TRAJECTORY, FeatureType.SOCIAL_TRAJECTORY]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(datasets(), st.booleans())
def test_build_windows_matches_oracle(case, center):
    k, T, stride, N, truncate, tracklets, labels, manifest = case
    data = read_dataset(tracklets, labels, manifest, k)
    cfg = WindowingConfig(T=T, stride=stride, k=k, N=N)
    bundle = DatasetBundle(parse_tracklets(tracklets, k), parse_labels(labels), parse_manifest(manifest), cfg)
    policy = CenterPolicy.FIRST_POSE_TO_FRAME_CENTER if center else CenterPolicy.NONE
    expected = {
        FeatureType.POSE: lambda: track_windows(data, "pose", T, stride, cfg.hip_indices, center),
        FeatureType.ABSOLUTE_TRAJECTORY: lambda: track_windows(data, "traj", T, stride, cfg.hip_indices, center),
        FeatureType.SOCIAL_TRAJECTORY: lambda: social_windows(data, T, stride, N, cfg.hip_indices, truncate),
    }
    for feature in FEATURES:
        windows = outcome(lambda: build_windows(bundle, feature, policy, truncate))
        want = outcome(expected[feature])
        got = windows if isinstance(windows, tuple) else records(windows)
        assert got == want, feature
        if not isinstance(windows, tuple):
            assert serialize_windows(windows) == export_text(want)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(datasets())
def test_validate_bundle_matches_oracle(case):
    k, T, _, _, _, tracklets, labels, manifest = case
    cfg = WindowingConfig(T=T, k=k)
    bundle = DatasetBundle(parse_tracklets(tracklets, k), parse_labels(labels), parse_manifest(manifest), cfg)
    # compared as validation.json text: the report's frame ranges are tuples, the oracle's lists
    got = json.dumps(validate_bundle(bundle).to_dict(), sort_keys=True)
    assert got == json.dumps(validation(read_dataset(tracklets, labels, manifest, k), T), sort_keys=True)
