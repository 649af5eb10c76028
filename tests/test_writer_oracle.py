"""Each dataset writer's exact text against a per-line formatter of ``oracle.py``.

The writers format one slice of rows at a time; the oracle writes one
line at a time with f-strings and ``repr``. Every case runs with slices of
1 cell, of 7 cells and of the default ``_FORMAT_CELLS``, so rows fall on,
before and across slice boundaries. Cells include -0.0, the smallest
subnormal 5e-324 and 1e16 (whose ``repr`` has an exponent), NUL-suffixed
ids, ids holding "%" and ``np.float64`` scores. An empty table gives "".
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import Window, export_text, frame_scores, label_text, score_text, tracklet_text
from skelstat import ingest
from skelstat.core import SPLITS, Detections, Labels, Split, WindowBatch, video_names
from skelstat.features import serialize_windows
from skelstat.ingest import format_rows, serialize_labels, serialize_scores, serialize_tracklets

SLICE_CELLS = pytest.mark.parametrize("cells", [1, 7, ingest._FORMAT_CELLS])

EDGE = (-0.0, 0.0, 5e-324, 1e16, -1e16, 0.1)
VALUES = st.sampled_from(EDGE) | st.floats(allow_nan=False, allow_infinity=False)
CONFIDENCES = st.sampled_from((0.0, 5e-324, 0.25, 1.0)) | st.floats(0.0, 1.0)
IDS = st.sampled_from(["v", "v\x00", "a1", "%s", "100%"])
SETTINGS = settings(max_examples=100, derandomize=True, deadline=None)


@st.composite
def detection_tables(draw):
    k = draw(st.integers(1, 3))
    keys = draw(st.lists(st.tuples(IDS, IDS, st.integers(0, 10**12)), unique=True, max_size=8))
    kp = [[[draw(VALUES), draw(VALUES), draw(CONFIDENCES)] for _ in range(k)] for _ in keys]
    video, track, frame = ([key[i] for key in keys] for i in range(3))
    return Detections.from_columns(video, track, frame, np.reshape(kp, (len(keys), k, 3)))


@st.composite
def window_batches(draw):
    """(batch, the oracle's windows): up to 6 windows of T x k points, masked
    points at (0, 0), each with up to 3 distinct track ids."""
    T, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    windows = []
    for _ in range(draw(st.integers(0, 6))):
        mask = [[draw(st.booleans()) for _ in range(k)] for _ in range(T)]
        coords = [[(draw(VALUES), draw(VALUES)) if m else (0.0, 0.0) for m in row] for row in mask]
        tracks = tuple(draw(st.lists(IDS, unique=True, max_size=3)))
        windows.append(Window(draw(IDS), tracks, draw(st.integers(0, 10**12)),
                              draw(st.sampled_from(SPLITS)).value, coords, mask))
    batch = WindowBatch.from_columns(
        np.reshape([w.coords for w in windows], (len(windows), T, k, 2)),
        np.reshape([w.mask for w in windows], (len(windows), T, k)).astype(bool),
        [w.video for w in windows], [w.start for w in windows],
        [Split(w.split) for w in windows], [w.track_ids for w in windows],
    )
    # the batch's rows are in the given order; its ids are codes into sorted tables
    return batch, windows


@SLICE_CELLS
@SETTINGS
@given(d=detection_tables())
def test_tracklets_match_the_line_writer(cells, d):
    rows = zip(
        [d.video_ids[v] for v in d.video.tolist()], d.frame.tolist(),
        [d.track_ids[t] for t in d.track.tolist()], d.kp.reshape(len(d.frame), 3 * d.kp.shape[1]).tolist(),
    )
    with mock.patch.object(ingest, "_FORMAT_CELLS", cells):
        assert serialize_tracklets(d) == tracklet_text(rows)


@SLICE_CELLS
@SETTINGS
@given(rows=st.lists(st.tuples(IDS, st.integers(0, 10**12), st.booleans()), unique_by=lambda r: r[:2], max_size=10))
def test_labels_match_the_line_writer(cells, rows):
    labels = Labels.from_columns([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])
    expected = label_text(zip(video_names(labels).tolist(), labels.frame.tolist(), labels.positive.tolist()))
    with mock.patch.object(ingest, "_FORMAT_CELLS", cells):
        assert serialize_labels(labels) == expected


@SLICE_CELLS
@SETTINGS
@given(rows=st.lists(st.tuples(IDS, st.integers(0, 10**12), VALUES, st.booleans()), max_size=10))
def test_scores_match_the_line_writer(cells, rows):
    # a score cell may be a numpy scalar, whose repr under numpy 2 is "np.float64(...)"
    rows = [(video, frame, np.float64(score) if as_numpy else score) for video, frame, score, as_numpy in rows]
    with mock.patch.object(ingest, "_FORMAT_CELLS", cells):
        assert serialize_scores(frame_scores(rows)) == score_text(rows)


@SLICE_CELLS
@SETTINGS
@given(case=window_batches())
def test_windows_match_the_line_writer(cells, case):
    batch, windows = case
    with mock.patch.object(ingest, "_FORMAT_CELLS", cells):
        assert serialize_windows(batch) == export_text(windows)


def test_fixed_cells():
    assert serialize_scores(frame_scores([("v\x00", 3, np.float64(0.5)), ("v", 0, -0.0)])) == "v\x00,3,0.5\nv,0,-0.0\n"


@SLICE_CELLS
def test_a_block_of_columns_may_come_first(cells):
    # a 2-D block's rows are columns: its length is its column count, not the row count
    block = np.array([[1.5, 2.5, 3.5], [-0.0, 5e-324, 1e16]])
    with mock.patch.object(ingest, "_FORMAT_CELLS", cells):
        assert format_rows("%r,%r;%s", [block, ["a", "b", "c"]]) == "1.5,-0.0;a\n2.5,5e-324;b\n3.5,1e+16;c\n"
        assert format_rows("%r,%r;%s", [np.empty((2, 0)), []]) == ""


@SLICE_CELLS
def test_empty_tables_give_no_lines(cells):
    with mock.patch.object(ingest, "_FORMAT_CELLS", cells):
        detections = Detections.from_columns([], [], [], np.empty((0, 2, 3)))
        assert serialize_tracklets(detections) == ""
        assert serialize_labels(Labels.from_columns([], [], [])) == ""
        assert serialize_scores(frame_scores([])) == ""
        windows = WindowBatch.from_columns(np.zeros((0, 4, 2, 2)), np.zeros((0, 4, 2), bool), [], [], [], [])
        assert serialize_windows(windows) == export_text([]) == ""
