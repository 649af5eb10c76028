"""Each dataset writer's exact text against a per-line formatter of ``oracle.py``.

The writers format whole tables at once; the oracle writes one line at a
time with f-strings and ``repr``. Cells include -0.0, the smallest
subnormal 5e-324 and 1e16 (whose ``repr`` has an exponent), NUL-suffixed
ids, ids holding "%" and ``np.float64`` scores. An empty table gives "".
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import embedding_text, export_text, label_text, score_text, tracklet_text
from skelstat.core import Detections, EmbeddingPrior, Labels, Split, WindowBatch
from skelstat.features import serialize_windows
from skelstat.ingest import serialize_embeddings, serialize_labels, serialize_scores, serialize_tracklets

EDGE = (-0.0, 0.0, 5e-324, 1e16, -1e16, 0.1)
VALUES = st.sampled_from(EDGE) | st.floats(allow_nan=False, allow_infinity=False)
CONFIDENCES = st.sampled_from((0.0, 5e-324, 0.25, 1.0)) | st.floats(0.0, 1.0)
IDS = st.sampled_from(["v", "v\x00", "a1", "%s", "100%"])
# an embedding source is the last tab-separated field of its line
SOURCES = st.none() | st.text(st.characters(codec="ascii", exclude_categories=("Cc",)), max_size=3)
SETTINGS = settings(max_examples=100, derandomize=True, deadline=None)


@st.composite
def detection_tables(draw):
    k = draw(st.integers(1, 3))
    keys = draw(st.lists(st.tuples(IDS, IDS, st.integers(0, 10**12)), unique=True, max_size=8))
    kp = [[[draw(VALUES), draw(VALUES), draw(CONFIDENCES)] for _ in range(k)] for _ in keys]
    video, track, frame = ([key[i] for key in keys] for i in range(3))
    return Detections.from_columns(video, track, frame, np.reshape(kp, (len(keys), k, 3)))


@SETTINGS
@given(detection_tables())
def test_tracklets_match_the_line_writer(d):
    rows = zip(
        [d.video_ids[v] for v in d.video.tolist()], d.frame.tolist(),
        [d.track_ids[t] for t in d.track.tolist()], d.kp.reshape(len(d.frame), 3 * d.kp.shape[1]).tolist(),
    )
    assert serialize_tracklets(d) == tracklet_text(rows)


@SETTINGS
@given(st.lists(st.tuples(IDS, st.integers(0, 10**12), st.booleans()), unique_by=lambda r: r[:2], max_size=10))
def test_labels_match_the_line_writer(rows):
    labels = Labels.from_columns([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])
    expected = label_text(zip(labels.video.tolist(), labels.frame.tolist(), labels.positive.tolist()))
    assert serialize_labels(labels) == expected


@SETTINGS
@given(st.lists(st.tuples(IDS, st.integers(0, 10**12), VALUES, st.booleans()), max_size=10))
def test_scores_match_the_line_writer(cells):
    # a score cell may be a numpy scalar, whose repr under numpy 2 is "np.float64(...)"
    rows = [(video, frame, np.float64(score) if as_numpy else score) for video, frame, score, as_numpy in cells]
    assert serialize_scores(rows) == score_text(rows)


@st.composite
def embedding_files(draw):
    dim = draw(st.integers(1, 4))
    vectors = draw(st.lists(st.lists(VALUES, min_size=dim, max_size=dim), max_size=5))
    splits = [draw(st.sampled_from([s.value for s in Split])) for _ in vectors]
    sources = [draw(SOURCES) for _ in vectors]
    return vectors, splits, sources, draw(st.lists(VALUES, min_size=dim, max_size=dim))


@SETTINGS
@given(embedding_files(), st.booleans())
def test_embeddings_match_the_line_writer(case, as_array):
    vectors, splits, sources, mu = case
    given_vectors = np.array(vectors, dtype=np.float64).reshape(len(vectors), len(mu)) if as_array else vectors
    text = serialize_embeddings(given_vectors, splits, sources, EmbeddingPrior(mu))
    assert text == embedding_text(vectors, splits, sources, mu)


def test_fixed_cells():
    assert serialize_scores([("v\x00", 3, np.float64(0.5)), ("v", 0, -0.0)]) == "v\x00,3,0.5\nv,0,-0.0\n"
    prior = EmbeddingPrior([1e16, 5e-324])
    text = serialize_embeddings([[-0.0, 1e16], [5e-324, 2.0]], ["train", "val_normal"], ["w\x00", None], prior)
    assert text == "dim=2 mu=1e+16,5e-324\ntrain\t-0.0,1e+16\tw\x00\nval_normal\t5e-324,2.0\n"


def test_empty_tables_give_no_lines():
    detections = Detections.from_columns([], [], [], np.empty((0, 2, 3)))
    assert serialize_tracklets(detections) == ""
    assert serialize_labels(Labels.from_columns([], [], [])) == ""
    assert serialize_scores([]) == ""
    assert serialize_embeddings([], [], [], EmbeddingPrior([0.5])) == "dim=1 mu=0.5\n"
    windows = WindowBatch.from_columns(np.zeros((0, 4, 2, 2)), np.zeros((0, 4, 2), bool), [], [], [], [])
    assert serialize_windows(windows) == export_text([]) == ""
