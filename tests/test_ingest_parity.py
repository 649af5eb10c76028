"""Error parity and text round trips of the tracklet, label, score and
embedding parsers.

Every ``ParseError`` is pinned by its exact text and line number; the bad
line always follows valid lines and one blank line (a bad embedding header
follows blank lines only), so the count includes blank lines. The round
trips check that serializing a parsed file gives the canonically sorted
text, whatever the line order, gaps, track-id churn and blank lines of
the input, and that a serialized manifest or embedding file parses back
to the same values and text. The differential fuzz checks the tracklet,
label and score parsers against the line-by-line readers of ``oracle.py``
on mutated files, and the tracklet parser's blocks against its line
reader at block sizes down to one character.
"""

import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import LineFault, embedding_text, frame_scores, read_labels, read_scores, read_tracklets
from skelstat import ingest
from skelstat.core import SPLITS, Labels, ParseError, Split, video_names
from skelstat.ingest import (
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
)

KP = "1.0,2.0,0.5;3.0,4.0,0.25"  # k = 2
VALID = f"v1\t0\tt1\t{KP}\nv1\t1\tt1\t{KP}\n\n"  # lines 1-2, blank line 3


def raises_at(parse, text, message, line_number):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == f"line {line_number}: {message}"
    assert info.value.line_number == line_number


TRACKLET_ERRORS = [
    ("v1\t2\tt1", "expected 4 tab-separated fields, got 3"),
    (f"v1\t2\tt1\t{KP}\textra", "expected 4 tab-separated fields, got 5"),
    (f"v1\tx\tt1\t{KP}", "invalid frame index 'x'"),
    (f"v1\t2.0\tt1\t{KP}", "invalid frame index '2.0'"),
    (f"v1\t-1\tt1\t{KP}", "negative frame index -1"),
    ("v1\t2\tt1\t1.0,2.0,0.5", "expected 2 keypoints, got 1"),
    (f"v1\t2\tt1\t{KP};{KP}", "expected 2 keypoints, got 4"),
    ("v1\t2\tt1\t1.0,2.0;3.0,4.0,0.5", "keypoint must be 'x,y,c', got '1.0,2.0'"),
    ("v1\t2\tt1\t1.0,2.0,0.5;3.0,4.0,0.5,7", "keypoint must be 'x,y,c', got '3.0,4.0,0.5,7'"),
    # six fields in all, as two x,y,c triples would have, but split 2 + 4
    ("v1\t2\tt1\t0.5,0.5;0.5,0.5,0.5,0.5", "keypoint must be 'x,y,c', got '0.5,0.5'"),
    ("v1\t2\tt1\ta,2.0,0.5;3.0,4.0,0.5", "invalid x coordinate 'a'"),
    ("v1\t2\tt1\t1.0,2.0,0.5;3.0,,0.5", "invalid y coordinate ''"),
    ("v1\t2\tt1\t1.0,2.0,0.5;3.0,4.0,1..0", "invalid confidence '1..0'"),
    ("v1\t2\tt1\tnan,2.0,0.5;3.0,4.0,0.5", "non-finite x coordinate 'nan'"),
    ("v1\t2\tt1\t1.0,2.0,0.5;3.0,1e999,0.5", "non-finite y coordinate '1e999'"),
    ("v1\t2\tt1\t1.0,-inf,0.5;3.0,4.0,0.5", "non-finite y coordinate '-inf'"),
    ("v1\t2\tt1\t1.0,2.0,inf;3.0,4.0,0.5", "non-finite confidence 'inf'"),
    ("v1\t2\tt1\t1.0,2.0,0.5;3.0,4.0,1.5", "confidence 1.5 outside [0, 1]"),
    ("v1\t2\tt1\t1.0,2.0,-0.1;3.0,4.0,0.5", "confidence -0.1 outside [0, 1]"),
    # the first failing field in line order decides the message
    ("v1\t2\tt1\t1.0,2.0,7;nan,4.0,0.5", "confidence 7.0 outside [0, 1]"),
    ("v1\t-3\tt1\tbad", "negative frame index -3"),
    (f"v1\t0\tt1\t{KP}", "duplicate detection for (v1, t1, frame 0)"),
]


class TestTrackletErrors:
    @pytest.mark.parametrize("bad,message", TRACKLET_ERRORS)
    def test_message_and_line(self, bad, message):
        raises_at(lambda t: parse_tracklets(t, k=2), VALID + bad + "\n", message, 4)

    def test_duplicate_before_malformed_line(self):
        text = VALID + f"v1\t1\tt1\t{KP}\nv1\t2\tt1\tbad\n"
        raises_at(lambda t: parse_tracklets(t, k=2), text, "duplicate detection for (v1, t1, frame 1)", 4)

    def test_malformed_before_duplicate_line(self):
        text = VALID + f"v1\t2\tt1\tbad\nv1\t1\tt1\t{KP}\n"
        raises_at(lambda t: parse_tracklets(t, k=2), text, "expected 2 keypoints, got 1", 4)

    def test_first_repeat_in_file_order_is_reported(self):
        text = VALID + f"v2\t5\tt9\t{KP}\nv2\t5\tt9\t{KP}\nv1\t1\tt1\t{KP}\n"
        raises_at(lambda t: parse_tracklets(t, k=2), text, "duplicate detection for (v2, t9, frame 5)", 5)

    @pytest.mark.parametrize("bad,message", [TRACKLET_ERRORS[5], TRACKLET_ERRORS[-1]])
    def test_errors_far_into_the_file(self, bad, message):
        lines = [f"v1\t{f}\tt1\t{KP}" for f in range(5000)]
        lines.insert(3000, "")
        text = "\n".join(lines) + "\n" + bad + "\n"
        raises_at(lambda t: parse_tracklets(t, k=2), text, message, 5002)

    def test_padded_fields_are_accepted(self):
        padded = "v1\t 3 \tt1\t 1.0 ,2.0,0.5;3.0, 4.0 ,0.25\n"
        assert serialize_tracklets(parse_tracklets(padded, k=2)) == f"v1\t3\tt1\t{KP}\n"

    @pytest.mark.parametrize(
        "text",
        [
            "v1\t1_0\tt1\t1.0,2.0,0.5;3.0,4.0,0.2_5\n",  # underscores, as int() and float() read them
            "v1\t\u0661\u0660\tt1\t\u0661.0,2.0,0.5;3.0,4.0,0.25\n",  # and non-ASCII digits
        ],
    )
    def test_python_number_syntax_is_accepted(self, text):
        assert serialize_tracklets(parse_tracklets(text, k=2)) == f"v1\t10\tt1\t{KP}\n"


LABELS = "v1,0,0\nv1,1,1\n\n"


class TestLabelErrors:
    @pytest.mark.parametrize(
        "bad,message",
        [
            ("v1,2", "expected 'video_id,frame_index,label', got 'v1,2'"),
            ("v1,2,0,1", "expected 'video_id,frame_index,label', got 'v1,2,0,1'"),
            ("v1,x,0", "invalid frame index 'x'"),
            ("v1,2,2", "label must be 0 or 1, got '2'"),
            ("v1,2,", "label must be 0 or 1, got ''"),
            ("v1,0,1", "duplicate label for (v1, frame 0)"),
        ],
    )
    def test_message_and_line(self, bad, message):
        raises_at(parse_labels, LABELS + bad + "\n", message, 4)

    def test_duplicate_before_malformed_line(self):
        raises_at(parse_labels, LABELS + "v1,1,0\nv1,2,7\n", "duplicate label for (v1, frame 1)", 4)

    def test_negative_frame(self):
        raises_at(parse_labels, LABELS + "v1,-1,0\n", "negative frame index -1", 4)


SCORE_LABELS = parse_labels("".join(f"v1,{f},{f % 2}\n" for f in range(5002)) + "v\x00,0,1\n")
SCORES = "v1,0,0.25\nv1,1,0.75\n\n"


def parse_anomaly_scores(text):
    return parse_scores(text, ScorePolarity.ANOMALY, SCORE_LABELS)


class TestScoreErrors:
    @pytest.mark.parametrize(
        "bad,message",
        [
            ("v1,2", "expected 'video_id,frame_index,score', got 'v1,2'"),
            ("v1,2,0.5,1", "expected 'video_id,frame_index,score', got 'v1,2,0.5,1'"),
            ("v1,x,0.5", "invalid frame index 'x'"),
            ("v1,2.0,0.5", "invalid frame index '2.0'"),
            ("v1,,0.5", "invalid frame index ''"),
            ("v1,99999999999999999999,0.5", "frame index 99999999999999999999 too large"),
            ("v1,2,abc", "invalid score 'abc'"),
            ("v1,2,", "invalid score ''"),
            ("v1,2,1..5", "invalid score '1..5'"),
            ("v1,2,nan", "non-finite score 'nan'"),
            ("v1,2,inf", "non-finite score 'inf'"),
            ("v1,2,-inf", "non-finite score '-inf'"),
            ("v1,2,1e999", "non-finite score '1e999'"),
            ("v1,7000,0.5", "score for unlabeled frame (v1, 7000)"),
            ("v1,-1,0.5", "score for unlabeled frame (v1, -1)"),
            ("v1,-99999999999999999999,0.5", "score for unlabeled frame (v1, -99999999999999999999)"),
            ("v9,2,0.5", "score for unlabeled frame (v9, 2)"),
            ("v,0,0.5", "score for unlabeled frame (v, 0)"),
            ("v1\x00,2,0.5", "score for unlabeled frame (v1\x00, 2)"),
            ("v1,0,0.5", "duplicate score for (v1, frame 0)"),
            # the frame index is checked before the score, the score before the join
            ("v1,x,nan", "invalid frame index 'x'"),
            ("v9,2,nan", "non-finite score 'nan'"),
            ("v9,0,0.5", "score for unlabeled frame (v9, 0)"),
        ],
    )
    def test_message_and_line(self, bad, message):
        raises_at(parse_anomaly_scores, SCORES + bad + "\n", message, 4)

    def test_duplicate_before_malformed_line(self):
        text = SCORES + "v1,1,0.5\nv1,2,x\n"
        raises_at(parse_anomaly_scores, text, "duplicate score for (v1, frame 1)", 4)

    def test_malformed_before_duplicate_line(self):
        raises_at(parse_anomaly_scores, SCORES + "v1,2,x\nv1,1,0.5\n", "invalid score 'x'", 4)

    def test_first_duplicate_in_file_order_is_reported(self):
        text = SCORES + "v1,9,0.5\nv1,9,0.5\nv1,0,0.5\n"
        raises_at(parse_anomaly_scores, text, "duplicate score for (v1, frame 9)", 5)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("v1,2,x", "invalid score 'x'"),
            ("v1,2,inf", "non-finite score 'inf'"),
            ("v1,5001", "expected 'video_id,frame_index,score', got 'v1,5001'"),
            ("v1,5002,0.5", "score for unlabeled frame (v1, 5002)"),
            ("v1,4000,0.5", "duplicate score for (v1, frame 4000)"),
        ],
    )
    def test_errors_far_into_the_file(self, bad, message):
        lines = [f"v1,{f},{f / 8}" for f in range(5000)]
        lines.insert(3000, "")
        text = "\n".join(lines) + "\n" + bad + "\n"
        raises_at(parse_anomaly_scores, text, message, 5002)

    def test_padded_fields_are_accepted(self):
        frames = parse_anomaly_scores(" v1, 3 ,\t0.5 \n\t\nv1,+2,-1_0.5\n")
        assert video_names(frames).tolist() == ["v1", "v1"]
        assert frames.frame.tolist() == [2, 3]
        assert frames.score.tolist() == [-10.5, 0.5]
        assert frames.positive.tolist() == [False, True]

    def test_empty_file_gives_empty_columns(self):
        frames = parse_anomaly_scores("\n \n")
        assert [len(c) for c in frames[1:]] == [0, 0, 0, 0]
        assert frames.video_ids == SCORE_LABELS.video_ids


EMBEDDINGS = "dim=2 mu=0.5,1.5\ntrain\t1.0,2.0\nval_normal\t3.0,4.0\tw1\n\n"  # lines 1-3, blank line 4


class TestEmbeddingErrors:
    @pytest.mark.parametrize("text", ["", "\n \n\t\n"])
    def test_empty_file(self, text):
        with pytest.raises(ParseError) as info:
            parse_embeddings(text)
        assert str(info.value) == "embedding file is empty; missing 'dim=... mu=...' header"
        assert info.value.line_number is None

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("dim=2", "header must be 'dim=<d> mu=<v1,...,vd>', got 'dim=2'"),
            ("dim=2 mu=0,0 x", "header must be 'dim=<d> mu=<v1,...,vd>', got 'dim=2 mu=0,0 x'"),
            ("mu=0,0 dim=2", "header must be 'dim=<d> mu=<v1,...,vd>', got 'mu=0,0 dim=2'"),
            ("dim=x mu=0", "invalid dimension 'x'"),
            ("dim=2.0 mu=0,0", "invalid dimension '2.0'"),
            ("dim=99999999999999999999 mu=0", "dimension 99999999999999999999 too large"),
            ("dim=0 mu=", "dimension must be positive, got 0"),
            ("dim=-2 mu=0,0", "dimension must be positive, got -2"),
            ("dim=2 mu=0.5", "prior mean has 1 values, expected 2"),
            ("dim=2 mu=0.5,1,2", "prior mean has 3 values, expected 2"),
            ("dim=2 mu=0.5,a", "invalid prior value 'a'"),
            ("dim=2 mu=,0.5", "invalid prior value ''"),
            ("dim=2 mu=0.5,nan", "non-finite prior value 'nan'"),
            ("dim=2 mu=1e999,0.5", "non-finite prior value '1e999'"),
        ],
    )
    def test_header_message_and_line(self, bad, message):
        raises_at(parse_embeddings, "\n \n" + bad + "\n" + EMBEDDINGS.split("\n", 1)[1], message, 3)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("train", "expected 'split<TAB>v1,...,vd', got 'train'"),
            ("train\t1,2\tw\tx", "expected 'split<TAB>v1,...,vd', got 'train\\t1,2\\tw\\tx'"),
            ("test\t1,2", "unknown split 'test'; expected one of ['train', 'val_anomalous', 'val_normal']"),
            (" train\t1,2", "unknown split ' train'; expected one of ['train', 'val_anomalous', 'val_normal']"),
            ("train\t1", "vector has 1 values, expected 2"),
            ("val_anomalous\t1,2,3\tw2", "vector has 3 values, expected 2"),
            ("train\t1,x", "invalid embedding value 'x'"),
            ("train\t,2", "invalid embedding value ''"),
            ("train\t1,inf", "non-finite embedding value 'inf'"),
            ("train\t-1e999,2", "non-finite embedding value '-1e999'"),
            # the split is checked before the vector, the length before the values
            ("test\t1,x", "unknown split 'test'; expected one of ['train', 'val_anomalous', 'val_normal']"),
            ("train\tx", "vector has 1 values, expected 2"),
        ],
    )
    def test_message_and_line(self, bad, message):
        raises_at(parse_embeddings, EMBEDDINGS + bad + "\ntrain\t5.0,6.0\n", message, 5)


IDS = st.text(alphabet="abvtAB019_-.", min_size=1, max_size=3)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
CONFIDENCE = st.floats(min_value=0.0, max_value=1.0)


def shuffled_text(draw, lines):
    """The lines in a drawn order, with blank lines sprinkled in."""
    lines = draw(st.permutations(lines))
    out = []
    for line in lines:
        out.extend([""] * draw(st.integers(0, 1)))
        out.append(line)
    return "\n".join(out) + draw(st.sampled_from(["", "\n", "\n\n"]))


@st.composite
def tracklet_files(draw):
    """(k, text, canonical text) of a small tracklet file with gaps and id churn."""
    k = draw(st.sampled_from([2, 4, 17]))
    rows = {}
    for video in draw(st.lists(IDS, min_size=1, max_size=3, unique=True)):
        for track in draw(st.lists(IDS, min_size=1, max_size=3, unique=True)):
            frames = draw(st.sets(st.integers(0, 40), min_size=1, max_size=6))
            for frame in frames:
                values = draw(st.lists(st.tuples(FINITE, FINITE, CONFIDENCE), min_size=k, max_size=k))
                kp = ";".join(f"{x!r},{y!r},{c!r}" for x, y, c in values)
                rows[(video, track, frame)] = f"{video}\t{frame}\t{track}\t{kp}"
    canonical = "".join(rows[key] + "\n" for key in sorted(rows))
    return k, shuffled_text(draw, list(rows.values())), canonical


@st.composite
def label_files(draw):
    rows = {}
    for video in draw(st.lists(IDS, min_size=1, max_size=3, unique=True)):
        for frame in draw(st.sets(st.integers(0, 60), min_size=1, max_size=12)):
            rows[(video, frame)] = f"{video},{frame},{draw(st.sampled_from('01'))}"
    canonical = "".join(rows[key] + "\n" for key in sorted(rows))
    return shuffled_text(draw, list(rows.values())), canonical


@settings(max_examples=60, derandomize=True, deadline=None)
@given(tracklet_files())
def test_tracklet_text_round_trip(case):
    k, text, canonical = case
    assert serialize_tracklets(parse_tracklets(text, k)) == canonical


@settings(max_examples=60, derandomize=True, deadline=None)
@given(label_files())
def test_label_text_round_trip(case):
    text, canonical = case
    assert serialize_labels(parse_labels(text)) == canonical


@st.composite
def score_rows(draw):
    """(labels, rows) of a small scored label set with NUL-suffixed ids."""
    keys = draw(
        st.lists(st.tuples(st.sampled_from(["v", "v\x00", "w", "a1"]), st.integers(0, 60)), unique=True, max_size=40)
    )
    positive = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    labels = Labels.from_columns([v for v, _ in keys], [f for _, f in keys], positive)
    scores = draw(st.lists(FINITE, min_size=len(keys), max_size=len(keys)))
    return labels, [(v, f, s) for (v, f), s in zip(keys, scores)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(score_rows(), st.sampled_from(ScorePolarity))
def test_score_text_round_trip(case, polarity):
    labels, rows = case
    frames = parse_scores(serialize_scores(frame_scores(rows)), polarity, labels)
    sign = -1.0 if polarity is ScorePolarity.NORMALITY else 1.0
    expected = sorted(rows)
    assert video_names(frames).tolist() == [v for v, _, _ in expected]
    assert frames.frame.tolist() == [f for _, f, _ in expected]
    assert list(map(repr, frames.score.tolist())) == [repr(sign * s) for _, _, s in expected]
    positive = dict(zip(zip(video_names(labels).tolist(), labels.frame.tolist()), labels.positive.tolist()))
    assert frames.positive.tolist() == [positive[v, f] for v, f, _ in expected]


# a manifest id is a JSON string, so any character fits; an embedding source
# is the last tab-separated field of a line, so it holds no tab and no line break
ANY_CHAR = st.characters(exclude_categories=("Cs",))
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines cuts
SOURCE_CHAR = st.characters(exclude_categories=("Cs",), exclude_characters="\t" + LINE_BREAKS)
SIZE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.dictionaries(
    st.text(ANY_CHAR, max_size=4), st.builds(VideoMeta, st.sampled_from(["train", "val"]), SIZE, SIZE), max_size=4,
))
def test_manifest_round_trip(videos):
    text = serialize_manifest(videos)
    assert parse_manifest(text) == videos
    assert serialize_manifest(parse_manifest(text)) == text


@st.composite
def embedding_files(draw):
    """(vectors, split tokens, sources, prior mean) of a small embedding file."""
    dim = draw(st.integers(1, 4))
    vectors = draw(st.lists(st.lists(FINITE, min_size=dim, max_size=dim), max_size=5))
    splits = [draw(st.sampled_from([s.value for s in Split])) for _ in vectors]
    sources = [draw(st.none() | st.text(SOURCE_CHAR, max_size=4)) for _ in vectors]
    return vectors, splits, sources, draw(st.lists(FINITE, min_size=dim, max_size=dim))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(embedding_files())
def test_embedding_round_trip(case):
    vectors, splits, sources, mu = case
    text = embedding_text(vectors, splits, sources, mu)
    got_vectors, got_splits, got_sources, prior = parse_embeddings(text)
    got_tokens = [SPLITS[code].value for code in got_splits.tolist()]
    assert [list(map(repr, row)) for row in got_vectors.tolist()] == [list(map(repr, row)) for row in vectors]
    assert (got_tokens, got_sources) == (splits, sources)
    assert list(map(repr, prior.mu_normal.tolist())) == list(map(repr, mu))
    assert embedding_text(got_vectors, got_tokens, got_sources, prior.mu_normal) == text


def test_ids_are_kept_exactly():
    # numpy's fixed-width str dtype would drop the trailing NUL
    tracklets = f"v\x00\t0\tt\x00\t{KP}\nv\x00\t1\tt\x00\t{KP}\n"
    assert serialize_tracklets(parse_tracklets(tracklets, k=2)) == tracklets
    labels = "v\x00,0,1\nv\x00,1,0\n"
    assert serialize_labels(parse_labels(labels)) == labels


# edits of the differential fuzz: (kind, line, position, token); a "token"
# edit replaces a field, a "nul" edit suffixes the line's id with NUL
EDIT = st.tuples(
    st.sampled_from(["comma", "newline", "space", "token", "repeat", "nul"]),
    st.integers(0, 1000),
    st.integers(0, 1000),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "99999999999999999999", "-99999999999999999999", "-1", "2", "0"]),
)


def mutate(text, edits):
    """The text with each edit applied to one of its lines."""
    lines = text.split("\n")
    for kind, at, position, token in edits:
        i = at % len(lines)
        line, fields = lines[i], lines[i].split(",")
        if kind in ("comma", "newline", "space"):
            cut = position % (len(line) + 1)
            lines[i] = line[:cut] + {"comma": ",", "newline": "\n", "space": " "}[kind] + line[cut:]
        elif kind == "repeat":
            lines.insert(position % (len(lines) + 1), line)
        elif kind == "token":
            fields[position % len(fields)] = token
            lines[i] = ",".join(fields)
        else:
            lines[i] = ",".join([fields[0] + "\x00", *fields[1:]])
    return "\n".join(lines)


@st.composite
def csv_rows(draw, values):
    """Shuffled ``video,frame,value`` lines of distinct (video, frame) keys."""
    keys = draw(st.lists(st.tuples(st.sampled_from(["a", "b", "v\x00"]), st.integers(0, 9)), unique=True, max_size=8))
    return [f"{video},{frame},{draw(values)}" for video, frame in draw(st.permutations(keys))]


def outcome(parse, text):
    """A parser's table as a list of rows, or the ``LineFault`` of its ParseError."""
    try:
        table = parse(text)
        return [tuple(row) for row in zip(video_names(table).tolist(), *(column.tolist() for column in table[2:]))]
    except ParseError as exc:
        return LineFault(str(exc).partition(": ")[2], exc.line_number)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(csv_rows(st.sampled_from("01")), st.lists(EDIT, min_size=1, max_size=3))
def test_labels_match_the_line_reader_on_mutated_files(lines, edits):
    text = mutate("\n".join(lines) + "\n", edits)
    assert outcome(parse_labels, text) == read_labels(text)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    csv_rows(st.sampled_from(["0.5", "-1.25", "3", "1e-300", "-0.0"])),
    st.lists(EDIT, min_size=1, max_size=3),
    st.sampled_from(ScorePolarity),
)
def test_scores_match_the_line_reader_on_mutated_files(lines, edits, polarity):
    labels = parse_labels("".join(f"{video},{frame},{frame % 2}\n" for video in ("a", "b", "v\x00") for frame in range(8)))
    text = mutate("\n".join(lines) + "\n", edits)
    known = dict(zip(zip(video_names(labels).tolist(), labels.frame.tolist()), labels.positive.tolist()))
    sign = -1.0 if polarity is ScorePolarity.NORMALITY else 1.0
    got = outcome(lambda t: parse_scores(t, polarity, labels), text)
    expected = read_scores(text, known, sign)
    assert got == expected
    if not isinstance(expected, LineFault):
        assert [repr(row[2]) for row in got] == [repr(row[2]) for row in expected]  # the sign of zero too


# edits of the tracklet fuzz: (kind, line, position, token); an "insert" edit
# puts the token into the line, a "field" edit replaces the field the position
# picks (ids, frame and every keypoint value are fields), a "nul" edit
# suffixes the video or track id with NUL
TRACKLET_EDIT = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 1000), st.integers(0, 1000), st.sampled_from("\t,; \n")),
    st.tuples(
        st.just("field"), st.integers(0, 1000), st.integers(0, 1000),
        st.sampled_from(["nan", "inf", "1e999", "-1", "1.5", " 1.0 ", "1_0", "\u0661.\u0665", "99999999999999999999"]),
    ),
    st.tuples(st.sampled_from(["repeat", "blank", "nul"]), st.integers(0, 1000), st.integers(0, 1000), st.just("")),
)


def mutate_tracklets(text, edits):
    """The tracklet text with each edit applied to one of its lines."""
    lines = text.split("\n")
    for kind, at, position, token in edits:
        i = at % len(lines)
        line, fields = lines[i], re.split("([\t,;])", lines[i])  # fields at even indices
        if kind == "insert":
            cut = position % (len(line) + 1)
            lines[i] = line[:cut] + token + line[cut:]
        elif kind == "field":
            fields[2 * (position % ((len(fields) + 1) // 2))] = token
            lines[i] = "".join(fields)
        elif kind == "nul":
            fields[min(4 * (position % 2), len(fields) - 1)] += "\x00"
            lines[i] = "".join(fields)
        else:
            lines.insert(position % (len(lines) + 1), line if kind == "repeat" else "")
    return "\n".join(lines)


@st.composite
def tracklet_lines(draw):
    """k = 2 tracklet lines of distinct (video, track, frame) keys, in a drawn order."""
    keys = draw(st.lists(
        st.tuples(st.sampled_from(["a", "v\x00"]), st.sampled_from(["t", "u"]), st.integers(0, 4)),
        unique=True, max_size=8,
    ))
    coordinate = st.sampled_from(["0.5", "-1.25", "3", "1e-300", "-0.0"])
    confidence = st.sampled_from(["0", "0.25", "1", "1.0"])
    joint = st.builds(lambda x, y, c: f"{x},{y},{c}", coordinate, coordinate, confidence)
    return [f"{video}\t{frame}\t{track}\t{draw(joint)};{draw(joint)}" for video, track, frame in keys]


def tracklet_outcome(text):
    """``parse_tracklets``' table as sorted (video, track, frame, values) rows, or its ``LineFault``."""
    try:
        d = parse_tracklets(text, 2)
    except ParseError as exc:
        return LineFault(str(exc).partition(": ")[2], exc.line_number)
    return [
        (d.video_ids[v], d.track_ids[t], f, values)
        for v, t, f, values in zip(d.video.tolist(), d.track.tolist(), d.frame.tolist(), d.kp.reshape(-1, 6).tolist())
    ]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tracklet_lines(), st.lists(TRACKLET_EDIT, min_size=1, max_size=3))
def test_tracklets_match_the_line_reader_on_mutated_files(lines, edits):
    text = mutate_tracklets("\n".join(lines) + "\n", edits)
    expected = read_tracklets(text, 2)
    got = tracklet_outcome(text)
    with mock.patch.object(ingest, "_BLOCK_CHARS", 1):  # a repeat in an earlier block, a fault in a later one
        got_small = tracklet_outcome(text)
    assert got == got_small == expected
    assert repr(got) == repr(got_small) == repr(expected)  # the sign of zero too


def block_lines(frames, video="v1"):
    """k = 2 tracklet lines of one track, one per frame."""
    return [f"{video}\t{frame}\tt1\t{KP}" for frame in frames]


# texts whose line breaks, blank runs and faults fall on the edges of small parse blocks
BLOCK_TEXTS = {
    "crlf": "\r\n".join(block_lines(range(6))) + "\r\n",
    "cr": "\r".join(block_lines(range(6))) + "\r",
    "other breaks": "".join(map(str.__add__, block_lines(range(7)),
                                ["\n", "\r\n", "\x0b", "\x85", "\u2028", "\x0c", "\x1c"])),
    "blank first block": "\n" * 40 + "\n".join(block_lines(range(4))) + "\n",
    "blank middle block": "\n".join(block_lines(range(3))) + " \t\r\n\x0b\n" * 20
                          + "\n".join(block_lines(range(3, 6))),
    "blank only": "\n \r\n\t\n",
    "no trailing newline": "\n".join(block_lines(range(5))),
    "lone surrogate in an id": "\n".join(block_lines(range(3), "v\ud800")) + "\n",
    "lone surrogate in a keypoint": "\n".join(block_lines(range(3)))
                                    + "\nv1\t3\tt1\t1.0\ud800,2.0,0.5;3.0,4.0,0.25\n",
    "fault in a later block": "\r\n".join(block_lines(range(30))) + "\r\n\n\r\nv1\t30\tt1\tbad\r\n",
    "repeat in a later block": "\n".join(block_lines([*range(30), 7])) + "\n",
}


class TestBlockParser:
    @pytest.mark.parametrize("block_chars", [1, 7, 64, ingest._BLOCK_CHARS])
    @pytest.mark.parametrize("name", BLOCK_TEXTS)
    def test_blocks_match_the_line_reader(self, name, block_chars):
        text = BLOCK_TEXTS[name]
        with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
            got = tracklet_outcome(text)
        expected = read_tracklets(text, 2)
        assert repr(got) == repr(expected)

    @pytest.mark.parametrize("block_chars", [1, 64])
    def test_a_fault_in_a_later_block_keeps_its_line_number(self, block_chars):
        with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
            got = tracklet_outcome(BLOCK_TEXTS["fault in a later block"])
        assert got == LineFault("expected 2 keypoints, got 1", 33)
