"""Tests of the benchmark's own parts: generator, tracer arithmetic, checks.

The checks are exercised on real program outputs of tiny inputs, first
unchanged (they must pass) and then deliberately corrupted (they must
fail).
"""

import json
import shutil
import sys
import types

import numpy as np
import pytest

import checks
import inputs
import run
import sweep
import tracer
from checks import CheckFailed
from inputs import TrackSpec
from skelstat.cli import main as cli_main

TINY_REPORT = TrackSpec(n_train=1, n_val=1, frames=120, persons=2, k=17)
TINY_CROWD = TrackSpec(n_train=1, n_val=1, frames=200, persons=3, k=4, churn=30, drop=0.02)


def _texts(seed):
    tracks = inputs.make_tracklet_dataset(TINY_CROWD, seed)
    scores = inputs.make_score_dataset(3, 100, seed)
    return (
        inputs.tracklets_text(tracks),
        inputs.labels_text(tracks.labels),
        inputs.manifest_text(tracks.videos),
        inputs.scores_text(scores),
        inputs.labels_text(scores.labels),
    )


def test_generator_is_byte_deterministic_per_seed():
    assert _texts(5) == _texts(5)
    assert _texts(5)[0] != _texts(6)[0]
    assert _texts(5)[3] != _texts(6)[3]


def test_generator_churns_tracks_and_drops_detections():
    data = inputs.make_tracklet_dataset(TINY_CROWD, 1)
    full = (TINY_CROWD.n_train + TINY_CROWD.n_val) * TINY_CROWD.frames * TINY_CROWD.persons
    assert 0.9 * full < data.detections < full
    assert len(data.tracks) > 2 * TINY_CROWD.persons * 2
    for video in data.videos:
        for start in checks.social_window_starts(data, video):
            present = {t.track_id for t in data.tracks if t.video == video
                       and ((t.frames >= start) & (t.frames < start + inputs.T)).any()}
            assert len(present) <= TINY_CROWD.max_tracks_per_window


def test_self_times_on_a_nested_tree():
    spans = [
        tracer.Span("root", 0.0, 10.0),
        tracer.Span("a", 1.0, 4.0, parent=0),
        tracer.Span("b", 5.0, 9.0, parent=0),
        tracer.Span("c", 6.0, 7.0, parent=2),
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    assert sum(tracer.self_times(spans)) == spans[0].duration


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _modules(clock):
    """Two modules where ``b`` binds ``a.f`` by ``from a import f``."""
    a = types.ModuleType("a")
    b = types.ModuleType("b")

    def f():
        clock.now += 2.0

    def g():  # untraced caller in a; calls f through a's binding
        clock.now += 1.0
        a.f()

    def h():  # traced caller in b; calls f through b's binding
        clock.now += 0.5
        b.f()
        clock.now += 0.25

    a.f, a.g = f, g
    b.f, b.h = f, h
    return a, b


def test_function_bound_in_two_modules_is_one_span_per_call(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer.time, "perf_counter", clock)
    a, b = _modules(clock)
    original = a.f
    t = tracer.Tracer({"a": a, "b": b}, traced=[("a", "f"), ("b", "h"), ("a", "gone")])
    t.install()
    assert a.f is b.f and a.f is not original
    try:
        b.h()
        a.g()
    finally:
        t.uninstall()
    assert a.f is original and b.f is original
    assert t.absent == ["a.gone"]
    assert [(s.name, s.parent) for s in t.spans] == [("b.h", None), ("a.f", 0), ("a.f", None)]
    metrics = tracer.layer_metrics(t, root_s=6.0)
    assert metrics["a.f.self_s"] == 4.0
    assert metrics["a.f.calls"] == 2
    assert metrics["b.h.self_s"] == 0.75
    assert metrics["trace.untraced_s"] == 6.0 - 4.75


def test_build_windows_spans_carry_the_feature(tmp_path):
    data = inputs.make_tracklet_dataset(TINY_REPORT, 3)
    paths = inputs.write_tracklet_inputs(data, tmp_path)
    argv = ["report", "--out", "{out}", "--tracklets", str(paths["tracklets"]),
            "--labels", str(paths["labels"]), "--manifest", str(paths["manifest"])]
    result = tracer.traced_child({"argv": argv, "seconds": 0,
                                  "out_prefix": str(tmp_path / "out")})
    traced = [r for r in result["runs"] if r["traced"]]
    assert [r["code"] for r in result["runs"]] == [0, 0]
    m = traced[0]["metrics"]
    counts = {f: sum(checks.window_counts(data, f).values()) for f in ("pose", "traj", "social")}
    for feature, windows in counts.items():
        assert m[f"features.build_windows.{feature}.windows"] == windows
    assert traced[0]["absent"] == []
    assert m["analysis.mean_tensor.calls"] == 12
    assert m["analysis.mean_tensor.useful_frac"] == 9 / 12
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_total + m["trace.untraced_s"] == pytest.approx(m["trace.root_s"], rel=1e-9)
    assert set(k for k in m if k.endswith(".self_s")) <= set(run.declared_units("per_layer"))


def _run_cli(argv):
    assert cli_main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def report_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("report")
    data = inputs.make_tracklet_dataset(TINY_REPORT, 2)
    paths = inputs.write_tracklet_inputs(data, root)
    _run_cli(["report", "--out", root / "out", "--tracklets", paths["tracklets"],
              "--labels", paths["labels"], "--manifest", paths["manifest"]])
    return data, root / "out"


def _copy(out, tmp_path):
    target = tmp_path / "copy"
    shutil.copytree(out, target)
    return target


def _edit_json(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def test_report_check_accepts_the_program_output(report_out):
    data, out = report_out
    checks.check_report(out, data)


@pytest.mark.parametrize("corrupt", ["count", "delta", "sdom", "histogram"])
def test_report_check_rejects_corruption(report_out, tmp_path, corrupt):
    data, out = report_out
    out = _copy(out, tmp_path)
    if corrupt == "count":
        _edit_json(out / "report.json", lambda r: r["features"]["pose"]["counts"].update(train=1))
    elif corrupt == "delta":
        def bump(r):
            s = r["features"]["traj"]["sdom"]
            s["delta_a"] *= 1 + 1e-6
            s["sdom"] = s["delta_a"] - s["delta_n"]
        _edit_json(out / "report.json", bump)
    elif corrupt == "sdom":
        _edit_json(out / "report.json", lambda r: r["features"]["social"]["sdom"].update(sdom=0.5))
    else:
        hist = out / "hist_pose_val_anomalous.csv"
        hist.write_text("".join(hist.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(CheckFailed):
        checks.check_report(out, data)


def test_social_check_rejects_a_flipped_label(tmp_path):
    data = inputs.make_tracklet_dataset(TINY_CROWD, 4)
    paths = inputs.write_tracklet_inputs(data, tmp_path)
    argv = ["sdom", "--feature", "social", "--keypoints", "4",
            "--nodes", TINY_CROWD.max_tracks_per_window, "--tracklets", paths["tracklets"],
            "--labels", paths["labels"], "--manifest", paths["manifest"]]
    _run_cli([*argv, "--out", tmp_path / "good"])
    checks.check_sdom(tmp_path / "good", data, "social")
    labels = data.labels["val000"]
    frame = int(np.nonzero(labels == 0)[0][0])  # a normal frame in the first window
    flipped = {v: a.copy() for v, a in data.labels.items()}
    flipped["val000"][frame] = 1
    paths["labels"].write_text(inputs.labels_text(flipped))
    _run_cli([*argv, "--out", tmp_path / "bad"])
    with pytest.raises(CheckFailed):
        checks.check_sdom(tmp_path / "bad", data, "social")


@pytest.fixture(scope="module")
def metrics_case(tmp_path_factory):
    root = tmp_path_factory.mktemp("metrics")
    data = inputs.make_score_dataset(4, 150, 9)
    paths = inputs.write_score_inputs(data, root)
    return data, paths, root


def _metrics(paths, out, labels=None):
    if labels is not None:
        paths["labels"].write_text(labels)
    _run_cli(["metrics", "--out", out, "--scores", paths["scores"],
              "--labels", paths["labels"], "--manifest", paths["manifest"]])
    return out


def test_metrics_check_accepts_output_and_matches_mann_whitney(metrics_case, tmp_path):
    data, paths, _ = metrics_case
    checks.check_metrics(_metrics(paths, tmp_path / "out"), data)
    scores = np.array([0.1, 0.4, 0.4, 0.8, 0.2])
    positive = np.array([False, True, False, True, False])
    pairs = [(p, n) for p in scores[positive] for n in scores[~positive]]
    brute = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in pairs) / len(pairs)
    assert checks.mann_whitney_auc(scores, positive) == brute


def test_metrics_check_rejects_a_flipped_label(metrics_case, tmp_path):
    data, paths, _ = metrics_case
    flipped = {v: a.copy() for v, a in data.labels.items()}
    flipped["val001"][0] ^= 1
    original = paths["labels"].read_text()
    try:
        out = _metrics(paths, tmp_path / "out", inputs.labels_text(flipped))
    finally:
        paths["labels"].write_text(original)
    with pytest.raises(CheckFailed, match="n_pos"):
        checks.check_metrics(out, data)


@pytest.mark.parametrize("name", ["roc.csv", "pr.csv"])
def test_metrics_check_rejects_a_truncated_csv(metrics_case, tmp_path, name):
    data, paths, _ = metrics_case
    out = _metrics(paths, tmp_path / "out")
    lines = (out / name).read_text().splitlines(keepends=True)
    (out / name).write_text("".join(lines[:-1]))
    with pytest.raises(CheckFailed):
        checks.check_metrics(out, data)


SYNTH = dict(n_train=1, n_val=1, frames=96, persons=2, k=17, anomaly_fraction=0.25, seed=11)


@pytest.fixture(scope="module")
def synth_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth") / "out"
    s = SYNTH
    _run_cli(["synth", "--out", out, "--seed", s["seed"], "--videos", s["n_train"],
              "--val-videos", s["n_val"], "--frames", s["frames"], "--persons", s["persons"],
              "--keypoints", s["k"], "--anomaly-mode", "traj-shift:100",
              "--anomaly-fraction", s["anomaly_fraction"], "--oracle", "distance"])
    return out


def test_synth_check_accepts_the_program_output(synth_out):
    checks.check_synth(synth_out, **SYNTH)


@pytest.mark.parametrize("corrupt", ["drop_line", "bad_float", "flip_label"])
def test_synth_check_rejects_corruption(synth_out, tmp_path, corrupt):
    out = _copy(synth_out, tmp_path)
    if corrupt == "flip_label":
        path = out / "labels.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = lines[0][:-2] + ("1\n" if lines[0][-2] == "0" else "0\n")
    else:
        path = out / "tracklets.txt"
        lines = path.read_text().splitlines(keepends=True)
        if corrupt == "drop_line":
            lines = lines[:-1]
        else:
            video, frame, track, kp = lines[3].split("\t")
            lines[3] = "\t".join([video, frame, track, "nan" + kp[kp.index(","):]])
    path.write_text("".join(lines))
    with pytest.raises(CheckFailed):
        checks.check_synth(out, **SYNTH)


def test_judge_requires_identical_bytes_across_runs(synth_out, tmp_path):
    judge = run.OutputJudge(lambda out: checks.check_synth(out, **SYNTH))
    assert judge.judge(synth_out)
    assert judge.judge(synth_out)
    changed = _copy(synth_out, tmp_path)
    (changed / "synth_spec.json").write_text((changed / "synth_spec.json").read_text() + " ")
    assert not judge.judge(changed)
    assert judge.errors == ["output bytes differ from the first run's"]


def test_benchmark_json_matches_the_runner():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(run.declared_units("end_to_end")) == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    layers = {name.split(".")[0] for name in run.declared_units("per_layer")}
    assert {layer for layer, _ in tracer.TRACED} <= layers


def test_spawn_kills_a_child_past_its_timeout(tmp_path):
    child = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"], {}, tmp_path / "err",
                      timeout_s=1)
    assert child.code != 0 and child.wall_s < 10


def test_reference_child_runs_without_the_program(tmp_path):
    """The host-speed reference must not change when the program does."""
    assert "skelstat" not in run.REF_CODE
    child = run.spawn([sys.executable, "-I", "-c", run.REF_CODE], {}, tmp_path / "err")
    assert child.code == 0, (tmp_path / "err").read_text()


def test_compare_gives_worse_unresolved_and_ok_verdicts(capsys):
    bench = {"end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.25},
                            {"name": "r", "unit": "1/s", "better": "higher", "bound": 0.25}]}

    def runs(ts, rs):
        return {"w": [{"metrics": {"t": {"value": t}, "r": {"value": r}}} for t, r in zip(ts, rs)]}

    steady = runs([1.0, 1.01, 0.99, 1.0], [10.0, 10.1, 9.9, 10.0])
    assert not sweep.compare(steady, runs([1.3] * 4, [7.0] * 4), bench)
    assert capsys.readouterr().out.count("WORSE") == 2
    noisy = runs([1.0, 1.6, 0.6, 1.0], [10.0, 16.0, 6.0, 10.0])
    assert sweep.compare(noisy, runs([1.1] * 4, [9.0] * 4), bench)
    assert capsys.readouterr().out.count("unresolved") == 2
    assert sweep.compare(noisy, runs([0.5] * 4, [17.0] * 4), bench)
    assert capsys.readouterr().out.count(": ok") == 2
