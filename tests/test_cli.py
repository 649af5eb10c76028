import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skelstat
from skelstat.cli import _WRITE_CHARS, _distinct_text, atomic_write_text, main
from test_output_bytes import write_score_inputs, write_tracklet_inputs


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def dataset(tmp_path):
    """Small synthetic dataset with a strong trajectory anomaly."""
    data = tmp_path / "data"
    code = run(
        [
            "synth",
            "--out", data,
            "--seed", 42,
            "--videos", 2,
            "--val-videos", 2,
            "--frames", 120,
            "--persons", 2,
            "--keypoints", 4,
            "--spawn-radius", 10,
            "--drift", 0.3,
            "--anomaly-mode", "traj-shift:150",
            "--anomaly-fraction", 0.25,
            "--oracle", "perfect",
            "--oracle", "random",
            "--oracle", "distance",
        ]
    )
    assert code == 0
    return data


def data_args(data, *extra):
    return [
        "--tracklets", data / "tracklets.txt",
        "--labels", data / "labels.csv",
        "--manifest", data / "manifest.json",
        "--keypoints", 4,
        *extra,
    ]


class TestSynth:
    def test_emits_all_files(self, dataset):
        names = {p.name for p in dataset.iterdir()}
        assert names >= {
            "tracklets.txt",
            "labels.csv",
            "manifest.json",
            "synth_spec.json",
            "scores_perfect.csv",
            "scores_random.csv",
            "scores_distance.csv",
        }

    def test_deterministic_across_runs(self, dataset, tmp_path):
        rerun = tmp_path / "rerun"
        run(
            [
                "synth", "--out", rerun, "--seed", 42, "--videos", 2, "--val-videos", 2,
                "--frames", 120, "--persons", 2, "--keypoints", 4, "--spawn-radius", 10,
                "--drift", 0.3, "--anomaly-mode", "traj-shift:150", "--anomaly-fraction", 0.25,
            ]
        )
        for name in ("tracklets.txt", "labels.csv", "manifest.json"):
            assert (rerun / name).read_bytes() == (dataset / name).read_bytes()


class TestValidate:
    def test_writes_report(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run(["validate", "--out", out, *data_args(dataset)]) == 0
        report = json.loads((out / "validation.json").read_text())
        assert report["ok"] is True
        assert len(report["videos"]) == 4


@pytest.mark.parametrize(
    "command, option",
    [("validate", "--feature"), ("validate", "--stride"), ("report", "--feature"), ("sdom", "--width")],
)
def test_data_commands_refuse_options_they_do_not_read(tmp_path, command, option):
    value = "pose" if option == "--feature" else "6"
    with pytest.raises(SystemExit) as exc:
        run([command, "--out", tmp_path / "out", *data_args(tmp_path), option, value])
    assert exc.value.code == 2


class TestWindows:
    def test_windows_file(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run(["windows", "--out", out, *data_args(dataset), "--feature", "traj"]) == 0
        text = (out / "windows_traj.txt").read_text()
        assert text.count("\n") > 0


class TestSdom:
    def test_report_fields(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run(["sdom", "--out", out, *data_args(dataset), "--feature", "traj", "--no-center"]) == 0
        report = json.loads((out / "sdom.json").read_text())
        assert report["sdom"] == pytest.approx(report["delta_a"] - report["delta_n"], abs=1e-12)
        assert report["feature_type"] == "traj"


class TestDistHist:
    def test_feature_mode(self, dataset, tmp_path):
        out = tmp_path / "out"
        code = run(
            ["dist-hist", "--out", out, *data_args(dataset), "--feature", "traj",
             "--binning", "count:12"]
        )
        assert code == 0
        for split in ("train", "val_normal", "val_anomalous"):
            lines = (out / f"hist_traj_{split}.csv").read_text().strip().split("\n")
            assert lines[0] == "bin_left,bin_right,count,split"
            assert len(lines) == 13
        boxes = json.loads((out / "box_traj.json").read_text())
        assert set(boxes) == {"train", "val_normal", "val_anomalous"}

    def test_embedding_mode(self, tmp_path):
        emb = tmp_path / "emb.txt"
        emb.write_text("dim=2 mu=0,0\ntrain\t1,0\ntrain\t0,1\nval_normal\t2,0\nval_anomalous\t5,0\n")
        out = tmp_path / "out"
        code = run(
            ["dist-hist", "--out", out, "--embeddings", emb, "--binning", "count:4",
             "--tracklets", "x", "--labels", "x", "--manifest", "x"]
        )
        assert code == 0
        assert (out / "box_latent.json").exists()
        assert (out / "hist_latent_train.csv").exists()

    def test_histogram_csv_text(self, tmp_path):
        # latent distances 5, 1 and 2 in three bins: counts as ints, edges as repr
        emb = tmp_path / "emb.txt"
        emb.write_text("dim=2 mu=0,0\ntrain\t3,4\ntrain\t0,1\ntrain\t0,2\nval_normal\t2,0\nval_anomalous\t5,0\n")
        out = tmp_path / "out"
        code = run(
            ["dist-hist", "--out", out, "--embeddings", emb, "--binning", "count:3",
             "--tracklets", "x", "--labels", "x", "--manifest", "x"]
        )
        assert code == 0
        assert (out / "hist_latent_train.csv").read_text() == (
            "bin_left,bin_right,count,split\n"
            "1.0,2.333333333333333,2,train\n"
            "2.333333333333333,3.6666666666666665,0,train\n"
            "3.6666666666666665,5.0,1,train\n"
        )

    @pytest.mark.parametrize("width", ["nan", "inf"])
    def test_non_finite_bin_width_is_refused(self, dataset, tmp_path, capsys, width):
        out = tmp_path / "out"
        code = run(["dist-hist", "--out", out, *data_args(dataset), "--binning", f"width:{width}"])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"].startswith(f"invalid binning spec 'width:{width}'")
        assert not out.exists()

    def test_embeddings_and_feature_conflict(self, tmp_path, capsys):
        emb = tmp_path / "emb.txt"
        emb.write_text("dim=2 mu=0,0\ntrain\t1,0\n")
        code = run(
            ["dist-hist", "--out", tmp_path / "o", "--embeddings", emb, "--feature", "pose",
             "--tracklets", "x", "--labels", "x", "--manifest", "x"]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "mutually exclusive" in err["error"]


class TestMetrics:
    def run_metrics(self, dataset, out, scores, *extra):
        return run(
            ["metrics", "--out", out, "--labels", dataset / "labels.csv",
             "--manifest", dataset / "manifest.json", "--scores", dataset / scores, *extra]
        )

    def test_perfect_oracle_auc_one(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert self.run_metrics(dataset, out, "scores_perfect.csv") == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["auc_roc"] == 1.0
        assert report["auc_pr"] == 1.0
        assert report["eer"] == 0.0
        assert (out / "roc.csv").exists() and (out / "pr.csv").exists()

    def test_curve_cells_are_numbers_and_runs_byte_identical(self, dataset, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self.run_metrics(dataset, out_a, "scores_distance.csv") == 0
        assert self.run_metrics(dataset, out_b, "scores_distance.csv") == 0
        for name in ("roc.csv", "pr.csv"):
            rows = (out_a / name).read_text().splitlines()[1:]
            assert rows
            for row in rows:
                cells = [float(cell) for cell in row.split(",")]
                assert len(cells) == 3
        for name in ("metrics.json", "roc.csv", "pr.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_random_oracle_mid_auc(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert self.run_metrics(dataset, out, "scores_random.csv") == 0
        report = json.loads((out / "metrics.json").read_text())
        assert 0.3 < report["auc_roc"] < 0.7

    def test_normality_polarity_flips_auc(self, dataset, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        self.run_metrics(dataset, out_a, "scores_distance.csv")
        self.run_metrics(dataset, out_b, "scores_distance.csv", "--polarity", "normality")
        auc_a = json.loads((out_a / "metrics.json").read_text())["auc_roc"]
        auc_b = json.loads((out_b / "metrics.json").read_text())["auc_roc"]
        assert auc_a + auc_b == pytest.approx(1.0, abs=1e-9)

    def test_per_video_average(self, dataset, tmp_path):
        out = tmp_path / "out"
        code = self.run_metrics(dataset, out, "scores_distance.csv", "--per-video-average")
        assert code == 0
        report = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= report["auc_roc"] <= 1.0

    @pytest.mark.parametrize("extra", [(), ("--per-video-average",)])
    def test_labeled_frames_without_a_score_are_counted(self, tmp_path, extra):
        (tmp_path / "labels.csv").write_text("".join(f"v1,{f},{f % 2}\n" for f in range(6)))
        (tmp_path / "scores.csv").write_text("v1,2,0.5\nv1,0,0.25\nv1,1,0.75\n")
        (tmp_path / "manifest.json").write_text(json.dumps({"v1": {"split": "val", "width": 64, "height": 48}}))
        out = tmp_path / "out"
        assert self.run_metrics(tmp_path, out, "scores.csv", *extra) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert (report["auc_roc"], report["n_pos"] + report["n_neg"], report["uncovered_frames"]) == (1.0, 3, 3)


@pytest.mark.parametrize("size", ['"wide"', "[1]", "1" + "0" * 400], ids=["text", "list", "huge-int"])
@pytest.mark.parametrize("command", ["validate", "metrics"])
def test_non_numeric_manifest_size_is_refused(tmp_path, capsys, size, command):
    (tmp_path / "labels.csv").write_text("v1,0,0\nv1,1,1\n")
    (tmp_path / "scores.csv").write_text("v1,0,0.25\nv1,1,0.75\n")
    (tmp_path / "tracklets.txt").write_text("")
    (tmp_path / "manifest.json").write_text(f'{{"v1": {{"split": "val", "width": {size}, "height": 48}}}}')
    files = {"--labels": "labels.csv", "--manifest": "manifest.json"}
    files.update({"--scores": "scores.csv"} if command == "metrics" else {"--tracklets": "tracklets.txt"})
    argv = [command, "--out", tmp_path / "out", *(a for flag, name in files.items() for a in (flag, tmp_path / name))]
    assert run(argv) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == "manifest entry for 'v1': width and height must be finite numbers"


class TestReport:
    def test_full_report(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run(["report", "--out", out, *data_args(dataset), "--binning", "count:8"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["features"]) == {"pose", "traj", "social"}
        assert (out / "hist_pose_train.csv").exists()

    def test_byte_deterministic(self, dataset, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["report", "--out", out_a, *data_args(dataset)])
        run(["report", "--out", out_b, *data_args(dataset)])
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


class TestErrorHandling:
    def test_missing_file_gives_json_error(self, tmp_path, capsys):
        code = run(
            ["sdom", "--out", tmp_path / "o", "--tracklets", tmp_path / "nope.txt",
             "--labels", tmp_path / "nope.csv", "--manifest", tmp_path / "nope.json"]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err

    def test_atomic_write_no_temp_left_behind(self, tmp_path):
        target = tmp_path / "sub" / "file.txt"
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"
        assert [p.name for p in target.parent.iterdir()] == ["file.txt"]

    def test_atomic_write_in_slices_keeps_every_byte(self, tmp_path):
        # three slices; a 4-byte character sits across the first boundary
        text = "a" * (_WRITE_CHARS - 1) + "\U0001f600é" + "b\n" * _WRITE_CHARS + "€"
        target = tmp_path / "big.txt"
        atomic_write_text(target, text)
        assert target.read_bytes() == text.encode("utf-8")


LAYERS = {"analysis", "features", "stats", "synth", "metrics"}


def loaded_layers(code):
    """The skelstat modules a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport sys; print(*(m for m in sys.modules if m.startswith('skelstat.')))"
    env = {**os.environ, "PYTHONPATH": str(Path(skelstat.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return {name.split(".", 1)[1] for name in proc.stdout.split()}


def test_import_loads_no_layer_module():
    assert loaded_layers("import skelstat.cli") & LAYERS == set()


@pytest.mark.parametrize("command, skipped", [
    ("metrics", {"analysis", "features", "stats", "synth"}),
    ("sdom", {"stats", "synth", "metrics"}),
    ("report", {"synth", "metrics"}),
])
def test_command_loads_only_its_layers(tmp_path, command, skipped):
    if command == "metrics":
        write_score_inputs(tmp_path)
        inputs = ["--scores", tmp_path / "scores.csv"]
    else:
        write_tracklet_inputs(tmp_path)
        inputs = ["--tracklets", tmp_path / "tracklets.txt", "--keypoints", 4, "--t", 4]
    argv = [command, "--out", tmp_path / "out", "--labels", tmp_path / "labels.csv",
            "--manifest", tmp_path / "manifest.json", *inputs]
    loaded = loaded_layers(f"from skelstat.cli import main; assert main({[str(a) for a in argv]!r}) == 0")
    assert loaded & LAYERS == LAYERS - skipped


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 10**7).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n), max_size=50))))
def test_rate_text_is_the_repr_of_each_rate(case):
    # a curve rate is a count over n; 0 and n are the curves' end points
    n, counts = case
    counts = [0, *counts, n]
    assert _distinct_text(np.array(counts) / n) == [repr(c / n) for c in counts]
