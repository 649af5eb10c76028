import json

import pytest

from skelstat.cli import atomic_write_text, main


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
