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

    @pytest.mark.parametrize("fraction, refused", [(0.001, True), (1 / 96, True), (1 / 48, False)])
    def test_anomaly_fraction_that_rounds_to_no_frame_is_refused(self, tmp_path, capsys, fraction, refused):
        # 48 frames: 1/96 rounds half to even, to no frame; 1/48 marks one frame per validation video
        out = tmp_path / "out"
        code = run(["synth", "--out", out, "--videos", 1, "--val-videos", 1, "--frames", 48, "--persons", 2,
                    "--keypoints", 4, "--anomaly-fraction", fraction, "--anomaly-mode", "traj-shift:100"])
        if refused:
            assert code == 1 and not out.exists()
            error = f"anomaly_fraction {fraction} rounds to 0 of 48 frames"
            assert json.loads(capsys.readouterr().err) == {"error": error}
        else:
            assert code == 0
            assert (out / "labels.csv").read_text().count(",1\n") == 1


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
            ["dist-hist", "--out", out, "--embeddings", emb, "--binning", "count:4"]
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
            ["dist-hist", "--out", out, "--embeddings", emb, "--binning", "count:3"]
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

    @pytest.mark.parametrize("command", ["dist-hist", "report"])
    @pytest.mark.parametrize("spec", ["width:1e-310", "count:4611686018427387904"])
    def test_bin_count_above_the_cap_is_refused(self, dataset, tmp_path, capsys, command, spec):
        out = tmp_path / "out"
        assert run([command, "--out", out, *data_args(dataset), "--binning", spec]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": f"binning {spec} needs more than 1000000 bins"}
        assert not out.exists()

    def test_width_below_the_float_spacing_is_refused(self, tmp_path, capsys):
        # one training vector: a split of one distance, so lo == hi and one bin
        emb = tmp_path / "emb.txt"
        emb.write_text("dim=2 mu=0,0\ntrain\t3,4\nval_normal\t2,0\nval_anomalous\t5,0\n")
        out = tmp_path / "out"
        code = run(
            ["dist-hist", "--out", out, "--embeddings", emb, "--binning", "width:1e-310"]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "binning width:1e-310 is below the float spacing of the distances"
        }
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["auto", "count:10"])
    def test_equal_distances_above_the_float_spacing_are_refused(self, tmp_path, capsys, spec):
        emb = tmp_path / "emb.txt"
        emb.write_text("dim=1 mu=0\n" + "train\t9007199254740992\n" * 3)  # three distances of 2^53
        out = tmp_path / "out"
        assert run(["dist-hist", "--out", out, "--embeddings", emb, "--binning", spec]) == 1
        error = f"binning {spec} is below the float spacing of the distances"
        assert capsys.readouterr().err == json.dumps({"error": error}) + "\n"
        assert not out.exists()

    def test_overflowing_latent_distance_is_one_json_line_on_stderr(self, tmp_path):
        # the squared distance of (1e200, 1e200) overflows; DistanceSeries refuses it without a numpy warning
        emb = tmp_path / "emb.txt"
        emb.write_text("dim=2 mu=0,0\ntrain\t1e200,1e200\n")
        argv = ["dist-hist", "--out", str(tmp_path / "out"), "--embeddings", str(emb)]
        proc = skelstat_child(["-m", "skelstat.cli", *argv])
        assert (proc.returncode, proc.stderr) == (1, '{"error": "distances must be finite and non-negative"}\n')

    @pytest.mark.parametrize("option", ["--tracklets", "--labels", "--manifest"])
    def test_embeddings_refuse_the_data_files(self, tmp_path, capsys, option):
        emb = tmp_path / "emb.txt"
        emb.write_text("dim=2 mu=0,0\ntrain\t1,0\n")
        out = tmp_path / "out"
        assert run(["dist-hist", "--out", out, "--embeddings", emb, option, tmp_path / "absent"]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": f"--embeddings and {option} are mutually exclusive"}
        assert not out.exists()

    @pytest.mark.parametrize("options, named", [
        (["--t", "5"], "--t"), (["--stride", "2"], "--stride"), (["--keypoints", "4"], "--keypoints"),
        (["--nodes", "3"], "--nodes"), (["--no-center"], "--no-center"), (["--truncate-social"], "--truncate-social"),
        # all of them: the refusal names the first in the order --t, --keypoints, --stride, --nodes, ...
        (["--nodes", "3", "--no-center", "--truncate-social", "--stride", "2", "--keypoints", "4", "--t", "5"], "--t"),
    ])
    def test_embeddings_refuse_the_windowing_options(self, tmp_path, capsys, options, named):
        emb = tmp_path / "emb.txt"
        emb.write_text("dim=2 mu=0,0\ntrain\t1,0\n")
        out = tmp_path / "out"
        assert run(["dist-hist", "--out", out, "--embeddings", emb, *options]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": f"--embeddings and {named} are mutually exclusive"}
        assert not out.exists()

    def test_embeddings_accept_windowing_options_at_their_defaults(self, tmp_path):
        # argparse cannot tell an option given at its default value from an absent one
        emb = tmp_path / "emb.txt"
        emb.write_text("dim=2 mu=0,0\ntrain\t1,0\n")
        defaults = ["--t", "24", "--stride", "6", "--keypoints", "17", "--nodes", "35"]
        assert run(["dist-hist", "--out", tmp_path / "out", "--embeddings", emb, *defaults]) == 0

    @pytest.mark.parametrize("option", ["--tracklets", "--labels", "--manifest"])
    def test_window_mode_requires_every_data_file(self, dataset, tmp_path, capsys, option):
        argv = data_args(dataset)
        at = argv.index(option)
        out = tmp_path / "out"
        assert run(["dist-hist", "--out", out, *argv[:at], *argv[at + 2:]]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": f"{option} is required without --embeddings"}
        assert not out.exists()

    def test_embeddings_and_feature_conflict(self, tmp_path, capsys):
        emb = tmp_path / "emb.txt"
        emb.write_text("dim=2 mu=0,0\ntrain\t1,0\n")
        code = run(
            ["dist-hist", "--out", tmp_path / "o", "--embeddings", emb, "--feature", "pose"]
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


OVERFLOW_ARGV = [
    ["windows", "--feature", "pose"], ["windows", "--feature", "traj"],
    ["windows", "--feature", "traj", "--no-center"], ["sdom"], ["dist-hist"],
]


def overflow_argv(tmp_path, argv):
    """``argv`` with --out and a k = 2 bundle whose training hips sit at x = 1.7e308:
    finite, but their sum is not."""
    kp = {"t": "1.7e308,0.0,1.0;1.7e308,0.0,1.0", "a": "1.0,2.0,1.0;3.0,2.0,1.0", "b": "5.0,6.0,1.0;9.0,6.0,1.0"}
    (tmp_path / "tracklets.txt").write_text("".join(f"{v}\t{f}\tp\t{p}\n" for v, p in kp.items() for f in range(24)))
    (tmp_path / "labels.csv").write_text("".join(f"{v},{f},{int(v == 'b')}\n" for v in "ab" for f in range(24)))
    manifest = {v: {"split": "train" if v == "t" else "val", "width": 100, "height": 50} for v in kp}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    files = ["--tracklets", tmp_path / "tracklets.txt", "--labels", tmp_path / "labels.csv",
             "--manifest", tmp_path / "manifest.json"]
    return [str(a) for a in (argv[0], "--out", tmp_path / "out", *argv[1:], "--keypoints", 2, *files)]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the midpoint overflows without a warning
@pytest.mark.parametrize("argv", OVERFLOW_ARGV)
def test_finite_keypoints_whose_hip_midpoint_overflows_are_refused(tmp_path, capsys, argv):
    assert run(overflow_argv(tmp_path, argv)) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "window coordinates must be finite"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", OVERFLOW_ARGV)
def test_overflow_refusal_is_one_json_line_on_stderr(tmp_path, argv):
    proc = skelstat_child(["-m", "skelstat.cli", *overflow_argv(tmp_path, argv)])
    assert (proc.returncode, proc.stderr) == (1, '{"error": "window coordinates must be finite"}\n')


@pytest.mark.parametrize("option, value", [("--t", 2**63), ("--stride", 2**63), ("--nodes", 2**62)])
def test_window_parameter_above_the_cap_is_refused(dataset, tmp_path, capsys, option, value):
    out = tmp_path / "out"
    assert run(["sdom", "--out", out, *data_args(dataset), "--feature", "social", option, value]) == 1
    name = {"--t": "T", "--stride": "stride", "--nodes": "N"}[option]
    assert json.loads(capsys.readouterr().err) == {"error": f"{name} must be <= 1000000, got {value}"}
    assert not out.exists()


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

    def test_output_path_that_is_a_directory_is_named_alone(self, dataset, tmp_path, capsys):
        # the refusal names the output path, not the temp file it removed
        out = tmp_path / "out"
        (out / "sdom.json").mkdir(parents=True)
        assert run(["sdom", "--out", out, *data_args(dataset)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": f"[Errno 21] Is a directory: '{out / 'sdom.json'}'"}
        assert [p.name for p in out.iterdir()] == ["sdom.json"]

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


def skelstat_child(args, **env):
    """Run ``python args`` in a fresh interpreter that finds this skelstat; each
    ``env`` entry sets that variable, or unsets it when None."""
    env = {**os.environ, "PYTHONPATH": str(Path(skelstat.__file__).parents[1]), **env}
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def loaded_modules(code):
    """The modules a fresh interpreter holds after running ``code``."""
    proc = skelstat_child(["-c", code + "\nimport sys; print(*sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def layers(modules):
    return {name.split(".", 1)[1] for name in modules if name.startswith("skelstat.")}


def test_import_loads_no_layer_module():
    assert layers(loaded_modules("import skelstat.cli")) & LAYERS == set()


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
    loaded = loaded_modules(f"from skelstat.cli import main; assert main({[str(a) for a in argv]!r}) == 0")
    assert layers(loaded) & LAYERS == LAYERS - skipped
    assert "numpy.ma" not in loaded  # numpy 2.4's np.unique without flags imports it


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts the threads in /proc/self/task")
@pytest.mark.parametrize("value", [None, "2"])
def test_import_pins_openblas_to_one_thread_unless_the_caller_sets_it(value):
    if value == "2" and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts no more threads than there are cores")
    probe = "import os, skelstat; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
    proc = skelstat_child(["-c", probe], OPENBLAS_NUM_THREADS=value)
    assert proc.stdout.split() == (["1", "None"] if value is None else ["2", "2"])


def test_large_embedding_distances_do_not_depend_on_the_blas_threads(tmp_path):
    # 12000 values a row: OpenBLAS splits a dot product over 10^4 values across its threads
    rng = np.random.default_rng(3)
    rows = [f"dim=12000 mu={','.join(map(repr, rng.normal(size=12000).tolist()))}"]
    for split in ["train"] * 10 + ["val_normal"] * 10 + ["val_anomalous"] * 10:
        vector = rng.normal(loc=2.0 if split == "val_anomalous" else 0.0, size=12000)
        rows.append(f"{split}\t{','.join(map(repr, vector.tolist()))}")
    (tmp_path / "emb.txt").write_text("\n".join(rows) + "\n")
    outputs = []
    for value in (None, "1"):
        out = tmp_path / f"out_{value}"
        proc = skelstat_child(["-m", "skelstat.cli", "dist-hist", "--out", str(out), "--embeddings",
                               str(tmp_path / "emb.txt")], OPENBLAS_NUM_THREADS=value)
        assert proc.returncode == 0, proc.stderr
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert outputs[0] == outputs[1]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 10**7).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n), max_size=50))))
def test_rate_text_is_the_repr_of_each_rate(case):
    # a curve rate is a count over n; 0 and n are the curves' end points
    n, counts = case
    counts = [0, *counts, n]
    assert _distinct_text(np.array(counts) / n) == [repr(c / n) for c in counts]
