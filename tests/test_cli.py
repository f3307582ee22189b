import glob
import math
import os
import re
import shutil

import click
import numpy as np
import pytest

from qseed import hitgraph, training, ttn
from qseed.cli import cli, main, read_config_file
from qseed.errors import UsageError


def run(args):
    return main([str(a) for a in args])


def _config_file(tmp_path, args):
    """A config file that sets the options of the flag list `args`."""
    cfg = tmp_path / "c.txt"
    cfg.write_text("".join(f"{k[2:].replace('-', '_')}={v}\n" for k, v in zip(args[::2], args[1::2])))
    return cfg


@pytest.fixture
def events_dir(tmp_path):
    out = tmp_path / "events"
    assert run(["gen", "--out", out, "--events", "2", "--tracks", "10", "--noise", "8", "--seed", "7"]) == 0
    return out


@pytest.fixture
def subgraphs_dir(tmp_path, events_dir):
    out = tmp_path / "subgraphs"
    code = run([
        "preprocess", "--in", events_dir, "--out", out,
        "--pt-min", "0.1", "--dphi-max", "0.5", "--z0-max", "100000", "--eta-min", "-6", "--eta-max", "6",
    ])
    assert code == 0
    return out


PT_BOUND_MESSAGE = (
    "pt_range must not exceed 60000.0 GeV at b_field 2.0 T: "
    "a larger bending radius than 1e+08 mm puts hits off their layers"
)


class TestGen:
    def test_byte_stable_across_reruns(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(["gen", "--out", out, "--events", "2", "--tracks", "50", "--seed", "7"]) == 0
            outs.append(out)
        for f in sorted(os.listdir(outs[0])):
            if f.endswith(".csv"):
                assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()

    def test_zero_events_usage_error(self, tmp_path):
        assert run(["gen", "--out", tmp_path / "x", "--events", "0"]) == 1
        cfg = tmp_path / "c.txt"
        cfg.write_text("events=0\n")
        assert run(["gen", "--out", tmp_path / "y", "--config", cfg]) == 1
        assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--b-field", "0"], "b_field must be finite and positive"),
            (["--b-field", "inf"], "b_field must be finite and positive"),
            (["--b-field", "nan"], "b_field must be finite and positive"),
            (["--pt-min", "0.3", "--pt-max", "0.4", "--b-field", "-2"], "b_field must be finite and positive"),
            (["--z0-spread", "-1"], "z0_spread must be finite and non-negative"),
            (["--z0-spread", "nan"], "z0_spread must be finite and non-negative"),
            (["--z0-spread", "inf"], "z0_spread must be finite and non-negative"),
            (["--smear", "-1"], "smear_sigma must be finite and non-negative"),
            (["--pt-min", "nan"], "pt_range must be finite, positive and ordered"),
            (["--pt-max", "inf"], "pt_range must be finite, positive and ordered"),
            (["--tracks", "-1"], "counts must be non-negative"),
            (["--pt-max", "1e308"], PT_BOUND_MESSAGE),
            (["--pt-max", "1e12"], PT_BOUND_MESSAGE),
            (["--pt-max", "1e7", "--b-field", "100"], PT_BOUND_MESSAGE.replace("60000.0", "3000000.0").replace("2.0 T", "100.0 T")),
        ],
    )
    def test_bad_generator_value_usage_error(self, tmp_path, capsys, args, message):
        assert run(["gen", "--out", tmp_path / "x", *args]) == 1
        assert run(["gen", "--out", tmp_path / "y", "--config", _config_file(tmp_path, args)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n" * 2
        assert not list(tmp_path.rglob("*.csv"))
        assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()

    def test_noise_rows(self, tmp_path):
        out = tmp_path / "g"
        assert run(["gen", "--out", out, "--tracks", "50", "--noise", "100", "--seed", "1"]) == 0
        truth = (out / "event000000001-truth.csv").read_text().splitlines()[1:]
        noise_rows = [line for line in truth if line.endswith(",0")]
        assert len(noise_rows) == 100
        hits = (out / "event000000001-hits.csv").read_text().splitlines()[1:]
        assert len(hits) == len(truth)

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "g"
        assert run(["gen", "--out", out, "--seed", "3"]) == 0
        cfg = read_config_file(str(out / "gen_manifest.txt"))
        assert cfg["seed"] == "3"
        assert cfg["command"] == "gen"


class TestPreprocess:
    def test_sixteen_dirs_per_event(self, subgraphs_dir):
        dirs = glob.glob(str(subgraphs_dir / "evt*_s*"))
        assert len(dirs) == 32  # 2 events x 16

    def test_missing_input(self, tmp_path):
        assert run(["preprocess", "--in", tmp_path / "none", "--out", tmp_path / "o"]) == 2

    def test_empty_event_warns(self, tmp_path, capsys):
        out = tmp_path / "e"
        assert run(["gen", "--out", out, "--events", "1", "--tracks", "0", "--noise", "0"]) == 0
        sub = tmp_path / "s"
        assert run(["preprocess", "--in", out, "--out", sub]) == 0
        assert "no barrel hits" in capsys.readouterr().out
        assert len(glob.glob(str(sub / "evt*_s*"))) == 16

    def test_pt_mode_filter_keeps_noise_and_high_pt_hits(self, tmp_path, capsys):
        events = tmp_path / "ev"
        assert run([
            "gen", "--out", events, "--tracks", "40", "--noise", "30", "--seed", "5",
            "--pt-min", "0.5", "--pt-max", "3",
        ]) == 0

        def rows(name):
            text = (events / f"event000000001-{name}.csv").read_text()
            return [line.split(",") for line in text.splitlines()[1:]]

        pt = {int(p): math.hypot(float(px), float(py)) for p, px, py, _ in rows("particles")}
        truth = [int(p) for _, p in rows("truth")]
        expected = sum(p == 0 or pt[p] > 1.5 for p in truth)
        assert 0 < truth.count(0) < expected < len(truth)
        capsys.readouterr()
        assert run(["preprocess", "--in", events, "--out", tmp_path / "s", "--pt-mode", "filter", "--pt-min", "1.5"]) == 0
        assert f"event 1: {expected} hits kept," in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--pt-min", "0"], "cut values must be positive"),
            (["--pt-min", "nan"], "cut values must be positive"),
            (["--dphi-max", "nan"], "cut values must be positive"),
            (["--z0-max", "nan"], "cut values must be positive"),
            (["--eta-min", "1", "--eta-max", "0"], "eta_range must be an increasing pair"),
            (["--eta-min", "nan"], "eta_range must be an increasing pair"),
            (["--eta-max", "nan"], "eta_range must be an increasing pair"),
        ],
    )
    def test_bad_cut_value_usage_error(self, tmp_path, events_dir, capsys, args, message):
        capsys.readouterr()
        assert run(["preprocess", "--in", events_dir, "--out", tmp_path / "x", *args]) == 1
        cfg = _config_file(tmp_path, args)
        assert run(["preprocess", "--in", events_dir, "--out", tmp_path / "y", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {message}\n" * 2
        assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()

    @pytest.mark.parametrize("option", ["--z0-max", "--dphi-max"])
    def test_infinite_cut_is_no_cut(self, tmp_path, events_dir, option):
        """+inf passes every doublet, as a finite cut too wide to bind does."""
        assert run(["preprocess", "--in", events_dir, "--out", tmp_path / "inf", option, "inf"]) == 0
        assert run(["preprocess", "--in", events_dir, "--out", tmp_path / "wide", option, "1e300"]) == 0
        assert _outputs(tmp_path / "inf") == _outputs(tmp_path / "wide")

    def test_bad_hits_file_name_is_data_error(self, tmp_path, events_dir, capsys):
        bad = events_dir / "eventfoo-hits.csv"
        bad.write_bytes((events_dir / "event000000001-hits.csv").read_bytes())
        capsys.readouterr()
        assert run(["preprocess", "--in", events_dir, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"error: {bad}: file name not of the form event<ID>-hits.csv\n"
        assert not (tmp_path / "o").exists()

    def test_two_files_of_one_event_are_data_error(self, tmp_path, events_dir, capsys):
        first = events_dir / "event000000001-hits.csv"
        for suffix in ("hits", "particles", "truth"):
            (events_dir / f"event01-{suffix}.csv").write_bytes((events_dir / f"event000000001-{suffix}.csv").read_bytes())
        capsys.readouterr()
        assert run(["preprocess", "--in", events_dir, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"error: {first} and {events_dir / 'event01-hits.csv'} are both event 1\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_coordinate_is_data_error(self, tmp_path, events_dir, capsys, cell):
        hits = events_dir / "event000000001-hits.csv"
        lines = hits.read_text().splitlines()
        fields = lines[3].split(",")
        fields[1] = cell  # x of the third hit
        lines[3] = ",".join(fields)
        hits.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["preprocess", "--in", events_dir, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert f"event000000001-hits.csv:4: non-finite value '{cell}' in column 'x'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("hit_id", ["1", "9223372036854775808", "1.5"])
    def test_repeated_or_bad_hit_id_is_data_error(self, tmp_path, events_dir, capsys, hit_id):
        hits = events_dir / "event000000001-hits.csv"
        lines = hits.read_text().splitlines()
        fields = lines[3].split(",")
        fields[0] = hit_id  # the third hit; "1" repeats the first
        lines[3] = ",".join(fields)
        hits.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["preprocess", "--in", events_dir, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "event000000001-hits.csv:4: " in err
        assert ("repeated hit_id 1" if hit_id == "1" else f"value '{hit_id}' in column 'hit_id'") in err
        assert "Traceback" not in err

    def test_non_utf8_event_file_is_data_error(self, tmp_path, events_dir, capsys):
        hits = events_dir / "event000000001-hits.csv"
        lines = hits.read_bytes().split(b"\n")
        lines[3] = b"\xff" + lines[3]
        data = b"\n".join(lines)
        hits.write_bytes(data)
        capsys.readouterr()
        assert run(["preprocess", "--in", events_dir, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            f"error: {hits}:4: not UTF-8 text (invalid start byte at byte {data.index(0xFF)})\n"
        )

    def test_failed_later_event_removes_written_subgraphs(self, tmp_path, events_dir, capsys):
        hits = events_dir / "event000000002-hits.csv"
        lines = hits.read_text().splitlines()
        lines[2] = ",".join(["x", *lines[2].split(",")[1:]])
        hits.write_text("\n".join(lines) + "\n")
        out = tmp_path / "s"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        capsys.readouterr()
        assert run(["preprocess", "--in", events_dir, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {hits}:3: non-integer value 'x' in column 'hit_id'\n"
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
        assert run(["train", "--data", out, "--out", tmp_path / "m"]) == 2
        assert not (tmp_path / "m").exists()

    def test_over_long_field_is_data_error(self, tmp_path, events_dir, capsys):
        hits = events_dir / "event000000001-hits.csv"
        lines = hits.read_text().splitlines()
        lines[2] += "," + "x" * 131073  # an extra, unread field on line 3
        hits.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["preprocess", "--in", events_dir, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"error: {hits}:3: field larger than field limit (131072)\n"

    def test_ids_beyond_2_53_stay_distinct(self, tmp_path, capsys):
        # As floats both ids read 22525763437723648: one particle, a true edge.
        a, b = 22525763437723648, 22525763437723649
        events = tmp_path / "ev"
        events.mkdir()
        (events / "event000000001-hits.csv").write_text(
            f"hit_id,x,y,z,volume_id,layer_id\n{a},32.0,0.0,0.0,8,2\n{b},72.0,0.0,0.0,8,4\n"
        )
        (events / "event000000001-particles.csv").write_text(
            f"particle_id,px,py,pz\n{a},2.0,0.0,0.0\n{b},2.0,0.0,0.0\n"
        )
        (events / "event000000001-truth.csv").write_text(f"hit_id,particle_id\n{a},{a}\n{b},{b}\n")
        capsys.readouterr()
        assert run(["preprocess", "--in", events, "--out", tmp_path / "s"]) == 0
        assert "2 hits kept, 1 doublets (0 true / 1 fake), 0 cross-sector dropped" in capsys.readouterr().out
        assert (tmp_path / "s" / "evt1_s41" / "edges.csv").read_text() == "src,dst,label\n0,1,0\n"


class TestTrain:
    def test_outputs_and_zero_lr(self, tmp_path, subgraphs_dir):
        out = tmp_path / "model0"
        assert run(["train", "--data", subgraphs_dir, "--out", out, "--epochs", "1", "--lr", "0", "--seed", "5"]) == 0
        assert (out / "model.txt").exists()
        epochs = (out / "epochs.csv").read_text().splitlines()
        assert len(epochs) == 2
        # lr 0 leaves the init parameters untouched
        from qseed import ttn

        params, _, meta = ttn.load_model(str(out / "model.txt"))
        import numpy as np

        assert np.array_equal(params.thetas, ttn.init_params(int(meta["seed"])).thetas)

    def test_rerun_same_seed_identical(self, tmp_path, subgraphs_dir):
        outs = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            assert run(["train", "--data", subgraphs_dir, "--out", out, "--epochs", "1", "--lr", "0.05", "--seed", "9"]) == 0
            outs.append(out)
        for f in ("updates.csv", "epochs.csv", "model.txt"):
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()

    def test_manifest_rerun_reproduces(self, tmp_path, subgraphs_dir):
        out1 = tmp_path / "m1"
        assert run(["train", "--data", subgraphs_dir, "--out", out1, "--epochs", "1", "--lr", "0.03", "--seed", "17"]) == 0
        out2 = tmp_path / "m2"
        assert run(["train", "--data", subgraphs_dir, "--out", out2, "--config", out1 / "train_manifest.txt"]) == 0
        assert (out1 / "updates.csv").read_bytes() == (out2 / "updates.csv").read_bytes()
        assert (out1 / "model.txt").read_bytes() == (out2 / "model.txt").read_bytes()

    def test_manifest_rerun_with_hash_in_data_path(self, tmp_path, subgraphs_dir):
        """The manifest's data=<dir>#1 line keeps its '#': the rerun reads
        <dir>#1, not the other data set at <dir>."""
        data = tmp_path / "d#1"
        shutil.copytree(subgraphs_dir, data)
        for path in sorted(subgraphs_dir.glob("evt1_*")):
            shutil.copytree(path, tmp_path / "d" / path.name)
        first, again = tmp_path / "m1", tmp_path / "m2"
        assert run(["train", "--data", data, "--out", first, "--epochs", "1", "--lr", "0.05"]) == 0
        assert read_config_file(str(first / "train_manifest.txt"))["data"] == str(data)
        assert run(["train", "--out", again, "--config", first / "train_manifest.txt"]) == 0
        assert _outputs(again) == _outputs(first)

    @pytest.mark.parametrize("name", [" sg", "sg "])
    def test_manifest_rerun_with_blank_around_data_path(self, tmp_path, subgraphs_dir, monkeypatch, name):
        """The manifest's `data= sg` line keeps its blank: the rerun reads
        ` sg`, not the other data set at `sg`."""
        monkeypatch.chdir(tmp_path)
        shutil.copytree(subgraphs_dir, name)
        for path in sorted(subgraphs_dir.glob("evt1_*")):
            shutil.copytree(path, tmp_path / "sg" / path.name)
        assert run(["train", "--data", name, "--out", "m1", "--epochs", "1", "--lr", "0.05"]) == 0
        assert read_config_file("m1/train_manifest.txt")["data"] == name
        assert run(["train", "--out", "m2", "--config", "m1/train_manifest.txt"]) == 0
        assert _outputs(tmp_path / "m2") == _outputs(tmp_path / "m1")

    def test_bad_config_value(self, tmp_path, subgraphs_dir):
        assert run(["train", "--data", subgraphs_dir, "--out", tmp_path / "x", "--split-ratio", "1.5"]) == 1

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_epochs_below_one_usage_error(self, tmp_path, subgraphs_dir, capsys, epochs):
        assert run(["train", "--data", subgraphs_dir, "--out", tmp_path / "x", "--epochs", epochs]) == 1
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"data={subgraphs_dir}\nepochs={epochs}\n")
        assert run(["train", "--out", tmp_path / "y", "--config", cfg]) == 1
        assert "--epochs" in capsys.readouterr().err
        assert not (tmp_path / "x" / "model.txt").exists() and not (tmp_path / "y" / "model.txt").exists()


    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_usage_error(self, tmp_path, subgraphs_dir, capsys, lr):
        assert run(["train", "--data", subgraphs_dir, "--out", tmp_path / "x", "--lr", lr]) == 1
        err = capsys.readouterr().err
        assert "learning_rate must be finite and non-negative" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x" / "model.txt").exists()

    def test_divergence_is_numeric_error(self, tmp_path, capsys):
        events, data = tmp_path / "ev", tmp_path / "sub"
        assert run(["gen", "--out", events, "--events", "2", "--tracks", "50", "--noise", "100", "--seed", "7"]) == 0
        assert run(["preprocess", "--in", events, "--out", data]) == 0
        capsys.readouterr()
        assert run(["train", "--data", data, "--out", tmp_path / "m", "--lr", "1e308"]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: subgraph evt\d+_s\d\d: the update gives non-finite parameters \(learning rate 1e\+308\)\n", err
        )
        assert not (tmp_path / "m").exists()

    def test_test_split_without_edges_has_no_validation_metrics(self, tmp_path, capsys):
        events, data, out = tmp_path / "ev", tmp_path / "sub", tmp_path / "m"
        assert run(["gen", "--out", events, "--events", "1", "--tracks", "2", "--seed", "3"]) == 0
        assert run(["preprocess", "--in", events, "--out", data]) == 0
        graphs = [hitgraph.read_subgraph(p) for p in sorted(glob.glob(str(data / "evt*_s*")))]
        _, test_set = training.split_dataset(graphs, 0.9, 2)  # the split seed of --seed 1
        assert not any(g.edges for g in test_set)
        capsys.readouterr()
        assert run(["train", "--data", data, "--out", out, "--epochs", "2", "--seed", "1"]) == 0
        stdout = capsys.readouterr().out
        rows = (out / "epochs.csv").read_text().splitlines()
        assert rows[0] == "epoch,train_loss,purity,efficiency,accuracy"
        assert [re.fullmatch(r"(\d+),([^,]+),,,", row).group(1) for row in rows[1:]] == ["0", "1"]
        assert stdout.count("val_accuracy=n/a") == 2

    def test_no_subgraph_directories_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "empty"
        data.mkdir()
        assert run(["train", "--data", data, "--out", tmp_path / "m"]) == 2
        assert capsys.readouterr().err == f"error: no subgraph directories under {data}\n"
        assert not (tmp_path / "m").exists()


class TestEvalPredict:
    @pytest.fixture
    def model_dir(self, tmp_path, subgraphs_dir):
        out = tmp_path / "model"
        assert run(["train", "--data", subgraphs_dir, "--out", out, "--epochs", "1", "--lr", "0.05", "--seed", "2"]) == 0
        return out

    def test_eval_analytic(self, tmp_path, subgraphs_dir, model_dir):
        out = tmp_path / "eval"
        assert run(["eval", "--data", subgraphs_dir, "--model", model_dir / "model.txt", "--out", out]) == 0
        text = (out / "metrics.txt").read_text()
        assert "purity=" in text and "efficiency=" in text

    def test_eval_shots_reproducible(self, tmp_path, subgraphs_dir, model_dir):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert run([
                "eval", "--data", subgraphs_dir, "--model", model_dir / "model.txt",
                "--out", out, "--shots", "1000", "--shot-seed", "3",
            ]) == 0
            outs.append(out)
        assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()

    def test_missing_model(self, tmp_path, subgraphs_dir):
        code = run(["eval", "--data", subgraphs_dir, "--model", tmp_path / "none.txt", "--out", tmp_path / "o"])
        assert code == 2

    def test_eval_without_edges_is_data_error(self, tmp_path, subgraphs_dir, capsys):
        events, empty = tmp_path / "ev0", tmp_path / "sub0"
        assert run(["gen", "--out", events, "--tracks", "0", "--noise", "0"]) == 0
        assert run(["preprocess", "--in", events, "--out", empty]) == 0
        model = _model_file(tmp_path, subgraphs_dir)
        capsys.readouterr()
        assert run(["eval", "--data", empty, "--model", model, "--out", tmp_path / "e"]) == 2
        assert capsys.readouterr().err == "error: no edges to evaluate\n"
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_negative_shots_usage_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.txt"
        cfg.write_text("shots=-5\n")
        args = [command, "--data", tmp_path / "d", "--model", tmp_path / "m.txt", "--out", tmp_path / "o"]
        assert run([*args, "--shots", "-5"]) == 1
        assert run([*args, "--config", cfg]) == 1
        assert capsys.readouterr().err.count("'--shots': -5 is not in the range") == 2

    @pytest.mark.parametrize("shots", [10**12, 2**63 - 1])
    def test_huge_shot_count(self, tmp_path, subgraphs_dir, model_dir, shots):
        """Any count up to 2**63 - 1 is one binomial draw per edge, whose
        estimate lies within a few standard errors of the analytic one."""
        flags = ["--data", subgraphs_dir, "--model", model_dir / "model.txt"]
        assert run(["eval", *flags, "--out", tmp_path / "e", "--shots", shots]) == 0
        assert run(["predict", *flags, "--out", tmp_path / "s", "--shots", shots]) == 0
        assert run(["predict", *flags, "--out", tmp_path / "a"]) == 0
        read = lambda out: [float(x.rsplit(",", 1)[1]) for x in (out / "predictions.csv").read_text().splitlines()[1:]]
        estimates, exact = read(tmp_path / "s"), read(tmp_path / "a")
        assert len(estimates) == len(exact) > 0
        assert max(abs(a - b) for a, b in zip(estimates, exact)) < 1e-5

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_shot_count_above_int64_usage_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"shots={2**63}\n")
        args = [command, "--data", tmp_path / "d", "--model", tmp_path / "m.txt", "--out", tmp_path / "o"]
        assert run([*args, "--shots", 2**63]) == 1
        assert run([*args, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count(f"'--shots': {2**63} is not in the range 0<=x<={2**63 - 1}.") == 2
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_bad_model_file_is_data_error(self, tmp_path, subgraphs_dir, capsys):
        model = tmp_path / "model.txt"
        ttn.save_model(str(model), ttn.init_params(0), ttn.FeatureScaler(np.zeros(6), np.ones(6)), 0)
        lines = model.read_text().splitlines()
        lines[lines.index("[params]") + 1] = "nan"
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["eval", "--data", subgraphs_dir, "--model", model, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "model.txt: parameters must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["nodes.csv", "edges.csv"])
    def test_empty_subgraph_csv_is_data_error(self, tmp_path, subgraphs_dir, capsys, name):
        model = tmp_path / "model.txt"
        ttn.save_model(str(model), ttn.init_params(0), ttn.FeatureScaler(np.zeros(6), np.ones(6)), 0)
        truncated = sorted(subgraphs_dir.glob("evt*_s*"))[-1] / name
        truncated.write_text("")
        capsys.readouterr()
        assert run(["eval", "--data", subgraphs_dir, "--model", model, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {truncated}:1: missing header\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "name, row, message",
        [
            ("nodes.csv", "1,2.0,x,3.0", "could not convert string to float: 'x'"),
            ("nodes.csv", "2,2.0,0.25,3.0", "local_id 2 out of order"),
            ("nodes.csv", "1,inf,0.25,3.0", "non-finite value 'inf' in column 'r'"),
            ("nodes.csv", "1,2.0,nan,3.0", "non-finite value 'nan' in column 'phi'"),
            ("nodes.csv", "1,2.0,0.25,-inf", "non-finite value '-inf' in column 'z'"),
            ("edges.csv", "0,2,1", "edge endpoint out of range"),
            ("edges.csv", "0,1,2", "label must be 0 or 1"),
        ],
    )
    def test_bad_subgraph_row_is_data_error(self, tmp_path, subgraphs_dir, capsys, name, row, message):
        """A two-node, two-edge subgraph whose file `name` has `row` as its line 3."""
        model = _model_file(tmp_path, subgraphs_dir)
        graph = sorted(subgraphs_dir.glob("evt*_s*"))[-1]
        files = {
            "nodes.csv": ["local_id,r,phi,z", "0,1.0,0.5,-2.0", "1,2.0,0.25,3.0"],
            "edges.csv": ["src,dst,label", "1,0,0", "0,1,1"],
        }
        files[name][2] = row
        for file, lines in files.items():
            (graph / file).write_text("\n".join(lines) + "\n")
        path = graph / name
        capsys.readouterr()
        for command in ("eval", "predict"):
            assert run([command, "--data", subgraphs_dir, "--model", model, "--out", tmp_path / command]) == 2
            assert capsys.readouterr().err == f"error: {path}:3: {message}\n"
            assert not (tmp_path / command).exists()

    def test_non_utf8_subgraph_is_data_error(self, tmp_path, subgraphs_dir, capsys):
        model = _model_file(tmp_path, subgraphs_dir)
        nodes = sorted(subgraphs_dir.glob("evt*_s*"))[-1] / "nodes.csv"
        data = b"local_id,r,phi,z\n0,1.0,0.5,-2.0\n1,2.0,\xe9,3.0\n"
        nodes.write_bytes(data)
        capsys.readouterr()
        assert run(["predict", "--data", subgraphs_dir, "--model", model, "--out", tmp_path / "p"]) == 2
        offset = data.index(0xE9)
        assert capsys.readouterr().err == (
            f"error: {nodes}:3: not UTF-8 text (invalid continuation byte at byte {offset})\n"
        )
        assert not (tmp_path / "p").exists()

    def test_non_utf8_model_file_is_data_error(self, tmp_path, subgraphs_dir, capsys):
        model = _model_file(tmp_path, subgraphs_dir)
        data = model.read_bytes() + b"note=\xff\n"
        model.write_bytes(data)
        capsys.readouterr()
        assert run(["predict", "--data", subgraphs_dir, "--model", model, "--out", tmp_path / "p"]) == 2
        line, offset = data.count(b"\n"), data.index(0xFF)
        assert capsys.readouterr().err == f"error: {model}:{line}: not UTF-8 text (invalid start byte at byte {offset})\n"
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: ["0.0 1.0"] + lines, ":1: content before any section header"),
            (lambda lines: [x for i, x in enumerate(lines) if i != lines.index("[params]") + 1],
             ": expected 11 parameter lines, got 10"),
            (lambda lines: lines[:-1] + ["layout=ttn-v2"], ": unsupported layout tag 'ttn-v2'"),
            (lambda lines: lines[:1] + ["-inf inf"] + lines[2:], ": scaler bounds must be finite"),
            # [meta] is line 20, after the 6 scaler and 11 parameter lines
            (lambda lines: ["[metadata]" if x == "[meta]" else x for x in lines],
             ":20: unknown section '[metadata]'"),
        ],
        ids=["before-header", "param-count", "layout-tag", "infinite-scaler", "unknown-section"],
    )
    def test_malformed_model_file_is_data_error(self, tmp_path, subgraphs_dir, capsys, edit, message):
        model = _model_file(tmp_path, subgraphs_dir)
        model.write_text("\n".join(edit(model.read_text().splitlines())) + "\n")
        capsys.readouterr()
        assert run(["predict", "--data", subgraphs_dir, "--model", model, "--out", tmp_path / "p"]) == 2
        assert capsys.readouterr().err == f"error: {model}{message}\n"
        assert not (tmp_path / "p").exists()

    def test_predict(self, tmp_path, subgraphs_dir, model_dir):
        out = tmp_path / "pred"
        assert run(["predict", "--data", subgraphs_dir, "--model", model_dir / "model.txt", "--out", out]) == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "subgraph,src,dst,label,pred"
        assert len(lines) > 1
        for line in lines[1:]:
            pred = float(line.rsplit(",", 1)[1])
            assert 0.0 <= pred <= 1.0

    @pytest.mark.parametrize("shots", [[], ["--shots", "100", "--shot-seed", "3"]], ids=["analytic", "shots"])
    def test_prediction_cells_are_float_reprs(self, tmp_path, subgraphs_dir, model_dir, shots):
        """Each pred cell is the repr of a Python float: a numpy scalar's
        repr (`np.float64(0.5)`) would change the file."""
        out = tmp_path / "pred"
        assert run(["predict", "--data", subgraphs_dir, "--model", model_dir / "model.txt", *shots, "--out", out]) == 0
        cells = [line.rsplit(",", 1)[1] for line in (out / "predictions.csv").read_text().splitlines()[1:]]
        assert cells and all(repr(float(cell)) == cell for cell in cells)

    def test_predict_shots_match_eval_counts(self, tmp_path, subgraphs_dir, model_dir):
        flags = ["--data", subgraphs_dir, "--model", model_dir / "model.txt", "--shots", "100", "--shot-seed", "3"]
        assert run(["eval", *flags, "--out", tmp_path / "e"]) == 0
        assert run(["predict", *flags, "--out", tmp_path / "p"]) == 0
        counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        for line in (tmp_path / "p" / "predictions.csv").read_text().splitlines()[1:]:
            *_, label, pred = line.split(",")
            predicted = float(pred) >= 0.5
            counts[("t" if predicted == (label == "1") else "f") + ("p" if predicted else "n")] += 1
        header, values = (tmp_path / "e" / "metrics.csv").read_text().splitlines()
        metrics = dict(zip(header.split(","), values.split(",")))
        assert counts == {k: int(metrics[k]) for k in counts}
        assert counts["tp"] + counts["fn"] > 0 and counts["fp"] + counts["tn"] > 0


class TestConfigFile:
    def test_precedence_flags_over_file(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("# comment\ntracks=5\nseed=1\n")
        out = tmp_path / "o"
        assert run(["gen", "--out", out, "--config", cfg, "--tracks", "9"]) == 0
        manifest = read_config_file(str(out / "gen_manifest.txt"))
        assert manifest["tracks"] == "9"
        assert manifest["seed"] == "1"

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("tracks 5\n")
        assert run(["gen", "--out", tmp_path / "o", "--config", cfg]) == 1

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        data = b"# comment\ntracks=5\nseed=\xff\n"
        cfg.write_bytes(data)
        assert run(["gen", "--out", tmp_path / "o", "--config", cfg]) == 1
        offset = data.index(0xFF)
        assert capsys.readouterr().err == f"error: {cfg}:3: not UTF-8 text (invalid start byte at byte {offset})\n"
        assert not (tmp_path / "o").exists()

    def test_missing_config(self, tmp_path):
        assert run(["gen", "--out", tmp_path / "o", "--config", tmp_path / "none.txt"]) == 1

    def test_config_directory_is_usage_error(self, tmp_path, capsys):
        assert run(["gen", "--out", tmp_path / "o", "--config", tmp_path]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, command", [("data", "train"), ("in", "preprocess"), ("out", "gen"), ("model", "eval")]
    )
    def test_nul_byte_in_path_value_is_usage_error(self, tmp_path, capsys, key, command):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"# paths\n{key}=a\0b\n")
        out = [] if key == "out" else ["--out", tmp_path / "o"]
        assert run([command, "--config", cfg, *out]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: line holds a NUL byte\n"
        assert os.listdir(tmp_path) == ["c.txt"]

    def test_hash_starts_a_comment_only_at_line_start(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("  # indented comment\n\t#tracks=7\ndata=a#b\nseed=1\n")
        assert read_config_file(str(cfg)) == {"data": "a#b", "seed": "1"}
        cfg.write_text("tracks=5 # five\n")
        assert run(["gen", "--out", tmp_path / "o", "--config", cfg]) == 1
        assert "'5 # five' is not a valid integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_key_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("trakcs=5\n")
        assert run(["gen", "--out", tmp_path / "o", "--config", cfg]) == 1
        assert f"{cfg}: unknown config key 'trakcs'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_manifest_keys_and_other_commands_options_allowed(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("command=train\nmanifest_version=qseed-1\nduration_s=1.5\nepochs=3\nshot_seed=2\ntracks=4\n")
        out = tmp_path / "o"
        assert run(["gen", "--out", out, "--config", cfg]) == 0
        assert read_config_file(str(out / "gen_manifest.txt"))["tracks"] == "4"


SEED_OPTIONS = [
    ("gen", "--seed"),
    ("train", "--seed"),
    ("train", "--split-seed"),
    ("train", "--init-seed"),
    ("train", "--shuffle-seed"),
    ("eval", "--shot-seed"),
    ("predict", "--shot-seed"),
]


def _required_args(tmp_path, command):
    """Placeholder inputs: the value checks run before any input is read."""
    return {
        "gen": [],
        "train": ["--data", tmp_path / "d"],
        "eval": ["--data", tmp_path / "d", "--model", tmp_path / "m.txt"],
        "predict": ["--data", tmp_path / "d", "--model", tmp_path / "m.txt"],
    }[command]


@pytest.mark.parametrize("command, option", SEED_OPTIONS)
def test_negative_seed_usage_error(tmp_path, capsys, command, option):
    cfg = tmp_path / "c.txt"
    cfg.write_text(f"{option[2:].replace('-', '_')}=-1\n")
    args = [command, *_required_args(tmp_path, command), "--out", tmp_path / "o"]
    assert run([*args, option, "-1"]) == 1
    assert run([*args, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.count(f"'{option}': -1 is not in the range x>=0.") == 2
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("value", ["2", "-1", "0", "1", "nan"])
def test_threshold_outside_open_unit_interval_usage_error(tmp_path, capsys, command, value):
    cfg = tmp_path / "c.txt"
    cfg.write_text(f"threshold={value}\n")
    args = [command, *_required_args(tmp_path, command), "--out", tmp_path / "o"]
    assert run([*args, "--threshold", value]) == 1
    assert run([*args, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.count(f"'--threshold': {float(value)} is not in the open interval (0, 1).") == 2
    assert not (tmp_path / "o").exists()


def _model_file(tmp_path, data):
    """An untrained model whose scaler is fitted on every subgraph under `data`."""
    graphs = [hitgraph.read_subgraph(p) for p in sorted(glob.glob(str(data / "evt*_s*")))]
    model = tmp_path / "model.txt"
    ttn.save_model(str(model), ttn.init_params(3), ttn.fit_scaler(training.collect_features(graphs)), 3)
    return model


def _outputs(root):
    """Bytes of every file under root except the manifest, by relative path."""
    return {
        p.relative_to(root): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file() and not p.name.endswith("_manifest.txt")
    }


@pytest.mark.parametrize("command", ["gen", "preprocess", "train", "eval", "predict"])
def test_manifest_alone_reruns_command(tmp_path, request, command):
    """Each option, set away from its default, reaches the manifest; the
    manifest plus --out reruns the command with byte-identical outputs."""
    if command == "gen":
        args = [
            "--events", "2", "--tracks", "6", "--noise", "3", "--seed", "4", "--pt-min", "0.8",
            "--pt-max", "4", "--z0-spread", "20", "--smear", "0.001", "--b-field", "2.5",
        ]
    elif command == "preprocess":
        args = [
            "--in", request.getfixturevalue("events_dir"), "--pt-min", "0.9", "--dphi-max", "0.02",
            "--z0-max", "500", "--eta-min", "-4", "--eta-max", "4", "--cut-mode", "raw", "--pt-mode", "filter",
        ]
    elif command == "train":
        args = [
            "--data", request.getfixturevalue("subgraphs_dir"), "--epochs", "1", "--lr", "0.05",
            "--split-ratio", "0.8", "--threshold", "0.4", "--seed", "5", "--init-seed", "11",
        ]
    else:
        data = request.getfixturevalue("subgraphs_dir")
        args = ["--data", data, "--model", _model_file(tmp_path, data), "--shots", "100", "--shot-seed", "2"]
        if command == "eval":
            args += ["--threshold", "0.4"]
    first, again = tmp_path / "first", tmp_path / "again"
    assert run([command, "--out", first, *args]) == 0
    assert run([command, "--out", again, "--config", first / f"{command}_manifest.txt"]) == 0

    def manifest(out):
        text = (out / f"{command}_manifest.txt").read_text()
        return [line for line in text.splitlines() if not line.startswith("duration_s=")]

    assert manifest(again) == manifest(first)
    assert _outputs(first) and _outputs(again) == _outputs(first)


FLOAT_OPTIONS = [
    (name, param.opts[0])
    for name, command in sorted(cli.commands.items())
    for param in command.params
    if isinstance(param.type, click.types.FloatParamType)
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, option", FLOAT_OPTIONS)
def test_non_finite_float_option_exits_cleanly(tmp_path, request, capsys, command, option, value):
    """Every float option of every command, given a non-finite value, ends
    in a documented exit code; a run that succeeds writes only finite
    numbers. The manifest is not read: it records the option as given."""
    if command == "gen":
        args = []
    elif command == "preprocess":
        args = ["--in", request.getfixturevalue("events_dir")]
    else:
        data = request.getfixturevalue("subgraphs_dir")
        args = ["--data", data] + (["--model", _model_file(tmp_path, data)] if command == "eval" else [])
    capsys.readouterr()
    out = tmp_path / "o"
    code = run([command, *args, "--out", out, option, value])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
    if code == 0:
        for path, data in _outputs(out).items():
            assert not re.search(rb"nan|inf", data, re.IGNORECASE), path


def test_unknown_command_is_usage_error():
    assert run(["frobnicate"]) == 1


def test_inputs_not_mutated(tmp_path, events_dir):
    before = {
        f: (events_dir / f).read_bytes() for f in os.listdir(events_dir) if f.endswith(".csv")
    }
    out = tmp_path / "sub2"
    assert run(["preprocess", "--in", events_dir, "--out", out]) == 0
    after = {
        f: (events_dir / f).read_bytes() for f in os.listdir(events_dir) if f.endswith(".csv")
    }
    assert before == after


@pytest.mark.parametrize("command", ["preprocess", "eval", "predict"])
def test_missing_input_file_names_its_path(tmp_path, events_dir, subgraphs_dir, capsys, command):
    """A missing event CSV, model or subgraph file exits 2 with
    `<path>: No such file or directory`."""
    model = _model_file(tmp_path, subgraphs_dir)
    if command == "preprocess":
        missing = events_dir / "event000000002-truth.csv"
        args = ["--in", events_dir]
    elif command == "eval":
        missing = tmp_path / "none.txt"
        args = ["--data", subgraphs_dir, "--model", missing]
    else:
        missing = sorted(subgraphs_dir.glob("evt*_s*"))[-1] / "edges.csv"
        args = ["--data", subgraphs_dir, "--model", model]
    missing.unlink(missing_ok=True)
    capsys.readouterr()
    assert run([command, *args, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"
    assert not list((tmp_path / "o").glob("*"))


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of any one input file changes
    nothing: the exit code, stdout and every output byte match the run
    without it."""

    @pytest.fixture
    def inputs(self, tmp_path, events_dir, subgraphs_dir):
        """Inputs under one directory, so that runs from copies of it with
        relative paths print and write the same bytes."""
        base = tmp_path / "base"
        shutil.copytree(events_dir, base / "ev")
        shutil.copytree(subgraphs_dir, base / "sg")
        shutil.copy(_model_file(tmp_path, subgraphs_dir), base / "model.txt")
        (base / "c.txt").write_text("data=sg\nmodel=model.txt\nthreshold=0.4\nshots=100\nshot_seed=2\n")
        return base

    def assert_mark_changes_nothing(self, tmp_path, inputs, monkeypatch, capsys, name, args):
        runs = []
        for marked in (False, True):
            root = tmp_path / ("marked" if marked else "plain")
            shutil.copytree(inputs, root)
            if marked:
                (root / name).write_bytes(BOM + (root / name).read_bytes())
            monkeypatch.chdir(root)
            capsys.readouterr()
            code = run([*args, "--out", "o"])
            (manifest,) = (root / "o").glob("*_manifest.txt")
            lines = [x for x in manifest.read_text().splitlines() if not x.startswith("duration_s=")]
            runs.append((code, capsys.readouterr().out, lines, _outputs(root / "o")))
        assert runs[0][0] == 0 and runs[0][3]
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("kind", ["hits", "particles", "truth"])
    def test_event_file(self, tmp_path, inputs, monkeypatch, capsys, kind):
        args = ["preprocess", "--in", "ev", "--pt-min", "0.1", "--dphi-max", "0.5", "--z0-max", "100000"]
        name = f"ev/event000000001-{kind}.csv"
        self.assert_mark_changes_nothing(tmp_path, inputs, monkeypatch, capsys, name, args)

    @pytest.mark.parametrize("file", ["nodes.csv", "edges.csv"])
    def test_subgraph_file(self, tmp_path, inputs, monkeypatch, capsys, file):
        graph = max(sorted((inputs / "sg").glob("evt*_s*")), key=lambda d: (d / "edges.csv").stat().st_size)
        name = graph.relative_to(inputs) / file
        args = ["predict", "--data", "sg", "--model", "model.txt"]
        self.assert_mark_changes_nothing(tmp_path, inputs, monkeypatch, capsys, name, args)

    def test_model_file(self, tmp_path, inputs, monkeypatch, capsys):
        args = ["predict", "--data", "sg", "--model", "model.txt"]
        self.assert_mark_changes_nothing(tmp_path, inputs, monkeypatch, capsys, "model.txt", args)

    def test_config_file(self, tmp_path, inputs, monkeypatch, capsys):
        args = ["eval", "--config", "c.txt"]
        self.assert_mark_changes_nothing(tmp_path, inputs, monkeypatch, capsys, "c.txt", args)


@pytest.mark.parametrize("mark", [b"\xef", b"\xef\xbb"], ids=["EF", "EF BB"])
@pytest.mark.parametrize("file", ["config", "model", "nodes", "hits", "particles", "truth"])
def test_partial_byte_order_mark_is_not_utf8(tmp_path, events_dir, subgraphs_dir, capsys, mark, file):
    """A file of only the first bytes of a mark is not UTF-8 text, not an
    empty file: a config would otherwise run on every default, and an event
    CSV, read as a stream, would lack its header."""
    model = _model_file(tmp_path, subgraphs_dir)
    cfg = tmp_path / "c.txt"
    cfg.write_text("tracks=5\n")
    path = {
        "config": cfg,
        "model": model,
        "nodes": sorted(subgraphs_dir.glob("evt*_s*"))[-1] / "nodes.csv",
        **{kind: events_dir / f"event000000001-{kind}.csv" for kind in ("hits", "particles", "truth")},
    }[file]
    path.write_bytes(mark)
    capsys.readouterr()
    if file == "config":
        assert run(["gen", "--out", tmp_path / "o", "--config", cfg]) == 1
    elif path.parent == events_dir:
        assert run(["preprocess", "--in", events_dir, "--out", tmp_path / "o"]) == 2
    else:
        assert run(["predict", "--data", subgraphs_dir, "--model", model, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == f"error: {path}:1: not UTF-8 text (unexpected end of data at byte 0)\n"
    if path.parent == events_dir:
        # preprocess makes its output directory before it reads an event
        assert not list((tmp_path / "o").iterdir())
    else:
        assert not (tmp_path / "o").exists()
