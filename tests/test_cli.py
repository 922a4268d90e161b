import numpy as np
import pytest

from conftest import write_sealed_checkpoint
from kwspot.cli import parse_config, run_cli
from kwspot.errors import ConfigError
from kwspot.models import ModelConfig, build_model
from kwspot.training import save_checkpoint


SYNTH_SPEC = """\
# three tones, 4 kHz
n_classes = 3
clips_per_class = 6
sample_rate = 4000
class_frequencies = 400, 800, 1400
noise_amplitude = 0.05
seed = 7
"""

SMALL_CONFIG = """\
sample_rate = 4000
frame_len = 128
hop_len = 64
n_fft = 128
n_mel_filters = 20
n_mfcc = 10
fmin = 50.0
fmax = 1900.0
conv_channels = 2
lstm_hidden = 3
dense_hidden = 4
dropout_rate = 0.0
max_epochs = 2
patience = 1
batch_size = 8
train_ratio = 0.5
val_ratio = 0.25
test_ratio = 0.25
"""


@pytest.fixture
def synth_dir(tmp_path):
    spec = tmp_path / "synth.spec"
    spec.write_text(SYNTH_SPEC)
    data = tmp_path / "data"
    assert run_cli(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    return data


@pytest.fixture
def small_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return path


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config()
        assert cfg["sample_rate"] == 16000
        assert cfg["arch"] == "multilayer_attention"
        assert cfg["feature_kind"] == "log_mel"

    def test_file_overrides_defaults(self, small_config_file):
        cfg = parse_config(small_config_file)
        assert cfg["sample_rate"] == 4000
        assert cfg["conv_channels"] == (2,)

    def test_flag_overrides_file(self, small_config_file):
        cfg = parse_config(small_config_file, {"sample_rate": "8000"})
        assert cfg["sample_rate"] == 8000

    def test_unknown_key_names_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sample_rate = 4000\nbanana = 3\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2.*banana"):
            parse_config(path)

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sample_rate = banana\n")
        with pytest.raises(ConfigError, match="sample_rate"):
            parse_config(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sample_rate 4000\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(path)

    def test_undecodable_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"sample_rate = 4000\nfmin = \xff\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg"):
            parse_config(path)
        code = run_cli(["train", "--data", str(tmp_path), "--config", str(path),
                        "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert "bad.cfg" in capsys.readouterr().err

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("\n# comment\nsample_rate = 4000  # inline\n\n")
        assert parse_config(path)["sample_rate"] == 4000


class TestSynth:
    def test_layout(self, synth_dir):
        labels = sorted(p.name for p in synth_dir.iterdir())
        assert labels == ["class0", "class1", "class2"]
        for label in labels:
            assert len(list((synth_dir / label).glob("*.wav"))) == 6

    def test_missing_spec_key(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("n_classes = 2\n")
        code = run_cli(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")])
        assert code == 1
        assert "missing synth keys" in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        (b"n_classes = 2\nbanana = 1\n", "bad.spec:2: unknown key 'banana'"),
        (b"n_classes 2\n", "bad.spec:1: expected key = value"),
        (b"n_classes = \xff\n", "bad.spec: not UTF-8"),
        (b"n_classes = 3\nclips_per_class = 1\nsample_rate = 4000\n"
         b"class_frequencies = 400, 800\n", "bad.spec: need one frequency per class"),
    ])
    def test_bad_spec_line(self, tmp_path, capsys, body, message):
        spec = tmp_path / "bad.spec"
        spec.write_bytes(body)
        code = run_cli(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_optional_keys_default(self, tmp_path):
        spec = tmp_path / "min.spec"
        spec.write_text(
            "n_classes = 2\nclips_per_class = 1\nsample_rate = 4000\n"
            "class_frequencies = 400, 800\n"
        )
        out = tmp_path / "d"
        assert run_cli(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        assert len(list(out.rglob("*.wav"))) == 2


class TestFeaturize:
    def test_row_count_and_width(self, synth_dir, small_config_file, tmp_path):
        wav = next((synth_dir / "class0").glob("*.wav"))
        out = tmp_path / "features.csv"
        code = run_cli([
            "featurize", str(wav), "--config", str(small_config_file),
            "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 61
        assert all(len(r.split(",")) == 20 for r in rows)

    def test_mfcc_kind_width(self, synth_dir, small_config_file, tmp_path):
        wav = next((synth_dir / "class0").glob("*.wav"))
        out = tmp_path / "features.csv"
        code = run_cli([
            "featurize", str(wav), "--config", str(small_config_file),
            "--set", "feature_kind=mfcc", "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert all(len(r.split(",")) == 10 for r in rows)

    def test_missing_wav(self, tmp_path, capsys):
        code = run_cli(["featurize", str(tmp_path / "nope.wav")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTrainEval:
    def test_smoke_pipeline(self, synth_dir, small_config_file, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        code = run_cli([
            "train", "--data", str(synth_dir), "--arch", "cnn",
            "--config", str(small_config_file), "--out", str(ckpt),
        ])
        assert code == 0, capsys.readouterr().err
        assert ckpt.exists()
        metrics = tmp_path / "model.ckpt.metrics.csv"
        assert metrics.read_text().startswith(
            "epoch,train_loss,train_acc,val_loss,val_acc,lr,seconds"
        )

        report = tmp_path / "report.csv"
        code = run_cli([
            "eval", "--ckpt", str(ckpt), "--data", str(synth_dir),
            "--config", str(small_config_file), "--out", str(report),
        ])
        assert code == 0
        assert report.read_text().startswith("label,accuracy,n")

        capsys.readouterr()
        assert run_cli(["report", "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "best epoch:" in out

    def test_missing_data_flag(self, tmp_path):
        assert run_cli(["train", "--out", str(tmp_path / "m.ckpt")]) == 1

    def test_missing_data_dir(self, small_config_file, tmp_path, capsys):
        code = run_cli([
            "train", "--data", str(tmp_path / "nowhere"),
            "--config", str(small_config_file), "--out", str(tmp_path / "m"),
        ])
        assert code == 2

    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"]) == 1

    def test_bad_set_syntax(self, synth_dir, tmp_path, capsys):
        code = run_cli([
            "train", "--data", str(synth_dir), "--set", "banana",
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 1
        assert "--set expects key=value" in capsys.readouterr().err

    def test_report_rejects_foreign_csv(self, tmp_path, capsys):
        path = tmp_path / "other.csv"
        header = "epoch,train_loss,train_acc,val_loss,val_acc,lr,seconds\n"
        bodies = [
            (b"a,b,c\n1,2,3\n", "not a kwspot metrics CSV"),
            ((header + "1,0.5,0.5\n").encode(), "other.csv:2"),
            ((header + "1,0.5,0.5,0.5,high,0.001,0.1\n").encode(), "other.csv:2"),
            (header.encode() + b"\xff\n", "not UTF-8"),
        ]
        for body, message in bodies:
            path.write_bytes(body)
            assert run_cli(["report", "--metrics", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    def test_eval_rejects_undecodable_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_model(ModelConfig(
            arch="cnn", n_classes=2, input_shape=(8, 8), conv_channels=(2,),
        )), ckpt)
        body = bytearray(ckpt.read_bytes()[:-4])
        body[12] = 0xFF  # first metadata byte
        write_sealed_checkpoint(ckpt, bytes(body))
        code = run_cli(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path),
                        "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "model.ckpt: metadata" in capsys.readouterr().err
