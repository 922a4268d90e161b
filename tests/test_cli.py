import os
import re
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import pytest

import kwspot
from conftest import SYNTH_SPEC, record_calls, write_metadata, write_sealed_checkpoint
from kwspot import audio_io, errors, eval as evaluation, training
from kwspot.cli import CONFIG_KEYS, SYNTH_KEYS, parse_config, run_cli
from kwspot.errors import ConfigError
from kwspot.keyvalue import PARSERS, REQUIRED, read_key_values, schema
from kwspot.models import ModelConfig, build_model
from kwspot.training import save_checkpoint


def _float_keys(keys: dict) -> list:
    """The keys whose parser reads "0.5" as a float or a tuple of floats."""
    found = []
    for key, (parse, _) in keys.items():
        try:
            value = parse("0.5")
        except ValueError:
            continue
        if isinstance(value, float) or (isinstance(value, tuple) and isinstance(value[0], float)):
            found.append(key)
    return found


FLOAT_KEYS = [
    pytest.param(keys, key, id=f"{what}-{key}")
    for what, keys in (("config", CONFIG_KEYS), ("synth", SYNTH_KEYS))
    for key in _float_keys(keys)
]


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

    def test_key_set_twice(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sample_rate = 4000\n# again\nsample_rate = 8000\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:3: key 'sample_rate' is set twice"):
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

    def test_window_key_refused(self, tmp_path):
        # the front end has one window, the Hamming window
        path = tmp_path / "c.cfg"
        path.write_text("window = hamming\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:1: unknown key 'window'"):
            parse_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("\n# comment\nsample_rate = 4000  # inline\n\n")
        assert parse_config(path)["sample_rate"] == 4000


class TestSchemas:
    def test_config_defaults_pinned(self):
        assert parse_config() == {
            "sample_rate": 16000, "frame_len": 400, "hop_len": 160, "n_fft": 512,
            "pre_emphasis_alpha": 0.97, "n_mel_filters": 40, "n_mfcc": 20,
            "fmin": 20.0, "fmax": 8000.0, "log_floor": 1e-10,
            "feature_kind": "log_mel", "arch": "multilayer_attention",
            "lstm_hidden": 64, "dense_hidden": 64, "dropout_rate": 0.25,
            "conv_channels": None, "max_epochs": 40, "batch_size": 64, "base_lr": 1e-3,
            "lr_decay": 0.97, "patience": 10, "seed": 0,
            "train_ratio": 0.8, "val_ratio": 0.1, "test_ratio": 0.1,
        }

    def test_synth_required_keys(self):
        required = {key for key, (_, default) in SYNTH_KEYS.items() if default is REQUIRED}
        assert required == {"n_classes", "clips_per_class", "sample_rate", "class_frequencies"}

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        table = readme.split("## Config keys", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for row in table.splitlines():
            if row.startswith("| `"):
                keys, defaults = (cell.strip() for cell in row.split("|")[1:3])
                documented.update(zip(keys.replace("`", "").split(" / "),
                                      defaults.split(" / ")))
        for key, (parse, default) in CONFIG_KEYS.items():
            assert key in documented, key
            if default is None:
                assert documented[key] == "per-arch", key
            else:
                assert parse(documented[key]) == default, key

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("keys, key", FLOAT_KEYS)
    def test_float_keys_refuse_non_finite(self, keys, key, raw):
        with pytest.raises(ConfigError, match=re.escape(f"f:1: cannot parse {key} = '{raw}'")):
            read_key_values(f"{key} = {raw}\n", keys, "f")

    def test_unknown_annotation_refused(self):
        @dataclass
        class Odd:
            values: list

        with pytest.raises(TypeError, match="Odd.values"):
            schema(Odd)


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
        assert capsys.readouterr().err == (
            f"error: {spec}: required keys not set: clips_per_class, sample_rate, "
            f"class_frequencies\n")

    @pytest.mark.parametrize("body, message", [
        (b"n_classes = 2\nbanana = 1\n", "bad.spec:2: unknown key 'banana'"),
        (b"n_classes 2\n", "bad.spec:1: expected key = value"),
        (b"n_classes = \xff\n", "bad.spec: not UTF-8"),
        (b"n_classes = 3\nclips_per_class = 1\nsample_rate = 4000\n"
         b"class_frequencies = 400, 800\n", "bad.spec: need one frequency per class"),
        (b"n_classes = 2\nclips_per_class = 1\nsample_rate = 400000\n"
         b"class_frequencies = 400, 800\n",
         "bad.spec: sample_rate must be 1 to 384000 Hz, got 400000"),
        (b"n_classes = 2\nclips_per_class = 0\nsample_rate = 4000\n"
         b"class_frequencies = 400, 800\n", "bad.spec: clips_per_class must be at least 1, got 0"),
        (b"n_classes = 2\nclips_per_class = 1\nsample_rate = 4000\n"
         b"class_frequencies = 400, 800\nnoise_amplitude = -0.5\n",
         "bad.spec: noise_amplitude must be at least 0, got -0.5"),
        (b"n_classes = 2\nclips_per_class = 1\nsample_rate = 4000\n"
         b"class_frequencies = -100, 100\n",
         "bad.spec: class frequencies must be above 0 Hz and below Nyquist"),
        (b"n_classes = 2\nclips_per_class = 1\nsample_rate = 4000\n"
         b"class_frequencies = 400, 800\nseed = -1\n",
         "bad.spec: seed must not be negative, got -1"),
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

    def test_rows_to_stdout_without_out(self, synth_dir, small_config_file, capsys):
        wav = next((synth_dir / "class0").glob("*.wav"))
        code = run_cli(["featurize", str(wav), "--config", str(small_config_file)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line for line in lines if not line.startswith(("kwspot ", "  "))]
        assert len(rows) == 61
        assert all(len(row.split(",")) == 20 for row in rows)

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

    def test_out_into_missing_directory(self, synth_dir, small_config_file, tmp_path,
                                        capsys):
        wav = next((synth_dir / "class0").glob("*.wav"))
        out = tmp_path / "missing" / "features.csv"
        code = run_cli([
            "featurize", str(wav), "--config", str(small_config_file), "--out", str(out),
        ])
        assert code == 2
        assert f"cannot write {out}" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.tmp"))

    def test_failed_out_keeps_previous_file(self, synth_dir, small_config_file, tmp_path,
                                            monkeypatch):
        wav = next((synth_dir / "class0").glob("*.wav"))
        out = tmp_path / "features.csv"
        out.write_text("previous contents\n")

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr(errors.os, "fsync", fail)
        code = run_cli([
            "featurize", str(wav), "--config", str(small_config_file), "--out", str(out),
        ])
        assert code == 2
        assert out.read_text() == "previous contents\n"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_missing_wav(self, tmp_path, capsys):
        code = run_cli(["featurize", str(tmp_path / "nope.wav")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_hop_refused(self, synth_dir, small_config_file, tmp_path, capsys):
        wav = next((synth_dir / "class0").glob("*.wav"))
        out = tmp_path / "features.csv"
        code = run_cli([
            "featurize", str(wav), "--config", str(small_config_file),
            "--set", "hop_len=0", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: hop_len must be at least 1, got 0"
        ]
        assert not out.exists()

    def test_one_sample_frame_refused(self, synth_dir, tmp_path, capsys):
        # a one-sample Hamming window divided by frame_len - 1 = 0
        wav = next((synth_dir / "class0").glob("*.wav"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli([
                "featurize", str(wav), "--set", "sample_rate=4000",
                "--set", "frame_len=1", "--set", "hop_len=1", "--set", "fmax=1900",
            ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: frame_len must be at least 2, got 1"
        ]


    def test_negative_fmin_refused(self, synth_dir, tmp_path, capsys):
        # a negative fmin once gave numpy warnings and then an error about
        # collapsed mel centres that named neither fmin nor the cause
        wav = next((synth_dir / "class0").glob("*.wav"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli([
                "featurize", str(wav), "--set", "sample_rate=4000",
                "--set", "fmin=-5000", "--set", "fmax=1900",
            ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: fmin must be at least 0, got -5000.0"
        ]


# the config keys that hold one int or one float
NUMBER_KEYS = [key for key, (parse, _) in CONFIG_KEYS.items() if parse in (int, PARSERS[float])]


class TestMinusOne:
    # -1 is out of range for every number key; each is refused with an error
    # line and exit code 1, as any bad setting is. run_cli is all that main()
    # runs, so an exception escaping it here is what would print a traceback
    # there
    @staticmethod
    def _refused(code, capsys):
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("key", NUMBER_KEYS)
    def test_train_setting(self, synth_dir, small_config_file, tmp_path, capsys, key):
        code = run_cli([
            "train", "--data", str(synth_dir), "--config", str(small_config_file),
            "--set", f"{key}=-1", "--out", str(tmp_path / "m.ckpt"),
        ])
        self._refused(code, capsys)
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("key", list(SYNTH_KEYS))
    def test_synth_spec_key(self, tmp_path, capsys, key):
        spec = tmp_path / "minus.spec"
        spec.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = -1", SYNTH_SPEC))
        assert f"{key} = -1" in spec.read_text()
        code = run_cli(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")])
        self._refused(code, capsys)
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("setting,error", [
        ("sample_rate=10000000000000", "sample_rate must be at most 384000 Hz"),
        ("n_fft=17592186044416", "n_fft 17592186044416 exceeds 4096"),
        ("n_mel_filters=1000000000000", "n_mel_filters 1000000000000 exceeds 63"),
    ])
    def test_unbounded_front_end_refused(self, synth_dir, small_config_file, tmp_path,
                                         capsys, setting, error):
        # each once ended in a MemoryError traceback from the front end
        wav = next((synth_dir / "class0").glob("*.wav"))
        for command in (["train", "--data", str(synth_dir), "--out", str(tmp_path / "m.ckpt")],
                        ["featurize", str(wav)]):
            code = run_cli(command + ["--config", str(small_config_file), "--set", setting])
            err = capsys.readouterr().err
            assert code == 1 and "Traceback" not in err
            assert err.startswith(f"error: {error}"), err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command,setting,error", [
        ("featurize", "hop_len=0", "hop_len must be at least 1, got 0"),
        ("train", "hop_len=0", "hop_len must be at least 1, got 0"),
        ("train", "train_ratio=-1", "train_ratio, val_ratio and test_ratio must be "
                                    "non-negative and sum to 1, got (-1.0, 0.1, 0.1)"),
        ("train", "lstm_hidden=0", "lstm_hidden must be positive"),
        ("train", "dropout_rate=2", "dropout_rate must be in [0, 1)"),
    ], ids=["featurize-hop", "train-hop", "train-ratio", "train-lstm-hidden", "train-dropout"])
    def test_setting_refused_before_the_input_is_read(self, tmp_path, capsys, command,
                                                      setting, error):
        # each once exited 2 on the missing input instead of naming the setting
        args = {"featurize": [str(tmp_path / "nope.wav")],
                "train": ["--data", str(tmp_path / "nodir"), "--out", str(tmp_path / "m.ckpt")]}
        code = run_cli([command, *args[command], "--set", setting])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]

    def test_seed_refused_before_the_split(self, synth_dir, small_config_file, tmp_path,
                                           capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the seed is checked before the split draws with it")

        monkeypatch.setattr(audio_io, "split_dataset", unreachable)
        code = run_cli([
            "train", "--data", str(synth_dir), "--config", str(small_config_file),
            "--set", "seed=-1", "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: seed must not be negative, got -1"]


class TestTrainEval:
    def test_smoke_pipeline(self, synth_dir, small_config_file, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        code = run_cli([
            "train", "--data", str(synth_dir), "--set", "arch=cnn",
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

    def test_unknown_feature_kind(self, synth_dir, small_config_file, tmp_path, capsys):
        code = run_cli([
            "train", "--data", str(synth_dir), "--config", str(small_config_file),
            "--set", "feature_kind=logmel", "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 1
        assert "cannot parse feature_kind = 'logmel'" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("setting,message", [
        ("dense_hidden=-4", "dense_hidden must be positive"),
        ("conv_channels=4,-2", "conv_channels must be one or more positive integers"),
    ])
    def test_nonpositive_size_named(self, synth_dir, small_config_file, tmp_path, capsys,
                                    setting, message):
        code = run_cli([
            "train", "--data", str(synth_dir), "--config", str(small_config_file),
            "--set", setting, "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("settings,message", [
        (["max_epochs=0", "patience=-1"], "max_epochs must be at least 1"),
        (["patience=-1"], "patience must not be negative"),
    ])
    def test_epoch_budget_range(self, synth_dir, small_config_file, tmp_path, capsys,
                                settings, message):
        code = run_cli([
            "train", "--data", str(synth_dir), "--config", str(small_config_file),
            *(arg for setting in settings for arg in ("--set", setting)),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("setting,message", [
        ("base_lr=-1", "base_lr must be finite and positive, got -1.0"),
        ("base_lr=-0.001", "base_lr must be finite and positive, got -0.001"),
        ("lr_decay=0", "lr_decay must be finite and positive, got 0.0"),
    ])
    def test_non_positive_rate_refused(self, synth_dir, small_config_file, tmp_path, capsys,
                                       setting, message):
        # a negative base_lr used to train by gradient ascent without an error
        code = run_cli([
            "train", "--data", str(synth_dir), "--config", str(small_config_file),
            "--set", setting, "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("key", ["val_ratio", "base_lr"])
    def test_nan_setting_refused_before_featurizing(self, synth_dir, small_config_file,
                                                    tmp_path, capsys, key):
        code = run_cli([
            "train", "--data", str(synth_dir), "--config", str(small_config_file),
            "--set", f"{key}=nan", "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""  # not even the config header
        assert err.splitlines() == [f"error: command line: cannot parse {key} = 'nan'"]
        assert not (tmp_path / "m.ckpt").exists()

    def test_unwritable_label_refused_before_training(self, synth_dir, small_config_file,
                                                      tmp_path, capsys, monkeypatch):
        (synth_dir / "class1").rename(synth_dir / "a,b")

        def unreachable(*args, **kwargs):
            raise AssertionError("the labels are checked before featurizing and fit")

        monkeypatch.setattr(training, "featurize_index", unreachable)
        monkeypatch.setattr(training, "fit", unreachable)
        code = run_cli([
            "train", "--data", str(synth_dir), "--config", str(small_config_file),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2
        assert "m.ckpt: cannot write labels item 'a,b'" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("setting,message", [
        ("lstm_hidden=-1", "lstm_hidden must be positive"),
        ("dense_hidden=-1", "dense_hidden must be positive"),
        ("dropout_rate=-1", "dropout_rate must be in [0, 1)"),
        # 61 x 20 features are 3 x 1 at a fifth block's pool
        ("conv_channels=2,2,2,2,2", "input (61, 20) too small for conv block 4"),
        # each of these three used to end in a MemoryError traceback
        *((f"{key}=1000000000000", "the model would have more than 100000000 weights; "
           "conv_channels, lstm_hidden and dense_hidden set their number")
          for key in ("lstm_hidden", "dense_hidden", "conv_channels")),
    ])
    def test_model_setting_refused_before_featurizing(self, synth_dir, small_config_file,
                                                      tmp_path, capsys, monkeypatch,
                                                      setting, message):
        calls = record_calls(monkeypatch, training, "featurize_index")
        code = run_cli([
            "train", "--data", str(synth_dir), "--config", str(small_config_file),
            "--set", setting, "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "m.ckpt").exists()

    def test_empty_validation_split_named(self, synth_dir, small_config_file, tmp_path,
                                          capsys):
        # 6 clips per class at 0.8/0.1/0.1 leave no clip for validation
        code = run_cli([
            "train", "--data", str(synth_dir), "--config", str(small_config_file),
            "--set", "train_ratio=0.8", "--set", "val_ratio=0.1", "--set", "test_ratio=0.1",
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2
        assert "error: the validation split holds no clips" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_label_dirs_without_wavs(self, small_config_file, tmp_path, capsys):
        for label in ("yes", "no"):
            (tmp_path / "data" / label).mkdir(parents=True)
        code = run_cli([
            "train", "--data", str(tmp_path / "data"), "--config", str(small_config_file),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2
        assert "error: the train split holds no clips" in capsys.readouterr().err

    def test_eval_empty_dataset(self, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_model(ModelConfig(
            arch="cnn", n_classes=2, input_shape=(8, 8), conv_channels=(2,),
        )), ckpt, labels=["yes", "no"])
        for label in ("yes", "no"):
            (tmp_path / "data" / label).mkdir(parents=True)
        report = tmp_path / "r.csv"
        code = run_cli(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path / "data"),
                        "--out", str(report)])
        assert code == 2
        assert "error: the evaluation split holds no clips" in capsys.readouterr().err
        assert not report.exists()

    def test_eval_duplicate_checkpoint_labels_refused(self, tmp_path, capsys):
        # a save refuses them too, so the metadata is edited after one
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_model(ModelConfig(
            arch="cnn", n_classes=2, input_shape=(8, 8), conv_channels=(2,),
        )), ckpt, labels=["a", "b"])
        write_metadata(ckpt, lambda meta: meta.replace(b"labels=a,b", b"labels=a,a"))
        (tmp_path / "data" / "a").mkdir(parents=True)
        code = run_cli(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path / "data"),
                        "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ckpt}: metadata:10: cannot parse labels = 'a,a'"]

    def test_eval_label_less_checkpoint_refused(self, synth_dir, small_config_file, tmp_path,
                                                capsys):
        # a 3-class checkpoint without labels on data without its "b" once
        # took --data's two directories as its first two classes and scored
        # "c" by the model's "b" column
        ckpt, report = tmp_path / "model.ckpt", tmp_path / "r.csv"
        save_checkpoint(build_model(ModelConfig(
            arch="cnn", n_classes=3, input_shape=(61, 20), conv_channels=(2,),
        )), ckpt, labels=["a", "b", "c"])
        write_metadata(ckpt, lambda meta: meta.replace(b"\nlabels=a,b,c", b""))
        (synth_dir / "class0").rename(synth_dir / "a")
        (synth_dir / "class2").rename(synth_dir / "c")
        (synth_dir / "class1").rename(tmp_path / "b")
        code = run_cli(["eval", "--ckpt", str(ckpt), "--data", str(synth_dir),
                        "--config", str(small_config_file), "--out", str(report)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ckpt}: metadata: required keys not set: labels"]
        assert not report.exists()

    @staticmethod
    def _small_cnn_checkpoint(path):
        """An untrained cnn checkpoint for SMALL_CONFIG's 61 x 20 features
        over the synth spec's three labels."""
        save_checkpoint(build_model(ModelConfig(
            arch="cnn", n_classes=3, input_shape=(61, 20), conv_channels=(2,),
        )), path, labels=["class0", "class1", "class2"])

    def test_eval_front_end_mismatch_refused_before_featurizing(
            self, synth_dir, small_config_file, tmp_path, capsys, monkeypatch):
        ckpt, report = tmp_path / "model.ckpt", tmp_path / "r.csv"
        self._small_cnn_checkpoint(ckpt)
        calls = record_calls(monkeypatch, evaluation, "featurize_index")
        code = run_cli(["eval", "--ckpt", str(ckpt), "--data", str(synth_dir),
                        "--config", str(small_config_file), "--set", "hop_len=32",
                        "--out", str(report)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the front end (sample_rate = 4000, frame_len = 128, hop_len = 32, "
            "n_mel_filters = 20, feature_kind = log_mel) gives features of shape (122, 20), "
            "but the model takes (61, 20)"]
        assert calls == []
        assert not report.exists()

    @pytest.mark.parametrize("setting,error", [
        ("windw=hann", "command line: unknown key 'windw'"),
        ("hop_len=0", "hop_len must be at least 1, got 0"),
    ])
    def test_eval_setting_refused_before_the_load(self, tmp_path, capsys, monkeypatch,
                                                  setting, error):
        def unreachable(*args):
            raise AssertionError("the settings are read before the checkpoint is loaded")

        monkeypatch.setattr(training, "load_checkpoint", unreachable)
        code = run_cli(["eval", "--ckpt", str(tmp_path / "model.ckpt"),
                        "--data", str(tmp_path / "data"), "--set", setting,
                        "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]

    def test_eval_header_names_the_checkpoint_model(self, synth_dir, small_config_file,
                                                    tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        self._small_cnn_checkpoint(ckpt)
        code = run_cli(["eval", "--ckpt", str(ckpt), "--data", str(synth_dir),
                        "--config", str(small_config_file),
                        "--set", "arch=multilayer_attention", "--set", "lstm_hidden=5",
                        "--out", str(tmp_path / "r.csv")])
        assert code == 0, capsys.readouterr().err
        header = capsys.readouterr().out.splitlines()[1:]
        assert "  arch = cnn" in header
        assert "  conv_channels = (2,)" in header
        assert "  hop_len = 64" in header
        assert "  n_classes = 3" in header
        # model keys come from the checkpoint, and train keys are not read
        assert "  lstm_hidden = 5" not in header
        assert not [line for line in header if line.startswith(("  max_epochs", "  batch_size"))]

    def test_report_rejects_foreign_csv(self, tmp_path, capsys):
        path = tmp_path / "other.csv"
        header = "epoch,train_loss,train_acc,val_loss,val_acc,lr,seconds\n"
        bodies = [
            (b"a,b,c\n1,2,3\n", "not a kwspot metrics CSV"),
            ((header + "1,0.5,0.5\n").encode(), "other.csv:2"),
            ((header + "1,0.5,0.5,0.5,high,0.001,0.1\n").encode(), "other.csv:2"),
            (header.encode() + b"\xff\n", "not UTF-8"),
            # fit writes at least one epoch, and its accuracies from counts
            (header.encode(), "other.csv: no epoch rows"),
            ((header + "1,0.5,0.5,0.5,nan,0.001,0.1\n").encode(),
             "other.csv:2: val_acc nan outside [0, 1]"),
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
        )), ckpt, labels=["a", "b"])
        body = bytearray(ckpt.read_bytes()[:-4])
        body[12] = 0xFF  # first metadata byte
        write_sealed_checkpoint(ckpt, bytes(body))
        code = run_cli(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path),
                        "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "model.ckpt: metadata" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    # the tests above call run_cli in process; this runs the module, whose
    # main() the kwspot console script calls, and reads its exit codes
    env = dict(os.environ, PYTHONPATH=str(Path(kwspot.__file__).parents[1]))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "kwspot.cli", *args], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)

    shown = run("--help")
    assert (shown.returncode, shown.stderr) == (0, "")
    assert shown.stdout.startswith("usage: kwspot")
    assert run().returncode == 1
    missing = run("eval", "--ckpt", "missing.ckpt", "--data", "data", "--out", "r.csv")
    assert missing.returncode == 2
    assert "Traceback" not in missing.stderr
    assert [line for line in missing.stderr.splitlines() if line] == [
        "error: [Errno 2] No such file or directory: 'missing.ckpt'"]
