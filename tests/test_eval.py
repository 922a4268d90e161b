import numpy as np
import pytest

from kwspot import eval as evaluation
from kwspot.audio_io import DatasetIndex, load_clip
from kwspot.dsp import mfcc_pipeline
from kwspot.errors import DataError
from kwspot.eval import EVAL_BATCH, confusion_matrix, emit_report, evaluate
from kwspot.models import ModelConfig, build_model, predict

from conftest import accuracy_by_label, parse_report_csv, record_calls


class TestConfusionMatrix:
    def test_identity_predictions(self):
        cm = confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], ["a", "b", "c"])
        assert np.array_equal(cm.counts, np.diag([1, 2, 1]))
        assert cm.n_samples == 4

    def test_off_diagonal_placement(self):
        # true label selects the row, prediction the column
        cm = confusion_matrix(predictions=[2], labels=[0], label_names=["a", "b", "c"])
        assert cm.counts[0, 2] == 1
        assert cm.counts.sum() == 1

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            confusion_matrix([0, 1], [0], ["a", "b"])

    def test_out_of_range(self):
        with pytest.raises(DataError):
            confusion_matrix([0, 3], [0, 1], ["a", "b", "c"])
        with pytest.raises(DataError):
            confusion_matrix([0, 1], [0, -1], ["a", "b", "c"])

    def test_label_names_give_the_classes(self):
        cm = confusion_matrix([0], [0], ["yes", "no"])
        assert cm.labels == ("yes", "no")
        assert cm.counts.shape == (2, 2)


class TestReport:
    def test_perfect_predictor(self):
        cm = confusion_matrix([0, 1, 2], [0, 1, 2], ["a", "b", "c"])
        report = cm
        assert report.overall_accuracy == 1.0
        assert accuracy_by_label(report) == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_degenerate_constant_predictor(self):
        # always predicts class 0 on a balanced two-class set
        cm = confusion_matrix([0, 0, 0, 0], [0, 0, 1, 1], ["a", "b"])
        report = cm
        assert report.overall_accuracy == 0.5
        assert accuracy_by_label(report) == {"a": 1.0, "b": 0.0}

    def test_empty_rows_absent(self):
        cm = confusion_matrix([0, 0], [0, 0], ["a", "b", "c"])
        report = cm
        assert set(accuracy_by_label(report)) == {"a"}

    def test_accuracy_identity(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, 200)
        preds = rng.integers(0, 4, 200)
        report = confusion_matrix(preds, labels, ["a", "b", "c", "d"])
        assert report.overall_accuracy == pytest.approx((preds == labels).mean())


class TestEmitAndParse:
    def _report(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, 60)
        preds = rng.integers(0, 3, 60)
        return confusion_matrix(preds, labels, ["yes", "no", "stop"])

    def test_csv_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.csv"
        emit_report(report, path)
        per_keyword, overall, n = parse_report_csv(path)
        assert n == 60
        assert overall == pytest.approx(report.overall_accuracy, abs=5e-5)
        for label, acc in accuracy_by_label(report).items():
            assert per_keyword[label] == pytest.approx(acc, abs=5e-5)

    def test_reemit_byte_identical(self, tmp_path):
        report = self._report()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(report, a)
        emit_report(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(self._report(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "label,accuracy,n"
        assert lines[-1].startswith("__overall__,")

    def test_text_format(self, tmp_path):
        path = tmp_path / "report.txt"
        emit_report(self._report(), path, fmt="text")
        text = path.read_text()
        assert "overall" in text
        assert "confusion (rows = true, columns = predicted):" in text

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DataError):
            emit_report(self._report(), tmp_path / "x", fmt="yaml")


class TestReportedFigures:
    def test_published_style_summary(self, tmp_path):
        """20 keywords, 500 clips each; the weakest keyword at 446/500 and
        the rest split so the trace is 9507: the emitted figures must come
        out as 0.8920 and 0.9507 exactly."""
        counts = np.zeros((20, 20), dtype=np.int64)
        counts[0, 0] = 446
        counts[0, 1] = 54
        counts[1, 1] = 475
        counts[1, 2] = 25
        for i in range(2, 20):
            counts[i, i] = 477
            counts[i, (i + 1) % 20] += 23
        labels = ["down"] + [f"kw{i}" for i in range(1, 20)]
        preds, truths = [], []
        for i in range(20):
            for j in range(20):
                preds += [j] * counts[i, j]
                truths += [i] * counts[i, j]
        report = confusion_matrix(preds, truths, labels)
        assert report.n_samples == 10000
        assert accuracy_by_label(report)["down"] == pytest.approx(0.892)
        assert report.overall_accuracy == pytest.approx(0.9507)
        path = tmp_path / "report.csv"
        emit_report(report, path)
        per_keyword, overall, _ = parse_report_csv(path)
        assert per_keyword["down"] == 0.892
        assert overall == 0.9507


class TestEvaluate:
    def _model(self):
        return build_model(ModelConfig(
            arch="cnn", n_classes=3, input_shape=(61, 20), conv_channels=(2,),
            dense_hidden=4, dropout_rate=0.0,
        ))

    def test_end_to_end_contract(self, synth_index, small_dsp_config):
        model = self._model()
        report = evaluate(model, synth_index, small_dsp_config, "log_mel")
        assert report.n_samples == 60
        assert report.counts.sum() == 60
        assert 0.0 <= report.overall_accuracy <= 1.0
        assert set(accuracy_by_label(report)) <= {"class0", "class1", "class2"}

    def test_matches_predict(self, synth_index, small_dsp_config):
        # eight-clip forwards give the argmax of a per-clip predict: 60 clips
        # are seven full chunks and a remainder of 4
        model = self._model()
        report = evaluate(model, synth_index, small_dsp_config, "log_mel")
        model.set_mode("infer")
        preds = [
            predict(model, mfcc_pipeline(load_clip(entry), small_dsp_config, "log_mel"))[0]
            for entry in synth_index.entries
        ]
        truths = [synth_index.class_index(label) for _, label in synth_index.entries]
        assert np.array_equal(
            report.counts, confusion_matrix(preds, truths, synth_index.label_set).counts
        )

    def test_restores_mode(self, synth_index, small_dsp_config):
        model = self._model()
        evaluate(model, synth_index, small_dsp_config, "log_mel")
        assert model.mode == "train"

    def test_too_many_labels(self, synth_index, small_dsp_config, monkeypatch):
        calls = record_calls(monkeypatch, evaluation, "featurize_index")
        model = build_model(ModelConfig(
            arch="cnn", n_classes=2, input_shape=(61, 20), conv_channels=(2,),
            dense_hidden=4,
        ))
        with pytest.raises(DataError, match="the index names 3 labels, but the model has 2 "
                                            "classes$"):
            evaluate(model, synth_index, small_dsp_config, "log_mel")
        assert calls == []  # checked before any clip is featurized

    def test_too_few_labels(self, synth_index, small_dsp_config, monkeypatch):
        # the fourth class once got the padded name class3
        calls = record_calls(monkeypatch, evaluation, "featurize_index")
        model = build_model(ModelConfig(
            arch="cnn", n_classes=4, input_shape=(61, 20), conv_channels=(2,),
            dense_hidden=4,
        ))
        with pytest.raises(DataError, match="the index names 3 labels, but the model has 4 "
                                            "classes$"):
            evaluate(model, synth_index, small_dsp_config, "log_mel")
        assert calls == []

    def test_streams_in_chunks(self, synth_index, small_dsp_config, monkeypatch):
        calls = record_calls(monkeypatch, evaluation, "featurize_index")
        evaluate(self._model(), synth_index, small_dsp_config, "log_mel")
        chunks = [args[0].entries for args, _ in calls]
        assert all(0 < len(chunk) <= EVAL_BATCH for chunk in chunks)
        assert [e for chunk in chunks for e in chunk] == list(synth_index.entries)

    def test_empty_index_names_split(self, synth_index, small_dsp_config, monkeypatch):
        calls = record_calls(monkeypatch, evaluation, "featurize_index")
        empty = DatasetIndex((), synth_index.label_set)
        with pytest.raises(DataError, match="evaluation"):
            evaluate(self._model(), empty, small_dsp_config, "log_mel")
        assert calls == []
