import numpy as np
import pytest

from kwspot.errors import DataError
from kwspot.eval import (
    confusion_matrix, emit_report, evaluate, parse_report_csv,
    report_from_confusion,
)
from kwspot.models import ModelConfig, build_model


class TestConfusionMatrix:
    def test_identity_predictions(self):
        cm = confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert np.array_equal(cm.counts, np.diag([1, 2, 1]))
        assert cm.n_samples == 4

    def test_off_diagonal_placement(self):
        # true label selects the row, prediction the column
        cm = confusion_matrix(predictions=[2], labels=[0], n_classes=3)
        assert cm.counts[0, 2] == 1
        assert cm.counts.sum() == 1

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            confusion_matrix([0, 1], [0], 2)

    def test_out_of_range(self):
        with pytest.raises(DataError):
            confusion_matrix([0, 3], [0, 1], 3)
        with pytest.raises(DataError):
            confusion_matrix([0, 1], [0, -1], 3)

    def test_default_label_names(self):
        cm = confusion_matrix([0], [0], 2)
        assert cm.labels == ("0", "1")


class TestReport:
    def test_perfect_predictor(self):
        cm = confusion_matrix([0, 1, 2], [0, 1, 2], 3, ["a", "b", "c"])
        report = report_from_confusion(cm)
        assert report.overall_accuracy == 1.0
        assert report.per_keyword == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_degenerate_constant_predictor(self):
        # always predicts class 0 on a balanced two-class set
        cm = confusion_matrix([0, 0, 0, 0], [0, 0, 1, 1], 2, ["a", "b"])
        report = report_from_confusion(cm)
        assert report.overall_accuracy == 0.5
        assert report.per_keyword == {"a": 1.0, "b": 0.0}

    def test_empty_rows_absent(self):
        cm = confusion_matrix([0, 0], [0, 0], 3, ["a", "b", "c"])
        report = report_from_confusion(cm)
        assert set(report.per_keyword) == {"a"}

    def test_accuracy_identity(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, 200)
        preds = rng.integers(0, 4, 200)
        report = report_from_confusion(confusion_matrix(preds, labels, 4))
        assert report.overall_accuracy == pytest.approx((preds == labels).mean())


class TestEmitAndParse:
    def _report(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, 60)
        preds = rng.integers(0, 3, 60)
        return report_from_confusion(
            confusion_matrix(preds, labels, 3, ["yes", "no", "stop"])
        )

    def test_csv_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.csv"
        emit_report(report, path)
        per_keyword, overall, n = parse_report_csv(path)
        assert n == 60
        assert overall == pytest.approx(report.overall_accuracy, abs=5e-5)
        for label, acc in report.per_keyword.items():
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

    def test_parse_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            parse_report_csv(path)
        path.write_bytes(b"label,accuracy,n\n\xff,0.5,2\n")
        with pytest.raises(DataError, match=r"other\.csv"):
            parse_report_csv(path)
        for row in ("yes,0.9000", "yes,high,10", "__overall__,0.5000,ten",
                    "yes,0.9,10,extra"):
            path.write_text(f"label,accuracy,n\n{row}\n__overall__,0.5000,2\n")
            with pytest.raises(DataError, match=r"other\.csv:2"):
                parse_report_csv(path)

    def test_parse_requires_overall(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("label,accuracy,n\nyes,0.9000,10\n")
        with pytest.raises(DataError):
            parse_report_csv(path)


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
        report = report_from_confusion(
            confusion_matrix(preds, truths, 20, labels)
        )
        assert report.n_samples == 10000
        assert report.per_keyword["down"] == pytest.approx(0.892)
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
        report = evaluate(model, synth_index, small_dsp_config)
        assert report.n_samples == 60
        assert report.confusion.counts.sum() == 60
        assert 0.0 <= report.overall_accuracy <= 1.0
        assert set(report.per_keyword) <= {"class0", "class1", "class2"}

    def test_restores_mode(self, synth_index, small_dsp_config):
        model = self._model()
        evaluate(model, synth_index, small_dsp_config)
        assert model.mode == "train"

    def test_too_many_labels(self, synth_index, small_dsp_config):
        model = build_model(ModelConfig(
            arch="cnn", n_classes=2, input_shape=(61, 20), conv_channels=(2,),
            dense_hidden=4,
        ))
        with pytest.raises(DataError):
            evaluate(model, synth_index, small_dsp_config)
