import struct

import numpy as np
import pytest

from kwspot import audio_io, dsp
from kwspot.audio_io import AudioClip, SynthSpec
from kwspot.errors import ConfigError, DatasetError, FormatError, SplitError, UnsupportedError

from conftest import extensible_fmt, riff_wave

# KSDATAFORMAT_SUBTYPE_IEEE_FLOAT, in the byte order of the file
FLOAT_SUBFORMAT = bytes.fromhex("0300000000001000800000aa00389b71")


def _write_pcm(path, pcm: np.ndarray, sample_rate=16000, channels=1, bits=16,
               audio_format=1, fmt=None):
    if fmt is None:
        fmt = b"fmt " + struct.pack(
            "<IHHIIHH", 16, audio_format, channels, sample_rate,
            sample_rate * channels * bits // 8, channels * bits // 8, bits,
        )
    path.write_bytes(riff_wave(fmt, pcm.astype("<i2").tobytes()))


class TestReadWav:
    def test_zero_clip(self, tmp_path):
        p = tmp_path / "z.wav"
        _write_pcm(p, np.zeros(16000, dtype=np.int16))
        clip = audio_io.read_wav(p)
        assert clip.sample_rate == 16000
        assert np.array_equal(clip.samples, np.zeros(16000))

    def test_short_clip_padded(self, tmp_path):
        p = tmp_path / "s.wav"
        _write_pcm(p, np.full(8000, 1000, dtype=np.int16))
        clip = audio_io.read_wav(p)
        assert len(clip.samples) == 16000
        assert np.all(clip.samples[8000:] == 0.0)
        assert np.all(clip.samples[:8000] == 1000 / 32768)

    def test_long_clip_truncated(self, tmp_path):
        p = tmp_path / "l.wav"
        _write_pcm(p, np.arange(20000, dtype=np.int16))
        samples = audio_io.read_wav(p).samples
        assert samples.tobytes() == (np.arange(16000) / 32768).tobytes()

    def test_full_scale_value(self, tmp_path):
        p = tmp_path / "f.wav"
        _write_pcm(p, np.full(16000, 32767, dtype=np.int16))
        assert audio_io.read_wav(p).samples[0] == pytest.approx(32767 / 32768)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"OGGS" + b"\x00" * 100)
        with pytest.raises(FormatError):
            audio_io.read_wav(p)

    def test_missing_data_chunk(self, tmp_path):
        p = tmp_path / "nodata.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", 4) + b"WAVE")
        with pytest.raises(FormatError):
            audio_io.read_wav(p)

    def test_short_fmt_chunk(self, tmp_path):
        p = tmp_path / "short.wav"
        _write_pcm(p, np.zeros(100, dtype=np.int16), fmt=b"fmt " + struct.pack("<I", 8) + bytes(8))
        with pytest.raises(FormatError, match=r"short\.wav: truncated fmt chunk"):
            audio_io.read_wav(p)

    def test_data_chunk_past_eof(self, tmp_path):
        p = tmp_path / "cut.wav"
        _write_pcm(p, np.zeros(100, dtype=np.int16))
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(FormatError,
                           match=r"cut\.wav: data chunk declares 200 bytes, 190 present"):
            audio_io.read_wav(p)

    def test_float_format_rejected(self, tmp_path):
        p = tmp_path / "f32.wav"
        _write_pcm(p, np.zeros(100, dtype=np.int16), audio_format=3)
        with pytest.raises(UnsupportedError):
            audio_io.read_wav(p)

    def test_extensible_pcm_reads_as_pcm(self, tmp_path):
        pcm = (np.arange(16000) % 2000 - 1000).astype(np.int16)
        _write_pcm(tmp_path / "plain.wav", pcm)
        _write_pcm(tmp_path / "ext.wav", pcm, fmt=extensible_fmt(16000))
        plain, ext = (audio_io.read_wav(tmp_path / f) for f in ("plain.wav", "ext.wav"))
        assert ext.sample_rate == plain.sample_rate == 16000
        assert np.array_equal(ext.samples, plain.samples)

    @pytest.mark.parametrize("fmt, error, message", [
        (extensible_fmt(16000, subformat=FLOAT_SUBFORMAT), UnsupportedError,
         "ext.wav: WAVE_FORMAT_EXTENSIBLE with non-PCM subformat 03000000"),
        (extensible_fmt(16000, channels=2), UnsupportedError, "ext.wav: 2 channels"),
        (extensible_fmt(16000, bits=24), UnsupportedError, "ext.wav: 24 bits/sample"),
        # the 16 PCM bytes of a fmt chunk that declares WAVE_FORMAT_EXTENSIBLE
        (b"fmt " + struct.pack("<IHHIIHH", 16, 0xFFFE, 1, 16000, 32000, 2, 16),
         FormatError, "ext.wav: WAVE_FORMAT_EXTENSIBLE fmt chunk of 16 bytes"),
    ], ids=["float", "stereo", "24-bit", "short-fmt"])
    def test_extensible_refused(self, tmp_path, fmt, error, message):
        p = tmp_path / "ext.wav"
        _write_pcm(p, np.zeros(100, dtype=np.int16), fmt=fmt)
        with pytest.raises(error, match=message):
            audio_io.read_wav(p)

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "st.wav"
        _write_pcm(p, np.zeros(100, dtype=np.int16), channels=2)
        with pytest.raises(UnsupportedError):
            audio_io.read_wav(p)

    @pytest.mark.parametrize("sample_rate", [0, 384_001, 2**31 - 1])
    def test_sample_rate_out_of_range(self, tmp_path, sample_rate):
        # a 1-second clip at the rate in the fmt chunk: a forged rate would
        # allocate up to 32 GiB (8 bytes a sample)
        p = tmp_path / "rate.wav"
        _write_pcm(p, np.zeros(100, dtype=np.int16), sample_rate=sample_rate)
        with pytest.raises(UnsupportedError, match=rf"rate\.wav: sample rate {sample_rate} Hz"):
            audio_io.read_wav(p)

    def test_chunk_id_over_sample_rate(self, tmp_path):
        # shrunk case of tests/test_fuzz.py::test_wav_mutations: "RIFF" over
        # the sample rate field reads as 1179011410 Hz, an 8.8 GiB clip
        p = tmp_path / "fuzz.wav"
        audio_io.write_wav(p, AudioClip(samples=np.zeros(32), sample_rate=8000))
        blob = bytearray(p.read_bytes())
        blob[24:28] = b"RIFF"
        p.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedError, match=r"fuzz\.wav: sample rate 1179011410 Hz"):
            audio_io.read_wav(p)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        clip = AudioClip(samples=rng.uniform(-1, 1, 4000), sample_rate=4000)
        p = tmp_path / "rt.wav"
        audio_io.write_wav(p, clip)
        back = audio_io.read_wav(p)
        assert np.abs(back.samples - clip.samples).max() <= 1 / 32768


class TestScanDataset:
    def _layout(self, tmp_path):
        for label, names in (("yes", ["a.wav", "b.wav"]), ("no", ["c.wav"])):
            d = tmp_path / label
            d.mkdir()
            for n in names:
                _write_pcm(d / n, np.zeros(100, dtype=np.int16))
        return tmp_path

    def test_enumeration(self, tmp_path):
        root = self._layout(tmp_path)
        index = audio_io.scan_dataset(root, ["yes", "no"])
        assert len(index) == 3
        paths = [str(p) for p, _ in index.entries]
        assert paths == sorted(paths)

    def test_missing_label_dir(self, tmp_path):
        root = self._layout(tmp_path)
        with pytest.raises(DatasetError, match="maybe"):
            audio_io.scan_dataset(root, ["yes", "maybe"])

    def test_empty_label_dir_allowed(self, tmp_path):
        root = self._layout(tmp_path)
        (root / "empty").mkdir()
        index = audio_io.scan_dataset(root, ["yes", "empty"])
        assert len(index) == 2

    def test_non_wav_ignored(self, tmp_path):
        root = self._layout(tmp_path)
        (root / "yes" / "readme.txt").write_text("notes")
        index = audio_io.scan_dataset(root, ["yes", "no"])
        assert len(index) == 3


class TestDatasetIndex:
    def test_duplicate_labels_refused(self):
        with pytest.raises(DatasetError, match="label_set contains duplicates"):
            audio_io.DatasetIndex(entries=(), label_set=("a", "b", "a"))

    def test_entry_of_unknown_label_refused(self):
        clip = AudioClip(np.zeros(10), 10)
        with pytest.raises(DatasetError, match="entry label 'c' not in label_set"):
            audio_io.DatasetIndex(entries=((clip, "a"), (clip, "c")), label_set=("a", "b"))


class TestSplitDataset:
    def _index(self, per_label):
        entries = []
        labels = tuple(per_label)
        for label, n in per_label.items():
            entries += [(f"{label}/{i}.wav", label) for i in range(n)]
        return audio_io.DatasetIndex(entries=tuple(entries), label_set=labels)

    def test_sizes(self):
        splits = audio_io.split_dataset(self._index({"a": 10}), (0.8, 0.1, 0.1), 7)
        assert tuple(len(s) for s in splits) == (8, 1, 1)

    def test_deterministic(self):
        index = self._index({"a": 20, "b": 15})
        s1 = audio_io.split_dataset(index, (0.8, 0.1, 0.1), 7)
        s2 = audio_io.split_dataset(index, (0.8, 0.1, 0.1), 7)
        assert all(x.entries == y.entries for x, y in zip(s1, s2))

    def test_stratified(self):
        index = self._index({"a": 50, "b": 50})
        train, _, _ = audio_io.split_dataset(index, (0.8, 0.1, 0.1), 3)
        counts = {"a": 0, "b": 0}
        for _, label in train.entries:
            counts[label] += 1
        assert counts == {"a": 40, "b": 40}

    def test_partition(self):
        index = self._index({"a": 13, "b": 9, "c": 21})
        for seed in range(5):
            splits = audio_io.split_dataset(index, (0.6, 0.2, 0.2), seed)
            merged = [e for s in splits for e in s.entries]
            assert sorted(map(str, (p for p, _ in merged))) == sorted(
                map(str, (p for p, _ in index.entries))
            )
            assert len(merged) == len(set(merged))

    def test_membership_pinned(self):
        # which clip lands in which part, recorded once: a rewrite that
        # reshuffled the parts would change every seeded training run
        index = self._index({"a": 7, "b": 5, "c": 9})
        parts = audio_io.split_dataset(index, (0.6, 0.25, 0.15), 11)
        assert [[path for path, _ in part.entries] for part in parts] == [
            ["a/3.wav", "a/1.wav", "a/4.wav", "a/5.wav", "a/2.wav",
             "b/2.wav", "b/3.wav", "b/4.wav", "b/1.wav",
             "c/2.wav", "c/3.wav", "c/8.wav", "c/0.wav", "c/1.wav", "c/4.wav"],
            ["a/0.wav", "b/0.wav", "c/6.wav", "c/7.wav"],
            ["a/6.wav", "c/5.wav"],
        ]

    def test_too_few_entries(self):
        with pytest.raises(SplitError):
            audio_io.split_dataset(self._index({"a": 2}), (0.6, 0.2, 0.2), 0)

    def test_bad_ratios(self):
        with pytest.raises(ConfigError, match="train_ratio, val_ratio and test_ratio must be"):
            audio_io.split_dataset(self._index({"a": 10}), (0.5, 0.2, 0.2), 0)

    @pytest.mark.parametrize("ratios", [
        (0.8, float("nan"), 0.1), (float("nan"), 0.1, 0.1), (float("inf"), 0.1, 0.1),
    ])
    def test_non_finite_ratio_refused(self, ratios):
        # a NaN ratio once passed the check and then failed in int(n * ratio)
        with pytest.raises(ConfigError, match="sum to 1"):
            audio_io.split_dataset(self._index({"a": 10}), ratios, 0)


class TestSynthDataset:
    def test_counts(self):
        spec = SynthSpec(3, 20, 4000, (400.0, 800.0, 1400.0), 0.05)
        index = audio_io.synth_dataset(spec, 1)
        assert len(index) == 60
        per = {}
        for _, label in index.entries:
            per[label] = per.get(label, 0) + 1
        assert set(per.values()) == {20}

    def test_deterministic(self):
        spec = SynthSpec(2, 3, 4000, (500.0, 900.0), 0.1)
        a = audio_io.synth_dataset(spec, 9)
        b = audio_io.synth_dataset(spec, 9)
        for (ca, _), (cb, _) in zip(a.entries, b.entries):
            assert np.array_equal(ca.samples, cb.samples)

    def test_noiseless_is_pure_sine(self):
        spec = SynthSpec(1, 1, 4000, (440.0,), 0.0)
        clip = audio_io.synth_dataset(spec, 5).entries[0][0]
        t = np.arange(4000) / 4000
        # recover phase from the first two samples and compare
        phase = np.arctan2(
            clip.samples[0],
            (clip.samples[1] - clip.samples[0] * np.cos(2 * np.pi * 440 / 4000))
            / np.sin(2 * np.pi * 440 / 4000),
        )
        expected = np.sin(2 * np.pi * 440.0 * t + phase)
        assert np.abs(clip.samples - expected).max() < 1e-9

    def test_dominant_bin_matches_class_frequency(self):
        # frequencies aligned to FFT bins: k * 4096 / 256 = k * 16 Hz
        spec = SynthSpec(3, 2, 4096, (448.0, 896.0, 1408.0), 0.0)
        index = audio_io.synth_dataset(spec, 11)
        for clip, label in index.entries:
            freq = spec.class_frequencies[int(label[-1])]
            frame = clip.samples[:256][None]
            spectrum = dsp.power_spectrum(frame, 256)[0]
            assert spectrum.argmax() == round(freq * 256 / 4096)

    def test_invalid_spec(self):
        with pytest.raises(DatasetError):
            SynthSpec(2, 1, 4000, (500.0, 2500.0))
        with pytest.raises(DatasetError):
            SynthSpec(2, 1, 4000, (500.0, 500.0))

    @pytest.mark.parametrize("sample_rate", [0, -8000, audio_io.MAX_SAMPLE_RATE + 1, 10**9])
    def test_sample_rate_bounded(self, sample_rate):
        # above MAX_SAMPLE_RATE read_wav refuses the written clips, and 10**9
        # would allocate 8 GB per clip
        with pytest.raises(DatasetError, match=f"sample_rate must be 1 to .*, got {sample_rate}"):
            SynthSpec(2, 1, sample_rate, (1.0, 2.0))

    @pytest.mark.parametrize("clips", [0, -3])
    def test_clips_per_class_at_least_one(self, clips):
        with pytest.raises(DatasetError, match=f"clips_per_class must be at least 1, got {clips}"):
            SynthSpec(2, clips, 4000, (500.0, 900.0))

    @pytest.mark.parametrize("amplitude", [-0.5, -1e-9])
    def test_negative_noise_refused(self, amplitude):
        # synth_dataset adds noise only above 0: a negative amplitude would
        # give clean tones without a word
        message = f"noise_amplitude must be at least 0, got {amplitude}"
        with pytest.raises(DatasetError, match=message):
            SynthSpec(2, 1, 4000, (500.0, 900.0), noise_amplitude=amplitude)

    def test_nan_frequency_refused(self):
        with pytest.raises(DatasetError, match="below Nyquist"):
            SynthSpec(2, 1, 4000, (float("nan"), 900.0))

    @pytest.mark.parametrize("frequencies", [(-100.0, 100.0), (0.0, 900.0), (500.0, -1e-9)])
    def test_non_positive_frequency_refused(self, frequencies):
        # -f Hz is the tone of f Hz up to phase, and 0 Hz a constant clip
        with pytest.raises(DatasetError, match="above 0 Hz and below Nyquist"):
            SynthSpec(2, 1, 4000, frequencies)
