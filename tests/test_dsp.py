import numpy as np
import pytest

from kwspot import dsp
from kwspot.audio_io import AudioClip
from kwspot.errors import ConfigError, DspError

from conftest import record_calls
from oracles import naive_dct_ii, naive_dft_power, naive_mel_energies, naive_mel_filterbank


class TestConfig:
    @pytest.mark.parametrize("hop_len", [0, -64])
    def test_hop_below_one_rejected(self, hop_len):
        with pytest.raises(ConfigError, match=f"hop_len must be at least 1, got {hop_len}"):
            dsp.DspConfig(hop_len=hop_len)

    @pytest.mark.parametrize("frame_len", [1, 0])
    def test_frame_below_two_rejected(self, frame_len):
        # a Hamming window of one sample would divide by frame_len - 1 = 0
        with pytest.raises(ConfigError, match=f"frame_len must be at least 2, got {frame_len}"):
            dsp.DspConfig(frame_len=frame_len, hop_len=1)

    def test_frame_longer_than_a_clip_rejected(self):
        # a 1-second clip would hold no frame; this used to fail only inside
        # frame_signal, once a clip was featurized
        with pytest.raises(ConfigError, match="frame_len 4096 exceeds sample_rate 4000"):
            dsp.DspConfig(sample_rate=4000, frame_len=4096, hop_len=64, n_fft=4096,
                          fmax=1900.0)

    def test_frame_of_one_second_accepted(self):
        config = dsp.DspConfig(sample_rate=4000, frame_len=4000, hop_len=64, n_fft=4096,
                               fmax=1900.0)
        assert dsp.feature_shape(config, "log_mel") == (1, 40)

    def test_sample_rate_above_wav_bound_rejected(self):
        # the front end once tried to allocate a 109 TiB frame array
        with pytest.raises(ConfigError, match="sample_rate must be at most 384000 Hz, got 384001"):
            dsp.DspConfig(sample_rate=384_001)

    @pytest.mark.parametrize("sample_rate,n_fft", [(4000, 4096), (4096, 4096),
                                                   (4097, 8192), (384_000, 524_288)])
    def test_n_fft_of_at_most_a_second_accepted(self, sample_rate, n_fft):
        dsp.DspConfig(sample_rate=sample_rate, n_fft=n_fft, fmax=1900.0)

    @pytest.mark.parametrize("sample_rate,n_fft,bound", [(4000, 8192, 4096), (4096, 8192, 4096),
                                                         (16000, 2 ** 44, 16384)])
    def test_n_fft_past_a_second_rejected(self, sample_rate, n_fft, bound):
        # the FFT once tried to allocate a 12.3 PiB spectrum
        with pytest.raises(ConfigError, match=f"n_fft {n_fft} exceeds {bound}, the smallest "
                                           f"power of two >= sample_rate {sample_rate}"):
            dsp.DspConfig(sample_rate=sample_rate, n_fft=n_fft, fmax=1900.0)

    @pytest.mark.parametrize("fmin", [-5000.0, -1e-9])
    def test_negative_fmin_rejected(self, fmin):
        with pytest.raises(ConfigError, match=f"fmin must be at least 0, got {fmin}"):
            dsp.DspConfig(fmin=fmin)

    def test_zero_fmin_accepted(self):
        assert dsp.DspConfig(fmin=0.0).fmin == 0.0

    @pytest.mark.parametrize("log_floor", [float("nan"), float("inf"), 0.0, -1e-10])
    def test_log_floor_out_of_range_rejected(self, log_floor):
        # a NaN floor lets log(0) through as -inf; an infinite one makes
        # every feature inf
        with pytest.raises(ConfigError,
                           match=f"log_floor must be finite and positive, got {log_floor}"):
            dsp.DspConfig(log_floor=log_floor)

    def test_hop_longer_than_frame_rejected(self):
        # a hop past the frame would skip samples between frames
        with pytest.raises(ConfigError, match="hop_len 401 exceeds frame_len 400"):
            dsp.DspConfig(hop_len=401)

    def test_fmax_above_nyquist_rejected(self):
        with pytest.raises(ConfigError, match="fmax 8000.0 above Nyquist 4000.0"):
            dsp.DspConfig(sample_rate=8000)

    @pytest.mark.parametrize("n_mfcc", [0, -3])
    def test_n_mfcc_below_one_rejected(self, n_mfcc):
        # dct_ii would slice a negative n_mfcc from the end of its basis
        with pytest.raises(ConfigError, match=f"n_mfcc must be at least 1, got {n_mfcc}"):
            dsp.DspConfig(n_mfcc=n_mfcc)


class TestPreEmphasis:
    def test_alpha_zero_is_identity(self):
        x = np.random.default_rng(0).normal(size=100)
        assert np.array_equal(dsp.pre_emphasis(x, 0.0), x)

    def test_hand_computed(self):
        out = dsp.pre_emphasis(np.array([1.0, 1.0, 1.0]), 0.97)
        np.testing.assert_allclose(out, [1.0, 0.03, 0.03], atol=1e-15)

    def test_dc_attenuation(self):
        out = dsp.pre_emphasis(np.full(50, 2.0), 0.9)
        np.testing.assert_allclose(out[1:], (1 - 0.9) * 2.0, atol=1e-12)


class TestFraming:
    def test_one_second_default(self):
        frames = dsp.frame_signal(np.zeros(16000), 400, 160)
        assert frames.shape == (98, 400)

    def test_single_frame_boundary(self):
        assert dsp.frame_signal(np.zeros(400), 400, 160).shape == (1, 400)

    def test_too_short_rejected(self):
        with pytest.raises(DspError):
            dsp.frame_signal(np.zeros(399), 400, 160)

    def test_frame_contents(self):
        sig = np.arange(20.0)
        frames = dsp.frame_signal(sig, 8, 4)
        assert np.array_equal(frames[1], sig[4:12])

    def test_read_only_view(self):
        sig = np.arange(20.0)
        frames = dsp.frame_signal(sig, 8, 4)
        assert np.shares_memory(frames, sig)
        assert not frames.flags.writeable


class TestWindow:
    def test_hamming_endpoints(self):
        frames = np.ones((1, 65))
        out = dsp.apply_window(frames)
        assert out[0, 0] == pytest.approx(0.08)
        assert out[0, 32] == pytest.approx(1.0)  # midpoint of odd N


class TestPowerSpectrum:
    def test_zero_frame(self):
        out = dsp.power_spectrum(np.zeros((2, 64)), 64)
        assert np.array_equal(out, np.zeros((2, 33)))

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(2)
        for n_fft in (64, 128):
            frames = rng.normal(size=(5, n_fft))
            fast = dsp.power_spectrum(frames, n_fft)
            for i in range(5):
                slow = naive_dft_power(frames[i], n_fft)
                assert np.abs(fast[i] - slow).max() < 1e-6

    def test_sine_at_bin_concentrates(self):
        n_fft = 128
        k0 = 12
        t = np.arange(n_fft)
        frame = np.sin(2 * np.pi * k0 * t / n_fft)
        spec = dsp.power_spectrum(frame[None], n_fft)[0]
        assert spec.argmax() == k0

    def test_parseval(self):
        rng = np.random.default_rng(3)
        frame = rng.normal(size=256)
        full = np.abs(np.fft.fft(frame, 256)) ** 2
        time_energy = np.sum(frame ** 2)
        freq_energy = full.sum() / 256
        assert abs(time_energy - freq_energy) / time_energy < 1e-9


class TestFilterbank:
    def test_peak_and_feet(self, small_dsp_config):
        bank = dsp.build_mel_filterbank(small_dsp_config)
        bins = bank.center_bins
        for m in range(small_dsp_config.n_mel_filters):
            assert bank.weights[m, bins[m + 1]] == 1.0
            assert bank.weights[m, bins[m]] == 0.0
            assert bank.weights[m, bins[m + 2]] == 0.0

    def test_partition_of_unity(self, small_dsp_config):
        bank = dsp.build_mel_filterbank(small_dsp_config)
        total = bank.weights.sum(axis=0)
        lo, hi = bank.center_bins[1], bank.center_bins[-2]
        assert np.abs(total[lo:hi + 1] - 1.0).max() < 1e-9

    def test_rows_zero_outside_support(self, small_dsp_config):
        bank = dsp.build_mel_filterbank(small_dsp_config)
        bins = bank.center_bins
        k = np.arange(bank.weights.shape[1])
        for m in range(bank.weights.shape[0]):
            outside = (k < bins[m]) | (k > bins[m + 2])
            assert np.all(bank.weights[m, outside] == 0.0)

    def test_cached_per_config_and_read_only(self, small_dsp_config):
        bank = dsp.build_mel_filterbank(small_dsp_config)
        same = dsp.build_mel_filterbank(dsp.DspConfig(**vars(small_dsp_config)))
        assert same is bank
        assert dsp.build_mel_filterbank(dsp.DspConfig()) is not bank
        with pytest.raises(ValueError):
            bank.weights[0, 0] = 1.0
        with pytest.raises(ValueError):
            bank.center_bins[0] = 0

    @pytest.mark.parametrize("config", [
        dsp.DspConfig(),  # paper scale
        dsp.DspConfig(sample_rate=4000, frame_len=128, hop_len=64, n_fft=128,
                      n_mel_filters=20, fmin=50.0, fmax=1900.0),  # the README's
        dsp.DspConfig(fmin=0.0),
        # n_mel_filters at its bound of n_fft // 2 - 1: every bin an edge
        dsp.DspConfig(sample_rate=64, frame_len=32, hop_len=16, n_fft=32,
                      n_mel_filters=15, n_mfcc=10, fmin=0.0, fmax=32.0),
    ], ids=["paper", "readme", "fmin0", "bound"])
    def test_matches_row_loop_bit_for_bit(self, config):
        bank = dsp.build_mel_filterbank(config)
        want = naive_mel_filterbank(bank.center_bins, config.n_fft // 2 + 1)
        assert bank.weights.tobytes() == want.tobytes()

    def test_collapsed_bins_rejected(self):
        # under DspConfig's bound of n_fft // 2 - 1 = 31 filters, yet the
        # low filters' mel-spaced edges share a bin
        config = dsp.DspConfig(
            sample_rate=16000, frame_len=64, hop_len=32, n_fft=64,
            n_mel_filters=30, n_mfcc=10, fmin=20.0, fmax=8000.0,
        )
        with pytest.raises(DspError, match="collapsed onto the same FFT bin"):
            dsp.build_mel_filterbank(config)


class TestMelEnergies:
    def test_zero_spectra(self, small_dsp_config):
        bank = dsp.build_mel_filterbank(small_dsp_config)
        out = dsp.mel_energies(np.zeros((4, bank.weights.shape[1])), bank)
        assert np.array_equal(out, np.zeros((4, 20)))

    def test_unit_peak_at_center(self, small_dsp_config):
        bank = dsp.build_mel_filterbank(small_dsp_config)
        spectra = np.zeros((1, bank.weights.shape[1]))
        spectra[0, bank.center_bins[3]] = 1.0  # center of filter 2
        out = dsp.mel_energies(spectra, bank)
        assert out[0, 2] == 1.0

    def test_matches_double_loop(self, small_dsp_config):
        bank = dsp.build_mel_filterbank(small_dsp_config)
        rng = np.random.default_rng(4)
        spectra = rng.uniform(size=(6, bank.weights.shape[1]))
        fast = dsp.mel_energies(spectra, bank)
        slow = naive_mel_energies(spectra, bank.weights)
        assert np.all(np.abs(fast - slow) <= 1e-12 * np.maximum(1.0, np.abs(slow)))

    def test_dimension_mismatch(self, small_dsp_config):
        bank = dsp.build_mel_filterbank(small_dsp_config)
        with pytest.raises(DspError):
            dsp.mel_energies(np.zeros((2, 10)), bank)


class TestLogCompress:
    def test_floor(self):
        out = dsp.log_compress(np.array([[0.0]]), 1e-10)
        assert out[0, 0] == pytest.approx(np.log(1e-10))

    def test_identity_point(self):
        assert dsp.log_compress(np.array([[np.e]]), 1e-10)[0, 0] == pytest.approx(1.0)

    def test_monotone(self):
        rng = np.random.default_rng(5)
        e = np.sort(rng.uniform(1e-3, 10.0, 50))
        out = dsp.log_compress(e[None], 1e-10)[0]
        assert np.all(np.diff(out) > 0)


class TestDct:
    def test_constant_row(self):
        m = 16
        out = dsp.dct_ii(np.ones((1, m)), m)
        assert out[0, 0] == pytest.approx(np.sqrt(m))
        assert np.abs(out[0, 1:]).max() < 1e-12

    def test_orthonormal_round_trip(self):
        rng = np.random.default_rng(6)
        m = 12
        x = rng.normal(size=(3, m))
        y = dsp.dct_ii(x, m)
        # inverse via the transposed orthonormal basis: the transform of
        # the identity holds the basis vectors as its columns
        back = y @ naive_dct_ii(np.eye(m), m).T
        assert np.abs(back - x).max() < 1e-9
        assert np.sum(y ** 2) == pytest.approx(np.sum(x ** 2))

    def test_matches_double_loop(self):
        rng = np.random.default_rng(7)
        m, n_keep = 10, 6
        x = rng.normal(size=(2, m))
        fast = dsp.dct_ii(x, n_keep)
        assert np.abs(fast - naive_dct_ii(x, n_keep)).max() < 1e-9


class TestPipeline:
    def test_default_shape(self):
        clip = AudioClip(samples=np.zeros(16000), sample_rate=16000)
        features = dsp.mfcc_pipeline(clip, dsp.DspConfig(), "mfcc")
        assert features.values.shape == (98, 20)

    def test_zero_clip_constant_rows(self, small_dsp_config):
        clip = AudioClip(samples=np.zeros(4000), sample_rate=4000)
        features = dsp.mfcc_pipeline(clip, small_dsp_config, "mfcc")
        assert np.abs(features.values - features.values[0]).max() < 1e-12

    def test_log_mel_kind(self, small_dsp_config):
        clip = AudioClip(samples=np.zeros(4000), sample_rate=4000)
        features = dsp.mfcc_pipeline(clip, small_dsp_config, "log_mel")
        assert features.values.shape == (61, 20)

    def test_unknown_kind_rejected(self, small_dsp_config):
        clip = AudioClip(samples=np.zeros(4000), sample_rate=4000)
        with pytest.raises(DspError, match="unknown feature kind 'logmel'"):
            dsp.mfcc_pipeline(clip, small_dsp_config, "logmel")

    def test_unknown_kind_rejected_before_the_front_end_runs(self, small_dsp_config,
                                                             monkeypatch):
        calls = record_calls(monkeypatch, dsp, "power_spectrum")
        clip = AudioClip(samples=np.zeros(4000), sample_rate=4000)
        with pytest.raises(DspError, match="unknown feature kind 'logmel'"):
            dsp.mfcc_pipeline(clip, small_dsp_config, "logmel")
        assert calls == []
        dsp.mfcc_pipeline(clip, small_dsp_config, "log_mel")
        assert len(calls) == 1  # the spy sits on the pipeline's path

    def test_deterministic(self, small_dsp_config):
        rng = np.random.default_rng(8)
        clip = AudioClip(samples=rng.uniform(-1, 1, 4000), sample_rate=4000)
        a = dsp.mfcc_pipeline(clip, small_dsp_config, "mfcc")
        b = dsp.mfcc_pipeline(clip, small_dsp_config, "mfcc")
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("kind", dsp.FEATURE_KINDS)
    def test_non_finite_clip_refused(self, small_dsp_config, kind):
        samples = np.zeros(4000)
        samples[1000] = np.nan  # an in-memory clip; read_wav gives finite samples
        with pytest.raises(DspError, match="feature matrix contains non-finite values"):
            dsp.mfcc_pipeline(AudioClip(samples, 4000), small_dsp_config, kind)

    def test_sample_rate_mismatch(self, small_dsp_config):
        clip = AudioClip(samples=np.zeros(16000), sample_rate=16000)
        with pytest.raises(DspError):
            dsp.mfcc_pipeline(clip, small_dsp_config, "mfcc")

    def test_frame_count_matches_invariant(self):
        for frame_len, hop in ((400, 160), (512, 128), (256, 256)):
            cfg = dsp.DspConfig(frame_len=frame_len, hop_len=hop)
            clip = AudioClip(samples=np.zeros(16000), sample_rate=16000)
            features = dsp.mfcc_pipeline(clip, cfg, "mfcc")
            assert features.values.shape[0] == 1 + (16000 - frame_len) // hop


PIPELINE_CONFIGS = {
    "default": dsp.DspConfig(),
    "readme_4khz": dsp.DspConfig(sample_rate=4000, frame_len=128, hop_len=64, n_fft=128,
                                 n_mel_filters=20, fmin=50.0, fmax=1900.0),
    "hop_is_frame": dsp.DspConfig(hop_len=400),
    "n_fft_1024": dsp.DspConfig(n_fft=1024),
}


class TestPipelineStages:
    """mfcc_pipeline is the public stages chained, called one by one here;
    the features must be equal bit for bit, and of dsp.feature_shape."""

    @staticmethod
    def _stages(samples, config, kind):
        frames = dsp.frame_signal(dsp.pre_emphasis(samples, config.pre_emphasis_alpha),
                                  config.frame_len, config.hop_len)
        spectra = dsp.power_spectrum(dsp.apply_window(frames), config.n_fft)
        logmel = dsp.log_compress(dsp.mel_energies(spectra, dsp.build_mel_filterbank(config)),
                                  config.log_floor)
        return logmel if kind == "log_mel" else dsp.dct_ii(logmel, config.n_mfcc)

    @pytest.mark.parametrize("name", PIPELINE_CONFIGS)
    @pytest.mark.parametrize("kind", dsp.FEATURE_KINDS)
    def test_matches_stage_by_stage(self, name, kind):
        config = PIPELINE_CONFIGS[name]
        rng = np.random.default_rng(len(name))
        n = config.sample_rate
        for samples in (np.zeros(n), rng.uniform(-1, 1, n), rng.normal(0, 0.05, n)):
            got = dsp.mfcc_pipeline(AudioClip(samples, n), config, kind).values
            want = self._stages(samples, config, kind)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.shape == dsp.feature_shape(config, kind)

    def test_one_power_spectrum_per_clip(self, monkeypatch, small_dsp_config):
        calls = record_calls(monkeypatch, dsp, "power_spectrum")
        rng = np.random.default_rng(9)
        for _ in range(3):
            dsp.mfcc_pipeline(AudioClip(rng.uniform(-1, 1, 4000), 4000), small_dsp_config, "mfcc")
        assert [args[0].shape for args, _ in calls] == [(61, 128)] * 3
