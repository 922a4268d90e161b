"""Mutation fuzz of files kwspot reads: the `key = value` metadata block and
the array section of a sealed checkpoint, a config file, a synth spec, a
metrics CSV and a WAV clip (plain PCM and WAVE_FORMAT_EXTENSIBLE). Every
mutated input either loads or raises a KwspotError subclass. Runs are derandomized, so a failure
reproduces on every run; each shrunk failure is kept as a plain test."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kwspot.audio_io import SynthSpec, read_wav
from kwspot.cli import parse_config, read_synth_spec
from kwspot.dsp import DspConfig
from kwspot.errors import CheckpointError, KwspotError
from kwspot.keyvalue import from_config
from kwspot.models import ARCHITECTURES, ModelConfig, build_model
from kwspot.training import EpochRecord, TrainConfig, load_checkpoint, read_metrics_csv

from conftest import SMALL_CONFIG, SYNTH_SPEC, join_metadata, write_sealed_checkpoint

FUZZ = settings(
    derandomize=True, database=None, max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def edit_lists(*fields):
    """One to four edits, each an operation followed by the given fields."""
    return st.lists(st.tuples(st.sampled_from(["insert", "replace", "delete"]), *fields),
                    min_size=1, max_size=4)


# pieces of the format more likely than random bytes to reach the checks
# behind the line syntax
TOKENS = [b"=", b",", b"#", b"\n", b" ", b"-", b"0", b"9", b"99999", b"1e308", b"nan",
          b"inf", b"\xff", b"\xc2\x85", b"arch=", b"labels=", b"dtype=", b"float64",
          b"cnn", b"train.seed=", b"conv_channels=", b"input_shape="]

edits = edit_lists(st.integers(0, 400),
                   st.sampled_from(TOKENS) | st.text("0123456789-+.e,=# \n_x", min_size=1,
                                                     max_size=3).map(str.encode))


def mutate(data: bytes, edit_list) -> bytes:
    out = bytearray(data)
    for op, pos, chunk in edit_list:
        pos %= len(out) + 1
        if op == "insert":
            out[pos:pos] = chunk
        elif op == "replace":
            out[pos:pos + len(chunk)] = chunk
        else:
            del out[pos:pos + len(chunk)]
    return bytes(out)


@FUZZ
@given(arch=st.integers(0, len(ARCHITECTURES) - 1), edit_list=edits)
def test_checkpoint_metadata_mutations(tmp_path, sealed_bodies, arch, edit_list):
    head, meta, tail = sealed_bodies[arch]
    path = tmp_path / "fuzz.ckpt"
    write_sealed_checkpoint(path, join_metadata(head, mutate(meta, edit_list), tail))
    try:
        model, values = load_checkpoint(path)
    except KwspotError as exc:
        assert "fuzz.ckpt" in str(exc)
        return
    assert from_config(ModelConfig, values) == model.config


@FUZZ
@given(arch=st.integers(0, len(ARCHITECTURES) - 1), edit_list=edits)
def test_checkpoint_array_mutations(tmp_path, sealed_bodies, arch, edit_list):
    # the CRC trailer is kept consistent, so that every mutation reaches
    # the size check; an edit that keeps the length loads its bytes as the
    # values of make_model's arrays
    head, meta, tail = sealed_bodies[arch]
    mutated = mutate(tail, edit_list)
    path = tmp_path / "fuzz.ckpt"
    write_sealed_checkpoint(path, join_metadata(head, meta, mutated))
    if len(mutated) != len(tail):
        with pytest.raises(CheckpointError, match=r"fuzz\.ckpt"):
            load_checkpoint(path)
        return
    model, _ = load_checkpoint(path)
    fresh = build_model(model.config)
    assert [(name, a.shape, a.dtype) for name, a in model.arrays()] == [
        (name, a.shape, a.dtype) for name, a in fresh.arrays()]
    assert b"".join(a.astype("<f4").tobytes() for _, a in model.arrays()) == mutated


@FUZZ
@given(edit_list=edits)
def test_config_file_mutations(tmp_path, edit_list):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(mutate(b"# small run\n" + SMALL_CONFIG.encode(), edit_list))
    try:
        cfg = parse_config(path)
        from_config(DspConfig, cfg)
        from_config(TrainConfig, cfg)
    except KwspotError:
        return


@FUZZ
@given(edit_list=edits)
def test_synth_spec_mutations(tmp_path, edit_list):
    path = tmp_path / "fuzz.spec"
    path.write_bytes(mutate(SYNTH_SPEC.encode(), edit_list))
    try:
        spec, seed = read_synth_spec(path)
    except KwspotError as exc:
        assert "fuzz.spec" in str(exc)
        return
    assert isinstance(spec, SynthSpec) and isinstance(seed, int)


# the separators and number forms of the metrics CSV
CSV_TOKENS = [b",", b"\n", b"\r", b" ", b"-", b"0", b".", b"9", b"1e999", b"nan", b"inf",
              b"\xff", b"\x00", b"epoch", b"yes"]

csv_edits = edit_lists(st.integers(0, 300),
                       st.sampled_from(CSV_TOKENS) | st.text("0123456789-+.e,\n", min_size=1,
                                                             max_size=3).map(str.encode))


@FUZZ
@given(edit_list=csv_edits)
def test_csv_mutations(tmp_path, csv_bytes, edit_list):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(mutate(csv_bytes, edit_list))
    try:
        assert all(isinstance(r, EpochRecord) for r in read_metrics_csv(path))
    except KwspotError as exc:
        assert "fuzz.csv" in str(exc)


# the chunk ids and little-endian fields of a RIFF/WAVE header, and pieces
# of WAVE_FORMAT_EXTENSIBLE's tag and SubFormat GUID
WAV_TOKENS = [b"RIFF", b"WAVE", b"fmt ", b"data", b"LIST", b"\x00", b"\x01", b"\x02",
              b"\x10", b"\xff", b"\x00\x00\x00\x00", b"\x01\x00\x00\x00",
              b"\xff\xff\xff\xff", b"\xfe\xff\xff\x7f", b"\x01\x00\x01\x00",
              b"\x03\x00", b"\x08\x00", b"\x20\x00", b"\x40\x1f\x00\x00",
              b"\xfe\xff", b"\x16\x00", b"\x28\x00\x00\x00", b"\x00\x00\x10\x00",
              b"\x80\x00\x00\xaa\x00\x38\x9b\x71"]

wav_edits = edit_lists(st.integers(0, 120),
                       st.sampled_from(WAV_TOKENS) | st.binary(min_size=1, max_size=4))


@FUZZ
@given(which=st.integers(0, 1), edit_list=wav_edits)
def test_wav_mutations(tmp_path, wav_bytes, which, edit_list):
    path = tmp_path / "fuzz.wav"
    path.write_bytes(mutate(wav_bytes[which], edit_list))
    try:
        clip = read_wav(path)
    except KwspotError as exc:
        assert "fuzz.wav" in str(exc)
        return
    assert len(clip.samples) == clip.sample_rate > 0
    assert np.all(np.abs(clip.samples) <= 1.0)
