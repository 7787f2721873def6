"""WAV round trips, peak normalization, stem pooling, manifests, and the one
output writer."""

import contextlib
import errno
import io
import json
import os
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from maskforge import audio_io
from maskforge.audio_io import (
    NON_VOCAL,
    VOCAL,
    AudioBuffer,
    ManifestError,
    ManifestSong,
    StemSet,
    UnsupportedWavError,
    WavFormatError,
    WavReader,
    check_outputs,
    landing,
    load_manifest,
    load_song,
    peak_normalize,
    pool_and_mix,
    read_wav,
    song_header,
    submix,
    wav_writer,
    write_manifest,
    write_wav,
)
from maskforge.mlp import init_model, save_model
from maskforge.model_file import FrontEnd
from maskforge.nmf import NmfModel, save_nmf
from maskforge.pipeline import write_csv


def _wav_bytes(audio_format: int, bits: int, channels: int, payload: bytes,
               sample_rate: int = 8000) -> bytes:
    """A RIFF/WAVE file holding payload as its data chunk."""
    block = bits // 8 * channels
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload) + (len(payload) & 1), b"WAVE",
        b"fmt ", 16, audio_format, channels, sample_rate, sample_rate * block, block, bits,
        b"data", len(payload),
    ) + payload + b"\x00" * (len(payload) & 1)


def _pcm16_wav_bytes(samples_i16: np.ndarray, sample_rate: int,
                     n_channels: int = 1) -> bytes:
    return _wav_bytes(1, 16, n_channels, samples_i16.astype("<i2").tobytes(), sample_rate)


# ---------------------------------------------------------------------------
# read_wav / write_wav
# ---------------------------------------------------------------------------

def test_read_one_second_of_zeros(tmp_path):
    path = tmp_path / "z.wav"
    write_wav(path, AudioBuffer(np.zeros(44100), 44100))
    buf = read_wav(path)
    assert len(buf) == 44100
    assert buf.sample_rate == 44100
    assert not np.any(buf.samples)


def test_stereo_opposite_channels_cancel(tmp_path):
    x = (np.random.default_rng(0).integers(-3000, 3000, size=50)).astype(np.int16)
    interleaved = np.empty(100, dtype=np.int16)
    interleaved[0::2] = x
    interleaved[1::2] = -x
    path = tmp_path / "s.wav"
    path.write_bytes(_pcm16_wav_bytes(interleaved, 8000, n_channels=2))
    buf = read_wav(path)
    assert len(buf) == 50
    assert not np.any(buf.samples)


def test_pcm16_full_scale_square_wave(tmp_path):
    path = tmp_path / "sq.wav"
    path.write_bytes(_pcm16_wav_bytes(np.full(16, 32767, dtype=np.int16), 8000))
    buf = read_wav(path)
    assert np.all(buf.samples == 32767.0 / 32768.0)


def test_pcm24_decoding(tmp_path):
    # hand-pack three 24-bit samples: +1 LSB, most negative, -1 LSB
    vals = [1, -(1 << 23), -1]
    body = b""
    for v in vals:
        body += int(v & 0xFFFFFF).to_bytes(3, "little")
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(body), b"WAVE",
        b"fmt ", 16, 1, 1, 8000, 8000 * 3, 3, 24,
        b"data", len(body),
    )
    path = tmp_path / "p24.wav"
    path.write_bytes(header + body)
    buf = read_wav(path)
    scale = float(1 << 23)
    assert np.allclose(buf.samples, np.array(vals) / scale, atol=0, rtol=0)


def test_float32_round_trip_bit_exact(tmp_path, rng):
    samples = rng.uniform(-1, 1, size=333).astype(np.float32).astype(np.float64)
    path = tmp_path / "f.wav"
    write_wav(path, AudioBuffer(samples, 22050))
    back = read_wav(path)
    assert back.sample_rate == 22050
    assert np.array_equal(back.samples, samples)


def test_round_trip_quantization_bounds(tmp_path, rng):
    # 1000 random buffers: 500 written as float32, 500 quantized to PCM16 by hand
    path = tmp_path / "rt.wav"
    for trial in range(500):
        samples = rng.uniform(-1, 1, size=int(rng.integers(1, 200)))
        write_wav(path, AudioBuffer(samples, 8000))
        err = np.max(np.abs(read_wav(path).samples - samples), initial=0.0)
        assert err <= 2.0 ** -24  # float32 mantissa rounding of values in [-1,1]
    for trial in range(500):
        samples = rng.uniform(-1, 1, size=int(rng.integers(1, 200)))
        quantized = np.clip(np.round(samples * 32768.0), -32768, 32767)
        path.write_bytes(_pcm16_wav_bytes(quantized, 8000))
        err = np.max(np.abs(read_wav(path).samples - samples), initial=0.0)
        assert err <= 2.0 ** -15


def test_read_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "nope.wav")


def test_read_rejects_non_riff(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"OGGSxxxxxxxxxxxxxxxx")
    with pytest.raises(WavFormatError, match="not a RIFF/WAVE"):
        read_wav(path)


def test_read_rejects_missing_data_chunk(tmp_path):
    raw = _pcm16_wav_bytes(np.zeros(4, dtype=np.int16), 8000)
    path = tmp_path / "trunc.wav"
    path.write_bytes(raw.replace(b"data", b"junk"))
    with pytest.raises(WavFormatError, match="missing data chunk"):
        read_wav(path)


def _truncated_fmt_wav_bytes(held: int) -> bytes:
    """A RIFF/WAVE file whose fmt chunk declares 16 bytes but holds fewer."""
    body = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)[:held]
    return struct.pack("<4sI4s4sI", b"RIFF", 12 + held, b"WAVE", b"fmt ", 16) + body


@pytest.mark.parametrize("held", [4, 8])
def test_read_rejects_truncated_fmt_chunk(tmp_path, held):
    path = tmp_path / "short_fmt.wav"
    path.write_bytes(_truncated_fmt_wav_bytes(held))
    assert path.stat().st_size == 20 + held
    with pytest.raises(WavFormatError, match="fmt chunk too short"):
        read_wav(path)


def test_read_rejects_extensible_format(tmp_path):
    raw = bytearray(_pcm16_wav_bytes(np.zeros(4, dtype=np.int16), 8000))
    struct.pack_into("<H", raw, 20, 0xFFFE)
    path = tmp_path / "ext.wav"
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedWavError, match="EXTENSIBLE"):
        read_wav(path)


def test_read_rejects_unsupported_bit_depth(tmp_path):
    raw = bytearray(_pcm16_wav_bytes(np.zeros(4, dtype=np.int16), 8000))
    struct.pack_into("<H", raw, 34, 8)  # claim 8-bit PCM
    path = tmp_path / "u8.wav"
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedWavError, match="unsupported codec"):
        read_wav(path)


@pytest.mark.parametrize("audio_format, bits, channels, length", [
    (1, 16, 1, 3), (1, 16, 1, 7), (1, 24, 1, 4), (1, 24, 1, 8), (3, 32, 1, 3),
    (3, 32, 1, 6), (1, 16, 2, 6), (1, 24, 2, 9), (3, 32, 3, 8),
])
def test_read_rejects_partial_frame(tmp_path, audio_format, bits, channels, length):
    path = tmp_path / "partial.wav"
    path.write_bytes(_wav_bytes(audio_format, bits, channels, bytes(length)))
    with pytest.raises(WavFormatError, match="not a whole number") as exc:
        read_wav(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("audio_format, bits, channels",
                         [(1, 16, 1), (1, 16, 2), (1, 24, 1), (3, 32, 3)])
def test_reader_ranges_equal_whole_read(tmp_path, rng, audio_format, bits, channels):
    if audio_format == 3:
        raw = rng.uniform(-1, 1, 1000 * channels).astype("<f4").tobytes()
    else:
        raw = rng.integers(0, 256, 1000 * bits // 8 * channels, dtype=np.uint8).tobytes()
    path = tmp_path / "x.wav"
    path.write_bytes(_wav_bytes(audio_format, bits, channels, raw))
    whole = read_wav(path).samples
    with WavReader(path) as reader:
        assert reader.n_samples == len(whole) == 1000 and reader.sample_rate == 8000
        for start, stop in [(0, 1000), (0, 1), (999, 1000), (313, 700), (900, 5000)]:
            assert np.array_equal(reader.read(start, stop), whole[start:stop])


def test_reader_reports_non_finite_range(tmp_path):
    samples = np.zeros(100, dtype="<f4")
    samples[70] = np.inf
    path = tmp_path / "inf.wav"
    path.write_bytes(_wav_bytes(3, 32, 1, samples.tobytes()))
    with WavReader(path) as reader:
        assert not np.any(reader.read(0, 70))
        with pytest.raises(WavFormatError, match="non-finite"):
            reader.read(60, 80)


def test_reader_refuses_a_signalling_nan_without_a_warning(tmp_path):
    # widening a float32 signalling NaN raises numpy's "invalid value" warning,
    # which the test settings turn into an error
    samples = np.zeros(100, dtype="<u4")
    samples[70] = 0x7F809EDD
    path = tmp_path / "snan.wav"
    path.write_bytes(_wav_bytes(3, 32, 1, samples.tobytes()))
    with pytest.raises(WavFormatError, match="non-finite"):
        read_wav(path)


def test_chunked_writer_matches_write_wav(tmp_path, rng):
    samples = rng.uniform(-1, 1, 1001)
    write_wav(tmp_path / "whole.wav", AudioBuffer(samples, 16000))
    with wav_writer(tmp_path / "chunks.wav", 16000) as write:
        for start in range(0, 1001, 300):
            write(samples[start:start + 300])
    assert (tmp_path / "chunks.wav").read_bytes() == (tmp_path / "whole.wav").read_bytes()


def test_writer_removes_unfinished_file(tmp_path):
    path = tmp_path / "partial.wav"
    with pytest.raises(ValueError, match="non-finite"):
        with wav_writer(path, 8000) as write:
            write(np.zeros(10))
            write(np.array([np.nan]))
    assert not path.exists()


def _write_chunks(path):
    with wav_writer(path, 8000) as write:
        for _ in range(3):
            write(np.linspace(-1, 1, 100))


_FRONT_END = FrontEnd(8000, frame_len=8, hop=4, width=1)     # 5-element windows
# each of the package's writers, writing a small valid file to a path
WRITERS = {
    "write_wav": lambda p: write_wav(p, AudioBuffer(np.linspace(-1, 1, 500), 8000)),
    "wav_writer": _write_chunks,
    "save_model": lambda p: save_model(init_model([5, 3, 5], seed=1, front_end=_FRONT_END), p),
    "save_nmf": lambda p: save_nmf(NmfModel(np.full((5, 2), 0.5), np.full((5, 3), 0.25),
                                            _FRONT_END), p),
    "write_csv": lambda p: write_csv((p, ["a,b", "1,2"])),
    "write_manifest": lambda p: write_manifest(p, [ManifestSong("s", [(Path("v.wav"), VOCAL)])]),
}


class _DiskFull(io.BufferedWriter):
    """A file whose first write stores half its bytes and then fails."""

    def write(self, data):
        super().write(bytes(data)[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _open_on_a_full_disk(path, mode="r", *args, **kwargs):
    if "w" in mode:
        return _DiskFull(io.FileIO(path, "w"))
    return open(path, mode, *args, **kwargs)


@pytest.mark.parametrize("name", WRITERS)
def test_clean_write_leaves_only_the_target(tmp_path, name):
    target = tmp_path / "out.bin"
    WRITERS[name](target)
    WRITERS[name](target)      # a second write replaces the first
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    assert target.stat().st_size > 0


@pytest.mark.parametrize("name", WRITERS)
def test_failed_write_leaves_the_old_target(tmp_path, monkeypatch, name):
    target = tmp_path / "out.bin"
    target.write_bytes(b"the old contents")
    monkeypatch.setattr(audio_io, "open", _open_on_a_full_disk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[name](target)
    assert target.read_bytes() == b"the old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    monkeypatch.undo()
    with pytest.raises(OSError):   # a missing directory fails before any file is made
        WRITERS[name](tmp_path / "missing" / "out.bin")


# 250 bytes of ASCII, and 63 four-byte UTF-8 characters (252 bytes)
LONG_NAMES = ["n" * 246 + ".wav", "\U0001f3b5" * 63]


@pytest.mark.parametrize("name", ["write_wav", "save_model"])
@pytest.mark.parametrize("target", LONG_NAMES, ids=["250_ascii_bytes", "63_utf8_chars"])
def test_any_name_the_filesystem_takes_can_be_an_output(tmp_path, name, target):
    WRITERS[name](tmp_path / target)
    assert [p.name for p in tmp_path.iterdir()] == [target]


def test_failed_wav_write_leaves_the_old_target(tmp_path):
    target = tmp_path / "out.wav"
    target.write_bytes(b"the old contents")
    buffer = AudioBuffer(np.zeros(10), 8000)
    buffer.samples[5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        write_wav(target, buffer)
    with pytest.raises(ValueError, match="non-finite"):
        with wav_writer(target, 8000) as write:
            write(np.zeros(10))
            write(np.array([np.inf]))
    assert target.read_bytes() == b"the old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out.wav"]


def test_csv_tables_land_together_or_not_at_all(tmp_path):
    first, second = tmp_path / "1.csv", tmp_path / "2.csv"
    second.write_text("old\n")
    with pytest.raises(TypeError):
        write_csv((first, ["a", "b"]), (second, ["c", None]))
    assert [p.name for p in tmp_path.iterdir()] == ["2.csv"]
    assert second.read_text() == "old\n"
    write_csv((first, ["a", "b"]), (second, ["c"]))
    assert (first.read_text(), second.read_text()) == ("a\nb\n", "c\n")


def test_a_landing_lands_its_parts_together_inner_ones_with_it(tmp_path):
    new = tmp_path / "new" / "dir"
    a, b, old = new / "a.bin", tmp_path / "b.bin", tmp_path / "old.bin"
    old.write_bytes(b"old")

    def write(path, data):
        with audio_io.output_file(path) as fh:
            fh.write(data)

    for fails in (True, False):
        with contextlib.suppress(OSError), landing([a, b, old], make=[new]):
            write(a, b"a")
            with landing([b, old]):
                write(b, b"b")
                write(old, b"new")
            # the inner landing handed its parts on: nothing has landed yet
            assert [p.suffix for p in new.iterdir()] == [".part"]
            assert not b.exists() and old.read_bytes() == b"old"
            if fails:
                raise OSError(errno.ENOSPC, "No space left on device")
        if fails:   # every part and both directories the landing made are gone
            assert sorted(p.name for p in tmp_path.iterdir()) == ["old.bin"]
    assert (a.read_bytes(), b.read_bytes(), old.read_bytes()) == (b"a", b"b", b"new")
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "a.bin", "b.bin", "dir", "new", "old.bin"]


def test_a_failed_rename_keeps_the_targets_landed_before_it(tmp_path, monkeypatch):
    # the renames are not atomic as a set: what landed stays, with its directory
    new = tmp_path / "new"
    first, second = new / "1.bin", new / "2.bin"
    rename = os.replace

    def second_fails(part, target):
        if Path(target) == second:
            raise OSError(errno.EIO, "Input/output error")
        rename(part, target)

    monkeypatch.setattr(audio_io.os, "replace", second_fails)
    with pytest.raises(OSError, match="Input/output error"):
        with landing([first, second], make=[new]):
            for path in (first, second):
                with audio_io.output_file(path) as fh:
                    fh.write(path.name.encode())
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["1.bin", "new"]


def test_a_write_in_another_thread_lands_alone(tmp_path):
    inside, outside = tmp_path / "inside.bin", tmp_path / "outside.wav"
    with landing([inside]):
        with audio_io.output_file(inside) as fh:
            fh.write(b"in")
        thread = threading.Thread(target=write_wav,
                                  args=(outside, AudioBuffer(np.zeros(4), 8000)))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert outside.is_file() and not inside.exists()
    assert inside.read_bytes() == b"in"


def test_check_outputs_refusals(tmp_path):
    src, out = tmp_path / "in.wav", tmp_path / "out.wav"
    src.write_bytes(b"input")
    check_outputs([out, tmp_path / "other.wav"], [src, src])    # inputs may repeat
    with pytest.raises(ValueError, match=r"out\.wav: an output must differ"):
        check_outputs([out, tmp_path / "." / "out.wav"])
    with pytest.raises(ValueError, match="an output must differ"):
        check_outputs([tmp_path / "sub" / ".." / "in.wav"], [src])
    with pytest.raises(OSError, match="directory is missing or not writable"):
        check_outputs([tmp_path / "missing" / "out.wav"])
    with pytest.raises(OSError, match="directory is missing or not writable"):
        check_outputs([src / "out.wav"])         # a file is no directory
    with pytest.raises(ValueError, match="not a regular file"):
        check_outputs([tmp_path])
    assert [p.name for p in tmp_path.iterdir()] == ["in.wav"]


def test_symlinked_target_is_replaced_by_a_regular_file(tmp_path):
    kept, link, loop = tmp_path / "kept.wav", tmp_path / "link.wav", tmp_path / "loop.wav"
    kept.write_bytes(b"kept")
    link.symlink_to(kept)
    loop.symlink_to(loop)
    with pytest.raises(ValueError, match="an output must differ"):
        check_outputs([link], [kept])
    check_outputs([link, loop])
    for target in (link, loop):
        write_wav(target, AudioBuffer(np.zeros(4), 8000))
        assert target.is_file() and not target.is_symlink()
    assert kept.read_bytes() == b"kept"


def test_song_length_is_longest_stem_from_headers(tmp_path):
    for name, n in (("a.wav", 300), ("b.wav", 1200), ("c.wav", 5)):
        write_wav(tmp_path / name, AudioBuffer(np.ones(n), 8000))
    song = ManifestSong("s", [(tmp_path / "a.wav", VOCAL), (tmp_path / "b.wav", NON_VOCAL),
                              (tmp_path / "c.wav", VOCAL)])
    assert song_header(song) == (1200, 8000)    # (samples, sample rate)
    assert len(pool_and_mix(load_song(song))[2]) == 1200


# ---------------------------------------------------------------------------
# peak_normalize
# ---------------------------------------------------------------------------

def test_peak_normalize_scales_to_unit():
    out = peak_normalize(AudioBuffer(np.array([0.5, -0.25]), 8000))
    assert np.array_equal(out.samples, [1.0, -0.5])


def test_peak_normalize_identity_at_unit_peak():
    samples = np.array([0.3, -1.0, 0.7])
    out = peak_normalize(AudioBuffer(samples, 8000))
    assert np.array_equal(out.samples, samples)


def test_peak_normalize_rejects_silence():
    with pytest.raises(ValueError, match="zero peak"):
        peak_normalize(AudioBuffer(np.zeros(3), 8000))


def test_peak_normalize_idempotent(rng):
    once = peak_normalize(AudioBuffer(rng.uniform(-0.2, 0.2, 64), 8000))
    twice = peak_normalize(once)
    assert np.array_equal(once.samples, twice.samples)


# ---------------------------------------------------------------------------
# pool_and_mix
# ---------------------------------------------------------------------------

def _stem(samples, label, sr=8000):
    return (AudioBuffer(np.asarray(samples, dtype=np.float64), sr), label)


def test_pool_unit_peak_stems_sum_directly(rng):
    v = rng.uniform(-1, 1, 32)
    v[3] = 1.0
    a = rng.uniform(-1, 1, 32)
    a[7] = -1.0
    vocal, nonvocal, full = pool_and_mix(StemSet([_stem(v, VOCAL), _stem(a, NON_VOCAL)]))
    assert np.array_equal(vocal.samples, v)
    assert np.array_equal(nonvocal.samples, a)
    assert np.array_equal(full.samples, v + a)


def test_pool_identical_stems_collapse(rng):
    v = rng.uniform(-1, 1, 32)
    v[0] = 1.0
    a = rng.uniform(-1, 1, 32)
    a[0] = 1.0
    stems = StemSet([_stem(v, VOCAL), _stem(v, VOCAL), _stem(a, NON_VOCAL)])
    vocal, _, _ = pool_and_mix(stems)
    assert np.allclose(vocal.samples, v, rtol=0, atol=1e-15)


def test_pool_three_stem_arithmetic_oracle(rng):
    shapes = [rng.uniform(-1, 1, 40) for _ in range(3)]
    peaks = [0.5, 0.2, 0.9]
    stems = []
    for s, p in zip(shapes, peaks):
        s = s / np.max(np.abs(s)) * p
        stems.append(s)
    a = rng.uniform(-1, 1, 40)
    pooled = pool_and_mix(StemSet(
        [_stem(s, VOCAL) for s in stems] + [_stem(a, NON_VOCAL)]
    ))[0]
    expected = sum(s / np.max(np.abs(s)) for s in stems)
    expected = expected / np.max(np.abs(expected))
    assert np.allclose(pooled.samples, expected, rtol=0, atol=1e-15)


def test_pool_zero_pads_short_stems(rng):
    v = rng.uniform(-1, 1, 20)
    v[0] = 1.0
    a = rng.uniform(-1, 1, 50)
    a[0] = 1.0
    vocal, nonvocal, full = pool_and_mix(StemSet([_stem(v, VOCAL), _stem(a, NON_VOCAL)]))
    assert len(vocal) == len(nonvocal) == len(full) == 50
    assert not np.any(vocal.samples[20:])
    assert np.array_equal(full.samples, vocal.samples + nonvocal.samples)


def test_uneven_stems_pool_exactly_as_written_out(rng):
    # several stems of each label at different lengths and peaks, the longest
    # a non-vocal one, so that both submixes are zero-padded
    shapes = [(VOCAL, 700, 0.3), (NON_VOCAL, 1200, 2.0), (VOCAL, 1000, 0.9),
              (NON_VOCAL, 90, 0.05), (VOCAL, 350, 1.7)]
    stems = StemSet([_stem(rng.uniform(-1, 1, n) * peak, label) for label, n, peak in shapes])

    def reference(label):
        total = np.zeros(1200)
        for buf, lab in stems.stems:
            if lab == label:
                total[: len(buf)] += buf.samples / np.max(np.abs(buf.samples))
        return total / np.max(np.abs(total))
    vocal, nonvocal, full = pool_and_mix(stems)
    for label, pooled in ((VOCAL, vocal), (NON_VOCAL, nonvocal)):
        assert np.array_equal(pooled.samples, reference(label))
        assert np.array_equal(submix(stems, label).samples, reference(label))
    assert np.array_equal(full.samples, reference(VOCAL) + reference(NON_VOCAL))


def test_pool_requires_both_labels():
    with pytest.raises(ValueError, match="no non_vocal stems"):
        pool_and_mix(StemSet([_stem(np.ones(4), VOCAL)], song_id="s"))


def test_pool_names_song_and_label_of_cancelling_stems(rng):
    v = rng.uniform(-1, 1, 32)
    stems = [_stem(v, VOCAL), _stem(-v, VOCAL), _stem(rng.uniform(-1, 1, 32), NON_VOCAL)]
    with pytest.raises(ValueError, match="^song 'c' has vocal stems that sum to silence$"):
        pool_and_mix(StemSet(stems, song_id="c"))


def test_pool_names_a_song_whose_submixes_cancel(rng):
    # each submix sounds, but the full mixture, their raw sum, is silent
    v = rng.uniform(-1, 1, 32)
    with pytest.raises(ValueError, match="^song 'c' has submixes that cancel to a silent "
                                         "mixture$"):
        pool_and_mix(StemSet([_stem(v, VOCAL), _stem(-v, NON_VOCAL)], song_id="c"))


def test_pool_rejects_empty():
    with pytest.raises(ValueError, match="empty stem set"):
        pool_and_mix(StemSet([]))


def test_stemset_rejects_rate_mismatch():
    with pytest.raises(ValueError, match="mismatched sample rates"):
        StemSet([_stem(np.ones(4), VOCAL, sr=8000), _stem(np.ones(4), NON_VOCAL, sr=44100)])


def test_stemset_rejects_unknown_label():
    with pytest.raises(ValueError, match="unknown stem label"):
        StemSet([_stem(np.ones(4), "drums")])


def test_audio_buffer_validation():
    with pytest.raises(ValueError, match="one-dimensional"):
        AudioBuffer(np.zeros((2, 2)), 8000)
    with pytest.raises(ValueError, match="finite"):
        AudioBuffer(np.array([0.0, np.nan]), 8000)
    with pytest.raises(ValueError, match="sample_rate"):
        AudioBuffer(np.zeros(4), 0)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_manifest_round_trip(tmp_path, rng):
    sub = tmp_path / "songs"
    sub.mkdir()
    for name in ("v.wav", "a.wav"):
        write_wav(sub / name, AudioBuffer(rng.uniform(-1, 1, 16), 8000))
    manifest = tmp_path / "corpus.json"
    manifest.write_text(json.dumps({
        "songs": [{"id": "one", "stems": [
            {"path": "songs/v.wav", "label": "vocal"},
            {"path": "songs/a.wav", "label": "non_vocal"},
        ]}]
    }))
    songs = load_manifest(manifest)
    assert len(songs) == 1
    assert songs[0].song_id == "one"
    # relative paths resolve against the manifest directory
    assert songs[0].stems[0][0] == sub / "v.wav"
    stems = load_song(songs[0])
    assert stems.song_id == "one"
    assert [label for _, label in stems.stems] == [VOCAL, NON_VOCAL]


def test_write_manifest_round_trip(tmp_path):
    songs = [ManifestSong("a", [(tmp_path / "x.wav", VOCAL),
                                (tmp_path / "y.wav", NON_VOCAL)])]
    path = tmp_path / "m.json"
    write_manifest(path, songs)
    back = load_manifest(path)
    assert back[0].song_id == "a"
    assert [(p, l) for p, l in back[0].stems] == songs[0].stems


def test_manifest_rejects_bad_label(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"songs": [{"id": "x", "stems": [
        {"path": "v.wav", "label": "drums"}]}]}))
    with pytest.raises(ManifestError, match="bad stem label"):
        load_manifest(path)


def test_manifest_rejects_wrong_shape(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ManifestError, match="songs"):
        load_manifest(path)


@pytest.mark.parametrize("doc, message", [
    ({"songs": [{"id": "x"}]}, "'stems' list"),
    ({"songs": [{"stems": []}]}, "'id'"),
    ({"songs": [{"id": "x", "stems": "v.wav"}]}, "'stems' list"),
    ({"songs": ["x"]}, "'stems' list"),
    ({"songs": [{"id": "x", "stems": [{"path": "v.wav"}]}]}, "'label'"),
    ({"songs": 3}, "'songs' list"),
    ({"songs": [{"id": "x", "stems": [{"path": 5, "label": "vocal"}]}]}, "string 'path'"),
    ({"songs": [{"id": "x", "stems": [{"path": None, "label": "vocal"}]}]}, "string 'path'"),
    ({"songs": [{"id": 7, "stems": []}]}, "string 'id'"),
    ({"songs": [{"id": ["x"], "stems": []}]}, "string 'id'"),
    ({"songs": [{"id": "x", "stems": []}]}, "song 'x' has no vocal stems"),
    ({"songs": [{"id": "x", "stems": [{"path": "v.wav", "label": "vocal"}]}]},
     "song 'x' has no non_vocal stems"),
    # each song id is one field of a per-song CSV row
    *(({"songs": [{"id": song_id, "stems": []}]}, "holds a comma, quote or line break")
      for song_id in ("duet, live", 'say "ah"', "two\nlines", "cr\r")),
])
def test_manifest_rejects_bad_entry(tmp_path, doc, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=message) as info:
        load_manifest(path)
    assert str(path) in str(info.value)
