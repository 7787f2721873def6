"""WAV round trips, peak normalization, stem pooling, and manifests."""

import json
import struct

import numpy as np
import pytest

from maskforge.audio_io import (
    NON_VOCAL,
    VOCAL,
    AudioBuffer,
    ManifestSong,
    StemSet,
    UnsupportedWavError,
    WavFormatError,
    WavReader,
    WavWriter,
    load_manifest,
    load_song,
    peak_normalize,
    pool_and_mix,
    read_wav,
    song_length,
    write_manifest,
    write_wav,
)


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


def test_chunked_writer_matches_write_wav(tmp_path, rng):
    samples = rng.uniform(-1, 1, 1001)
    write_wav(tmp_path / "whole.wav", AudioBuffer(samples, 16000))
    with WavWriter(tmp_path / "chunks.wav", 16000) as writer:
        for start in range(0, 1001, 300):
            writer.write(samples[start:start + 300])
    assert (tmp_path / "chunks.wav").read_bytes() == (tmp_path / "whole.wav").read_bytes()


def test_writer_removes_unfinished_file(tmp_path):
    path = tmp_path / "partial.wav"
    with pytest.raises(ValueError, match="non-finite"):
        with WavWriter(path, 8000) as writer:
            writer.write(np.zeros(10))
            writer.write(np.array([np.nan]))
    assert not path.exists()


def test_song_length_is_longest_stem_from_headers(tmp_path):
    for name, n in (("a.wav", 300), ("b.wav", 1200), ("c.wav", 5)):
        write_wav(tmp_path / name, AudioBuffer(np.ones(n), 8000))
    song = ManifestSong("s", [(tmp_path / "a.wav", VOCAL), (tmp_path / "b.wav", NON_VOCAL),
                              (tmp_path / "c.wav", VOCAL)])
    assert song_length(song) == 1200
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


def test_pool_requires_both_labels():
    with pytest.raises(ValueError, match="no non_vocal stems"):
        pool_and_mix(StemSet([_stem(np.ones(4), VOCAL)], song_id="s"))


def test_pool_names_song_and_label_of_cancelling_stems(rng):
    v = rng.uniform(-1, 1, 32)
    stems = [_stem(v, VOCAL), _stem(-v, VOCAL), _stem(rng.uniform(-1, 1, 32), NON_VOCAL)]
    with pytest.raises(ValueError, match="^song 'c' has vocal stems that sum to silence$"):
        pool_and_mix(StemSet(stems, song_id="c"))


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
    with pytest.raises(ValueError, match="bad stem label"):
        load_manifest(path)


def test_manifest_rejects_wrong_shape(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError, match="songs"):
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
])
def test_manifest_rejects_bad_entry(tmp_path, doc, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message) as info:
        load_manifest(path)
    assert str(path) in str(info.value)
