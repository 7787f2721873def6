"""Analysis/synthesis transform: window, COLA, round trips, magnitude."""

import importlib

import numpy as np
import pytest

from maskforge.audio_io import AudioBuffer
from maskforge.stft import (
    ComplexSpectrogram,
    InverseStft,
    StftConfig,
    hann_window,
    istft,
    magnitude,
    n_frames_for,
    ola_accumulate,
    overlap_add,
    stft,
    strided_frames,
)


def _buf(samples, sr=44100):
    return AudioBuffer(np.asarray(samples, dtype=np.float64), sr)


# ---------------------------------------------------------------------------
# window
# ---------------------------------------------------------------------------

def test_hann_window_n4_values():
    assert np.allclose(hann_window(4), [0.0, 0.5, 1.0, 0.5], rtol=0, atol=1e-15)


def test_hann_window_periodic_not_symmetric():
    # the periodic variant drops the final sample of the symmetric window
    w = hann_window(8)
    assert w[0] == 0.0
    assert w[-1] != 0.0
    k = np.arange(8)
    assert np.allclose(w, 0.5 * (1.0 - np.cos(2.0 * np.pi * k / 8)))


def test_hann_window_cola_at_quarter_hop():
    n = 64
    hop = n // 4
    w = hann_window(n)
    acc = np.zeros(n + 3 * hop)
    for i in range(4):
        acc[i * hop:i * hop + n] += w
    interior = acc[n - hop: -n + hop]
    assert np.allclose(interior, 2.0, rtol=0, atol=1e-12)


def test_hann_window_rejects_bad_sizes():
    with pytest.raises(ValueError):
        hann_window(1)


# ---------------------------------------------------------------------------
# config and frame math
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        StftConfig(frame_len=3, hop=1)
    with pytest.raises(ValueError):
        StftConfig(frame_len=8, hop=0)
    with pytest.raises(ValueError):
        StftConfig(frame_len=8, hop=9)
    assert StftConfig(frame_len=512, hop=128).n_bins == 257


def test_n_frames_formula():
    cfg = StftConfig(frame_len=8, hop=2)
    # N = ceil((len - frame) / hop) + 1 once len exceeds one frame
    assert n_frames_for(8, cfg) == 1
    assert n_frames_for(5, cfg) == 1
    assert n_frames_for(9, cfg) == 2
    assert n_frames_for(10, cfg) == 2
    assert n_frames_for(11, cfg) == 3
    cfg2 = StftConfig(frame_len=2048, hop=512)
    length = 44100
    expected = int(np.ceil((length - 2048) / 512)) + 1
    assert n_frames_for(length, cfg2) == expected


# ---------------------------------------------------------------------------
# forward transform properties
# ---------------------------------------------------------------------------

def test_bin_centred_cosine_magnitude():
    # a cosine exactly on bin k concentrates all energy at k with only
    # single-bin leakage either side from the window's spectrum
    n = 256
    cfg = StftConfig(frame_len=n, hop=n // 4)
    for k in (3, 17, 60):
        t = np.arange(4 * n)
        x = np.cos(2.0 * np.pi * k * t / n)
        spec = stft(_buf(x), cfg)
        mags = np.abs(spec.bins[:, 4])  # interior frame
        expected_peak = hann_window(n).sum() / 2.0
        assert abs(mags[k] - expected_peak) / expected_peak < 1e-9
        far = np.ones(cfg.n_bins, dtype=bool)
        far[max(k - 1, 0):k + 2] = False
        assert np.max(mags[far]) / expected_peak < 1e-10


def test_forward_linearity(rng):
    cfg = StftConfig(frame_len=64, hop=16)
    x = rng.standard_normal(500)
    y = rng.standard_normal(500)
    a, b = 2.5, -1.25
    lhs = stft(_buf(a * x + b * y), cfg).bins
    rhs = a * stft(_buf(x), cfg).bins + b * stft(_buf(y), cfg).bins
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-9)


@pytest.mark.parametrize("length", [40, 300, 303])   # shorter than a frame, ragged tails
def test_stft_frames_bit_identical_to_per_frame_slices(rng, length):
    cfg = StftConfig(frame_len=64, hop=24)
    x = rng.standard_normal(length)
    spec = stft(_buf(x), cfg)
    padded = np.zeros((spec.n_frames - 1) * cfg.hop + cfg.frame_len)
    padded[:length] = x
    segs = np.stack([padded[m * cfg.hop:m * cfg.hop + cfg.frame_len] * hann_window(64)
                     for m in range(spec.n_frames)])
    assert np.array_equal(spec.bins, np.fft.rfft(segs, axis=1).T)


def test_windowed_parseval_per_frame(rng):
    # energy of each windowed frame matches its DFT energy / dft_size
    n = 64
    cfg = StftConfig(frame_len=n, hop=16)
    x = rng.standard_normal(300)
    spec = stft(_buf(x), cfg)
    w = hann_window(n)
    padded = np.zeros((spec.n_frames - 1) * cfg.hop + n)
    padded[:len(x)] = x
    for f in range(spec.n_frames):
        frame = padded[f * cfg.hop: f * cfg.hop + n] * w
        time_energy = np.sum(frame ** 2)
        full = np.fft.fft(frame)
        freq_energy = np.sum(np.abs(full) ** 2) / n
        assert abs(time_energy - freq_energy) <= 1e-9 * max(time_energy, 1.0)


def test_zero_signal_gives_zero_grid():
    cfg = StftConfig(frame_len=32, hop=8)
    spec = stft(_buf(np.zeros(100)), cfg)
    assert not np.any(spec.bins)
    assert spec.original_len == 100


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

def test_round_trip_tone_interior():
    sr = 44100
    t = np.arange(sr) / sr
    x = 0.8 * np.sin(2.0 * np.pi * 440.0 * t)
    cfg = StftConfig(frame_len=2048, hop=512)
    y = istft(stft(_buf(x, sr), cfg))
    assert y.sample_rate == sr
    assert len(y) == len(x)
    inner = slice(cfg.frame_len, -cfg.frame_len)
    assert np.max(np.abs(y.samples[inner] - x[inner])) < 1e-6


def test_round_trip_noise_various_lengths(rng):
    cfg = StftConfig(frame_len=64, hop=16)
    for length in (64, 65, 100, 127, 128, 1000):
        x = rng.standard_normal(length)
        y = istft(stft(_buf(x), cfg))
        assert len(y) == length
        if length > 2 * cfg.frame_len:
            inner = slice(cfg.frame_len, -cfg.frame_len)
            err = np.abs(y.samples[inner] - x[inner])
            assert np.max(err) < 1e-10


def test_round_trip_preserves_sample_rate():
    buf = _buf(np.sin(np.arange(4000) / 30.0), 22050)
    cfg = StftConfig(frame_len=512, hop=128)
    spec = stft(buf, cfg)
    assert spec.sample_rate == 22050
    y = istft(spec)
    assert y.sample_rate == 22050
    inner = slice(512, -512)
    assert np.max(np.abs(y.samples[inner] - buf.samples[inner])) < 1e-10


def test_istft_single_frame_signal():
    # shorter than one frame: padded, transformed, trimmed back
    cfg = StftConfig(frame_len=32, hop=8)
    x = np.linspace(-1, 1, 10)
    spec = stft(_buf(x), cfg)
    assert spec.bins.shape == (17, 1)
    y = istft(spec)
    assert len(y) == 10


def test_istft_rejects_vanishing_envelope(monkeypatch):
    cfg = StftConfig(frame_len=32, hop=8)
    spec = stft(_buf(np.linspace(-1, 1, 200)), cfg)

    def zero_envelope(frames, window, hop, out_len):
        return np.zeros(out_len), np.zeros(out_len)

    # the package re-exports the function stft, which hides the module's name
    monkeypatch.setattr(importlib.import_module("maskforge.stft"), "ola_accumulate",
                        zero_envelope)
    with pytest.raises(ValueError, match="envelope vanishes"):
        istft(spec)


def _whole_istft(spec):
    """The inverse as one whole-grid computation: every frame transformed,
    overlap-added and divided at once (np.where in place of np.divide)."""
    cfg = spec.config
    frames = np.fft.irfft(spec.bins.T, n=cfg.frame_len, axis=1)
    out_len = (spec.n_frames - 1) * cfg.hop + cfg.frame_len
    acc, env = ola_accumulate(frames, hann_window(cfg.frame_len), cfg.hop, out_len)
    samples = np.where(env > 1e-12, acc / np.maximum(env, 1e-12), 0.0)
    return samples[:spec.original_len]


@pytest.mark.parametrize("frame_len, hop", [(32, 8), (32, 12), (32, 16), (32, 32), (64, 24)])
@pytest.mark.parametrize("length", [5, 32, 33, 200, 517])
def test_inverse_in_blocks_equals_whole_grid(rng, frame_len, hop, length):
    cfg = StftConfig(frame_len=frame_len, hop=hop)
    spec = stft(_buf(rng.uniform(-1, 1, length)), cfg)
    spec.bins *= rng.integers(0, 2, spec.bins.shape)      # a masked, inconsistent grid
    expect = _whole_istft(spec)
    assert np.array_equal(istft(spec).samples, expect)
    for block in (1, 2, 3, 7):
        inverse = InverseStft(cfg, spec.n_frames, length)
        got = np.concatenate([inverse.push(spec.bins[:, a:a + block])
                              for a in range(0, spec.n_frames, block)])
        assert np.array_equal(got, expect), block


def test_block_stft_equals_whole_columns(rng):
    # a block's STFT taken from just the samples its frames cover
    cfg = StftConfig(frame_len=64, hop=16)
    x = rng.uniform(-1, 1, 1003)
    whole = stft(_buf(x), cfg).bins
    N = whole.shape[1]
    for a, b in [(0, 1), (0, N), (5, 17), (N - 3, N), (N - 1, N)]:
        part = stft(_buf(x[a * cfg.hop:min(len(x), (b - 1) * cfg.hop + cfg.frame_len)]), cfg)
        assert np.array_equal(part.bins, whole[:, a:b])


# ---------------------------------------------------------------------------
# magnitude
# ---------------------------------------------------------------------------

def test_magnitude_is_abs_of_bins(rng):
    cfg = StftConfig(frame_len=64, hop=16)
    spec = stft(_buf(rng.standard_normal(400)), cfg)
    mag = magnitude(spec)
    assert isinstance(mag, np.ndarray) and mag.dtype == np.float64
    assert np.all(mag >= 0)
    assert np.array_equal(mag, np.abs(spec.bins))


def test_spectrogram_validation():
    cfg = StftConfig(frame_len=16, hop=4)
    with pytest.raises(ValueError):
        ComplexSpectrogram(np.zeros((5, 3), dtype=complex), cfg, 40)
    with pytest.raises(ValueError):
        bad = np.zeros((9, 3), dtype=complex)
        bad[0, 0] = np.nan
        ComplexSpectrogram(bad, cfg, 40)


# ---------------------------------------------------------------------------
# overlap-add accumulation
# ---------------------------------------------------------------------------

def test_ola_single_frame():
    frames = np.array([[1.0, 2.0, 3.0, 4.0]])
    window = np.array([0.0, 0.5, 1.0, 0.5])
    acc, env = ola_accumulate(frames, window, hop=1, out_len=4)
    assert np.array_equal(acc, frames[0] * window)
    assert np.array_equal(env, window ** 2)


def test_ola_two_overlapping_frames():
    frames = np.ones((2, 4))
    window = np.array([0.0, 0.5, 1.0, 0.5])
    acc, env = ola_accumulate(frames, window, hop=2, out_len=6)
    expect_acc = np.zeros(6)
    expect_acc[:4] += window
    expect_acc[2:] += window
    assert np.array_equal(acc, expect_acc)
    expect_env = np.zeros(6)
    expect_env[:4] += window ** 2
    expect_env[2:] += window ** 2
    assert np.array_equal(env, expect_env)


def _brute_overlap_add(segments, hop, out):
    for p, seg in enumerate(segments):
        out[p * hop:p * hop + len(seg)] += seg


@pytest.mark.parametrize("hop", [2, 4, 6, 9])   # divides L = 6, does not, = L, > L
@pytest.mark.parametrize("trailing", [(), (3,)])
def test_overlap_add_matches_segment_loop_exactly(rng, hop, trailing):
    # magnitudes spread over 16 decades, so any change of summation order shows
    P, L = 7, 6
    shape = (P, L, *trailing)
    segments = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    start = rng.standard_normal(((P - 1) * hop + L + 3, *trailing))
    got, expect = start.copy(), start.copy()
    overlap_add(segments, hop, got)
    _brute_overlap_add(segments, hop, expect)
    assert np.array_equal(got, expect)


def test_overlap_add_writes_through_a_transposed_out(rng):
    segments = rng.standard_normal((5, 4, 3))
    out = np.zeros((3, 12)).T            # (12, 3), not contiguous
    expect = np.zeros((12, 3))
    overlap_add(segments, 2, out)
    _brute_overlap_add(segments, 2, expect)
    assert np.array_equal(out, expect)


def test_overlap_add_rejects_short_out():
    out = np.zeros(7)
    with pytest.raises(ValueError, match="do not fit"):
        overlap_add(np.ones((3, 4)), 2, out)
    assert not out.any()


@pytest.mark.parametrize("hop", [0, -1])
def test_strided_frames_rejects_hop_below_one(hop):
    with pytest.raises(ValueError, match="do not fit"):
        strided_frames(np.zeros(12), 3, 4, hop)


def _reference_istft(spec):
    """The per-frame weighted overlap-add that the strided one replaced."""
    cfg = spec.config
    frames = np.fft.irfft(spec.bins.T, n=cfg.frame_len, axis=1)
    window = hann_window(cfg.frame_len)
    out_len = (spec.n_frames - 1) * cfg.hop + cfg.frame_len
    acc, env = np.zeros(out_len), np.zeros(out_len)
    for m in range(spec.n_frames):
        acc[m * cfg.hop:m * cfg.hop + cfg.frame_len] += frames[m] * window
        env[m * cfg.hop:m * cfg.hop + cfg.frame_len] += window * window
    samples = np.where(env > 1e-12, acc / np.maximum(env, 1e-12), 0.0)
    return samples[:spec.original_len]


@pytest.mark.parametrize("hop", [32, 64, 100, 128])   # 100 does not divide 256
def test_istft_bit_identical_to_per_frame_loop(rng, hop):
    cfg = StftConfig(frame_len=256, hop=hop)
    spec = stft(_buf(rng.standard_normal(3000)), cfg)
    # a random binary mask makes the grid an inconsistent STFT, as separation does
    masked = ComplexSpectrogram(spec.bins * (rng.random(spec.bins.shape) < 0.5), cfg,
                                spec.original_len)
    for s in (spec, masked):
        assert np.array_equal(istft(s).samples, _reference_istft(s))
