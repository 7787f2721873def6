"""Self-tests for the benchmark's correctness checks.

Each check must accept a correct output and reject a planted wrong one:
swapped vocal and accompaniment, a truncated estimate, a scaled estimate, a
shuffled score row, and one wrong value for each of the other checks.

Run from the repository root: python3 -m pytest -q perfbench/test_checks.py
"""

import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402

N = 4000


@pytest.fixture
def sources():
    rng = np.random.default_rng(0)
    t = np.arange(N) / 8000.0
    vocal = np.sin(2 * np.pi * (300 + 200 * t) * t)
    accomp = 0.5 * rng.standard_normal(N)
    # a correct pair: the estimates partition the mixture
    est_v = vocal + 0.1 * accomp
    est_a = 0.9 * accomp
    return vocal, accomp, est_v, est_a


def _scores(est_v, est_a, vocal, accomp):
    v = checks.bss_scores(est_v, [vocal, accomp], 0)
    a = checks.bss_scores(est_a, [vocal, accomp], 1)
    return {"vocal": v, "non_vocal": a,
            "mean": tuple((x + y) / 2 for x, y in zip(v, a))}


def test_bss_scores_match_closed_form(sources):
    vocal, accomp, _, _ = sources
    # target plus interference only, both inside the reference span
    est = vocal + 0.1 * accomp
    sdr, sir, sar = checks.bss_scores(est, [vocal, accomp], 0)
    expected = 10 * np.log10((vocal @ vocal) / ((0.1 * accomp) @ (0.1 * accomp)))
    # vocal and accompaniment are nearly orthogonal, so the projection
    # splits the estimate almost exactly into its two terms
    assert abs(sir - expected) < 0.05
    assert abs(sdr - expected) < 0.05
    assert sar > 100.0


def test_swapped_sources_are_rejected(sources):
    vocal, accomp, est_v, est_a = sources
    checks.check_not_swapped(est_v, est_a, vocal, accomp)
    with pytest.raises(CheckError):
        checks.check_not_swapped(est_a, est_v, vocal, accomp)
    reported = _scores(est_v, est_a, vocal, accomp)
    with pytest.raises(CheckError):
        checks.check_scores(reported, est_a, est_v, vocal, accomp)


def test_truncated_estimate_is_rejected(sources):
    _, _, est_v, _ = sources
    checks.check_output(est_v, 22050, N, 22050, "vocal")
    with pytest.raises(CheckError):
        checks.check_output(est_v[:-10], 22050, N, 22050, "vocal")
    with pytest.raises(CheckError):
        checks.check_output(est_v, 44100, N, 22050, "vocal")
    bad = est_v.copy()
    bad[5] = np.nan
    with pytest.raises(CheckError):
        checks.check_output(bad, 22050, N, 22050, "vocal")


def test_scaled_estimate_is_rejected(sources):
    vocal, accomp, est_v, est_a = sources
    mix = (vocal + accomp).astype(np.float32).astype(np.float64)
    f32 = lambda x: x.astype(np.float32).astype(np.float64)  # noqa: E731
    checks.check_partition(f32(est_v), f32(est_a), mix, margin=16)
    with pytest.raises(CheckError):
        checks.check_partition(f32(1.1 * est_v), f32(est_a), mix, margin=16)


def test_shuffled_score_row_is_rejected(sources):
    vocal, accomp, est_v, est_a = sources
    reported = _scores(est_v, est_a, vocal, accomp)
    checks.check_scores(reported, est_v, est_a, vocal, accomp)
    sdr, sir, sar = reported["vocal"]
    shuffled = dict(reported, vocal=(sir, sar, sdr))
    with pytest.raises(CheckError):
        checks.check_scores(shuffled, est_v, est_a, vocal, accomp)
    # one song's row reported under another song's estimates
    other = _scores(est_v + 0.3 * accomp, est_a, vocal, accomp)
    with pytest.raises(CheckError):
        checks.check_scores(other, est_v, est_a, vocal, accomp)


def test_silent_estimate_scores_minus_inf(sources):
    vocal, accomp, _, est_a = sources
    silent = np.zeros(N)
    reported = _scores(silent, est_a, vocal, accomp)
    assert reported["vocal"] == (float("-inf"),) * 3
    checks.check_scores(reported, silent, est_a, vocal, accomp)


def _confidence_grid(normalized, width, weights, biases):
    F, N = normalized.shape
    acc = np.zeros((F, N))
    counts = np.zeros(N)
    for o in range(N - width + 1):
        window = normalized[:, o:o + width]
        out = checks.forward(weights, biases, window.T.reshape(-1))
        acc[:, o:o + width] += out.reshape(width, F).T
        counts[o:o + width] += 1
    return acc / counts


def test_confidence_cell_off_by_one_frame_is_rejected():
    rng = np.random.default_rng(1)
    F, N, width = 3, 9, 4
    normalized = rng.random((F, N))
    sizes = [F * width, 5, F * width]
    weights = [rng.standard_normal((o, i)) for i, o in zip(sizes[:-1], sizes[1:])]
    biases = [rng.standard_normal(o) for o in sizes[1:]]
    grid = _confidence_grid(normalized, width, weights, biases)
    cells = [(f, n) for f in range(F) for n in range(N)]
    checks.check_confidence(grid, normalized, width, weights, biases, cells)
    shifted = np.roll(grid, 1, axis=1)
    with pytest.raises(CheckError):
        checks.check_confidence(shifted, normalized, width, weights, biases, cells)


def test_magnitude_matches_direct_dft():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(300)
    mag = checks.magnitude(x, 64, 16)
    frames = int(np.ceil((300 - 64) / 16)) + 1
    assert mag.shape == (33, frames)
    w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(64) / 64)
    last = np.zeros(64)
    tail = x[(frames - 1) * 16:]
    last[:len(tail)] = tail
    k = np.arange(33)[:, None] * np.arange(64)[None, :]
    dft = np.abs(np.exp(-2j * np.pi * k / 64) @ (last * w))
    assert np.allclose(mag[:, -1], dft)


def test_rising_divergence_and_loss_are_rejected():
    falling = np.array([10.0, 8.0, 7.5, 7.5, 7.0])
    checks.check_descent(falling)
    checks.check_loss_falls(falling)
    with pytest.raises(CheckError):
        checks.check_descent(np.array([10.0, 8.0, 8.1, 7.0]))
    with pytest.raises(CheckError):
        checks.check_loss_falls(falling[::-1])


def test_bad_dictionary_is_rejected():
    rng = np.random.default_rng(3)
    W = rng.random((6, 3))
    W /= W.sum(axis=0)
    checks.check_dictionary(W, "vocal")
    with pytest.raises(CheckError):
        checks.check_dictionary(2.0 * W, "vocal")
    negative = W.copy()
    negative[0, 0] = -negative[0, 0]
    with pytest.raises(CheckError):
        checks.check_dictionary(negative, "vocal")


def _fig2(sir, sar):
    rows = []
    for k, (x, y) in enumerate(zip(sir, sar)):
        alpha = "%g" % round(0.1 * (k + 1), 1)
        rows.append({"alpha": alpha, "method": "dnn", "source": "vocal",
                     "sdr_db": "0", "sir_db": str(x), "sar_db": str(y)})
        rows.append({"alpha": alpha, "method": "mixture", "source": "vocal",
                     "sdr_db": "0", "sir_db": "1.0", "sar_db": "50"})
    return rows


def test_alpha_trend_and_sir_gain():
    sir = [5, 6, 8, 11, 15, 20, 26, 30, "-inf"]
    sar = [9, 10, 11, 12, 12, 9, 5, 1, "-inf"]
    rows = _fig2(sir, sar)
    checks.check_alpha_trend(rows, "dnn", "vocal")
    checks.check_sir_gain(rows, "dnn", "0.5", 6.0)
    with pytest.raises(CheckError):
        checks.check_alpha_trend(_fig2(sir[::-1], sar), "dnn", "vocal")
    with pytest.raises(CheckError):
        checks.check_alpha_trend(_fig2(sir, [9, 10, 11, 12, 1, 5, 9, 12, 13]), "dnn", "vocal")
    with pytest.raises(CheckError):
        checks.check_sir_gain(rows, "dnn", "0.1", 6.0)
    with pytest.raises(CheckError):
        checks.check_row_count(rows, 17, "fig2.csv")


def test_float_wav_reader(tmp_path):
    samples = np.linspace(-1, 1, 11).astype("<f4")
    payload = samples.tobytes()
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                         b"fmt ", 16, 3, 1, 22050, 22050 * 4, 4, 32,
                         b"data", len(payload))
    path = tmp_path / "x.wav"
    path.write_bytes(header + payload)
    got, rate = checks.read_float_wav(path)
    assert rate == 22050 and np.array_equal(got, samples.astype(np.float64))
    pcm = header[:20] + struct.pack("<H", 1) + header[22:]
    path.write_bytes(pcm + payload)
    with pytest.raises(CheckError):
        checks.read_float_wav(path)
