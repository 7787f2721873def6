"""Correctness checks for the benchmark's outputs.

Each check compares an output of maskforge with a property of the method or
with a computation made here, in plain numpy, apart from the program: a WAV
parser, an STFT, a forward pass and a least-squares BSS decomposition. None
compares with a stored copy of an earlier output. A check raises `CheckError`
with a one-line reason; it returns nothing when the output is correct.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np
from scipy import stats


class CheckError(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# independent readers and transforms
# ---------------------------------------------------------------------------

def read_float_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Samples and rate of a mono float32 RIFF/WAVE file, parsed here."""
    raw = Path(path).read_bytes()
    require(raw[:4] == b"RIFF" and raw[8:12] == b"WAVE", f"{path}: not RIFF/WAVE")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(raw):
        cid, size = raw[pos:pos + 4], struct.unpack_from("<I", raw, pos + 4)[0]
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", raw, pos + 8)
        elif cid == b"data":
            data = raw[pos + 8:pos + 8 + size]
        pos += 8 + size + (size & 1)
    require(fmt is not None and data is not None, f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _, _, bits = fmt
    require((audio_format, channels, bits) == (3, 1, 32),
            f"{path}: expected mono float32, got format {audio_format}, "
            f"{channels} channels, {bits} bits")
    return np.frombuffer(data, dtype="<f4").astype(np.float64), rate


def magnitude(samples: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """|STFT| with a periodic Hann window and a zero-padded last frame, (F, N)."""
    n = len(samples)
    frames = 1 if n <= frame_len else int(np.ceil((n - frame_len) / hop)) + 1
    x = np.zeros((frames - 1) * hop + frame_len)
    x[:n] = samples
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame_len) / frame_len)
    segments = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop][:frames]
    return np.abs(np.fft.rfft(segments * window, axis=1)).T


def bss_scores(estimate: np.ndarray, references: list[np.ndarray],
               target: int) -> tuple[float, float, float]:
    """(SDR, SIR, SAR) in dB by least-squares projection onto the references.

    A silent estimate has no decomposition and scores -inf on every axis.
    """
    est = np.asarray(estimate, dtype=np.float64)
    if not np.any(est):
        return (float("-inf"),) * 3
    R = np.stack(references, axis=1)
    s = R[:, target]
    s_target = (est @ s) / (s @ s) * s
    span = R @ np.linalg.lstsq(R, est, rcond=None)[0]
    e_interf = span - s_target
    e_artif = est - span

    def db(num: np.ndarray, den: np.ndarray) -> float:
        with np.errstate(divide="ignore"):   # no artifacts at all: +inf dB
            return float(10.0 * np.log10((num @ num) / (den @ den)))

    return (db(s_target, e_interf + e_artif), db(s_target, e_interf),
            db(s_target + e_interf, e_artif))


def forward(weights: list[np.ndarray], biases: list[np.ndarray],
            x: np.ndarray) -> np.ndarray:
    """sigmoid(W x + b) through every layer."""
    for W, b in zip(weights, biases):
        x = 1.0 / (1.0 + np.exp(-(W @ x + b)))
    return x


# ---------------------------------------------------------------------------
# training and sweep
# ---------------------------------------------------------------------------

def check_loss_falls(trace: np.ndarray) -> None:
    trace = np.asarray(trace)
    require(len(trace) >= 2 and np.all(np.isfinite(trace)), "loss trace missing or non-finite")
    require(trace[-1] < trace[0], f"SGD loss did not fall: {trace[0]:.3f} -> {trace[-1]:.3f}")


def check_dictionary(W: np.ndarray, name: str) -> None:
    require(W.min() >= 0.0, f"{name} dictionary has negative entries")
    sums = W.sum(axis=0)
    require(np.allclose(sums, 1.0, rtol=0.0, atol=1e-9),
            f"{name} dictionary columns do not sum to 1 (range {sums.min()}..{sums.max()})")


def read_csv(path: str | Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_row_count(rows: list[dict[str, str]], expected: int, name: str) -> None:
    require(len(rows) == expected, f"{name}: {len(rows)} data rows, expected {expected}")


def row(rows: list[dict[str, str]], **key: str) -> dict[str, str]:
    found = [r for r in rows if all(r[k] == v for k, v in key.items())]
    require(len(found) == 1, f"expected one row for {key}, found {len(found)}")
    return found[0]


def check_sir_gain(rows: list[dict[str, str]], method: str, alpha: str,
                   min_gain_db: float) -> None:
    """Vocal SIR of `method` at `alpha` beats the unprocessed mixture's."""
    sir = float(row(rows, alpha=alpha, method=method, source="vocal")["sir_db"])
    base = float(row(rows, alpha=alpha, method="mixture", source="vocal")["sir_db"])
    require(np.isfinite(sir) and sir - base >= min_gain_db,
            f"{method} vocal SIR {sir:.2f} dB at alpha {alpha} is not "
            f"{min_gain_db} dB above the mixture's {base:.2f} dB")


def check_alpha_trend(rows: list[dict[str, str]], method: str, source: str,
                      min_rho: float = 0.9) -> None:
    """SIR rises with alpha, and SAR falls with alpha from 0.5 up.

    Spearman rank correlation over the alphas whose estimate is not silent (a
    silent estimate scores -inf by convention). Below 0.5 the two masks
    overlap and a lower alpha adds cells that belong to the other source, so
    SAR need not fall there; from 0.5 up a higher alpha only removes cells.
    """
    picked = sorted((float(r["alpha"]), float(r["sir_db"]), float(r["sar_db"]))
                    for r in rows if r["method"] == method and r["source"] == source)
    sir = np.array([(a, x) for a, x, _ in picked if np.isfinite(x)]).T
    sar = np.array([(a, y) for a, _, y in picked if np.isfinite(y) and a >= 0.5]).T
    require(sir.size and sir.shape[1] >= 3, f"{method}/{source}: fewer than 3 alphas with a finite SIR")
    require(sar.size and sar.shape[1] >= 2, f"{method}/{source}: fewer than 2 alphas >= 0.5 with a finite SAR")
    rho_sir = stats.spearmanr(*sir).statistic
    rho_sar = stats.spearmanr(*sar).statistic
    require(rho_sir >= min_rho, f"{method}/{source}: SIR vs alpha Spearman {rho_sir:.2f}")
    require(rho_sar <= -min_rho, f"{method}/{source}: SAR vs alpha >= 0.5 Spearman {rho_sar:.2f}")


def check_scores(reported: dict[str, tuple[float, float, float]],
                 est_vocal: np.ndarray, est_accomp: np.ndarray,
                 ref_vocal: np.ndarray, ref_accomp: np.ndarray,
                 tol_db: float = 1e-3) -> None:
    """Reported vocal/non_vocal/mean scores equal a fresh projection."""
    refs = [ref_vocal, ref_accomp]
    v = bss_scores(est_vocal, refs, 0)
    a = bss_scores(est_accomp, refs, 1)
    expected = {"vocal": v, "non_vocal": a,
                "mean": tuple((x + y) / 2.0 for x, y in zip(v, a))}
    for source, want in expected.items():
        got = reported[source]
        for axis, g, w in zip(("sdr", "sir", "sar"), got, want):
            # past 100 dB the smaller energy is rounding noise, as in the SAR
            # of the unprocessed mixture, whose artifacts are ~0
            same = g == w or abs(g - w) <= tol_db or min(g, w) >= 100.0
            require(same, f"{source} {axis} reported {g:.6f} dB, projection gives {w:.6f} dB")


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

def check_output(samples: np.ndarray, rate: int, length: int, expected_rate: int,
                 name: str) -> None:
    require(len(samples) == length, f"{name}: {len(samples)} samples, input has {length}")
    require(rate == expected_rate, f"{name}: rate {rate}, input has {expected_rate}")
    require(bool(np.all(np.isfinite(samples))), f"{name}: non-finite samples")


def check_partition(vocal: np.ndarray, accomp: np.ndarray, mixture: np.ndarray,
                    margin: int) -> None:
    """At alpha 0.5 the two masks cover every cell once, so the estimates sum
    to the mixture away from the edges, up to float32 rounding of the WAVs."""
    interior = slice(margin, len(mixture) - margin)
    err = np.max(np.abs(vocal[interior] + accomp[interior] - mixture[interior]))
    tol = 4.0 * np.finfo(np.float32).eps * max(1.0, float(np.max(np.abs(mixture))))
    require(err <= tol, f"vocal + accompaniment differs from the mixture by {err:.3g} "
                        f"on the interior (tolerance {tol:.3g})")


def check_not_swapped(vocal: np.ndarray, accomp: np.ndarray,
                      ref_vocal: np.ndarray, ref_accomp: np.ndarray) -> None:
    """Each estimate holds more of its own source than of the other one."""
    refs = [ref_vocal, ref_accomp]
    sir_v = bss_scores(vocal, refs, 0)[1]
    sir_a = bss_scores(accomp, refs, 1)[1]
    require(sir_v > 0.0 and sir_a > 0.0,
            f"estimates lean to the wrong source: vocal SIR {sir_v:.2f} dB, "
            f"accompaniment SIR {sir_a:.2f} dB")


def check_confidence(grid: np.ndarray, normalized: np.ndarray, width: int,
                     weights: list[np.ndarray], biases: list[np.ndarray],
                     cells: list[tuple[int, int]], tol: float = 1e-9) -> None:
    """Each sampled cell equals the mean of a direct forward pass over every
    stride-1 window covering it (windows are flattened frame by frame)."""
    F, N = normalized.shape
    require(grid.shape == (F, N), f"confidence grid {grid.shape}, spectrogram {(F, N)}")
    padded = np.concatenate([normalized, np.zeros((F, max(width - N, 0)))], axis=1)
    last = max(N - width, 0)
    for f, n in cells:
        values = []
        for o in range(max(0, n - width + 1), min(n, last) + 1):
            out = forward(weights, biases, padded[:, o:o + width].reshape(-1, order="F"))
            values.append(out[(n - o) * F + f])
        want = float(np.mean(values))
        require(abs(grid[f, n] - want) <= tol,
                f"confidence at bin {f}, frame {n} is {grid[f, n]:.12f}, "
                f"forward pass gives {want:.12f}")


def check_descent(trace: np.ndarray, rtol: float = 1e-9) -> None:
    """KL multiplicative updates never increase the divergence."""
    trace = np.asarray(trace)
    require(bool(np.all(np.isfinite(trace))), "divergence trace is non-finite")
    rises = np.diff(trace) > rtol * np.abs(trace[:-1])
    require(not np.any(rises),
            f"divergence rose at iteration {int(np.argmax(rises)) + 1}")
