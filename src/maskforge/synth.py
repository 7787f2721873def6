"""Seeded synthetic two-source corpus.

Real multitrack corpora cannot be redistributed, so tests and the quickstart
generate stand-in songs: the "vocal" stem is a harmonic glide with vibrato
and phrase gaps, the accompaniment is steady tones plus rhythmic band-passed
noise bursts. A separate fixture builds sources on disjoint frequency-bin
sets for oracle-mask benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import (
    MAX_SAMPLE_RATE,
    NON_VOCAL,
    VOCAL,
    AudioBuffer,
    ManifestSong,
    StemSet,
    landing,
    write_manifest,
    write_wav,
)

_SONG_ID = "synth_{:03d}"    # a song's id, from its index


@dataclass(frozen=True)
class SynthConfig:
    sample_rate: int = 22050
    duration: float = 1.8
    seed: int = 1234

    def __post_init__(self):
        if self.sample_rate < 1000:
            raise ValueError("sample rate too low for audio synthesis")
        if self.sample_rate > MAX_SAMPLE_RATE:
            raise ValueError(f"sample rate {self.sample_rate} does not fit a WAV header")
        n = self.duration * self.sample_rate
        if not (np.isfinite(n) and round(n) >= 2):
            raise ValueError(f"duration must give at least 2 samples at {self.sample_rate} Hz, "
                             f"got {self.duration} s")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _smooth_gate(n: int, segments: list[tuple[int, int]], edge: int) -> np.ndarray:
    """0/1 envelope over the given sample ranges with raised-cosine edges."""
    gate = np.zeros(n)
    ramp = 0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi, max(edge, 2)))
    for start, stop in segments:
        start, stop = max(start, 0), min(stop, n)
        if stop <= start:
            continue
        gate[start:stop] = 1.0
        m = min(len(ramp), stop - start)
        gate[start:start + m] = np.minimum(gate[start:start + m], ramp[:m])
        gate[stop - m:stop] = np.minimum(gate[stop - m:stop], ramp[:m][::-1])
    return gate


def _phrase_segments(rng: np.random.Generator, n: int, sr: int) -> list[tuple[int, int]]:
    """2-3 sung phrases separated by short rests."""
    n_phrases = int(rng.integers(2, 4))
    edges = np.sort(rng.uniform(0.05, 0.95, size=2 * n_phrases))
    segs = []
    for i in range(n_phrases):
        a, b = edges[2 * i], edges[2 * i + 1]
        if (b - a) * n < 0.12 * sr:
            b = min(0.98, a + 0.12 * sr / n)
        segs.append((int(a * n), int(b * n)))
    return segs


def make_vocal(rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    """Harmonic glide with vibrato, gated into phrases."""
    t = np.arange(n) / sr
    f_start = rng.uniform(170.0, 320.0)
    f_end = f_start * 2.0 ** rng.uniform(-0.6, 0.6)
    f0 = f_start * (f_end / f_start) ** (t / t[-1])
    vib_rate = rng.uniform(4.5, 6.5)
    vib_depth = rng.uniform(0.01, 0.03)
    f_inst = f0 * (1.0 + vib_depth * np.sin(2.0 * np.pi * vib_rate * t))
    phase = 2.0 * np.pi * np.cumsum(f_inst) / sr
    out = np.zeros(n)
    for h in range(1, 7):
        out += np.sin(h * phase + rng.uniform(0, 2 * np.pi)) / h
    gate = _smooth_gate(n, _phrase_segments(rng, n, sr), edge=int(0.02 * sr))
    out *= gate
    peak = np.max(np.abs(out))
    return out / peak * 0.9 if peak > 0 else out


def _bandpass_noise(rng: np.random.Generator, n: int, sr: int,
                    f_lo: float, f_hi: float) -> np.ndarray:
    noise = rng.standard_normal(n)
    spec = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(n, d=1.0 / sr)
    spec[(freqs < f_lo) | (freqs > f_hi)] = 0.0
    return np.fft.irfft(spec, n)


def make_accompaniment(rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    """Steady low tones plus rhythmic band-passed noise bursts."""
    t = np.arange(n) / sr
    chord_pool = np.array([82.4, 98.0, 110.0, 123.5, 146.8, 164.8])
    tones = np.zeros(n)
    for f in rng.choice(chord_pool, size=3, replace=False):
        tones += rng.uniform(0.4, 0.8) * np.sin(2.0 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
        tones += rng.uniform(0.1, 0.3) * np.sin(2.0 * np.pi * 2 * f * t + rng.uniform(0, 2 * np.pi))
    burst_rate = rng.uniform(2.0, 4.0)
    period = int(sr / burst_rate)
    duty = rng.uniform(0.25, 0.45)
    segments = [(s, s + int(duty * period)) for s in range(0, n, period)]
    gate = _smooth_gate(n, segments, edge=int(0.008 * sr))
    noise = _bandpass_noise(rng, n, sr, 900.0, 5000.0)
    noise_peak = np.max(np.abs(noise))
    if noise_peak > 0:
        noise = noise / noise_peak
    out = 0.6 * tones / np.max(np.abs(tones)) + 0.7 * noise * gate
    peak = np.max(np.abs(out))
    return out / peak * 0.9 if peak > 0 else out


def generate_song(cfg: SynthConfig, index: int) -> StemSet:
    """Deterministic two-stem song for (seed, index)."""
    rng = np.random.default_rng([cfg.seed, index])
    n = int(round(cfg.duration * cfg.sample_rate))
    vocal = AudioBuffer(make_vocal(rng, n, cfg.sample_rate), cfg.sample_rate)
    accomp = AudioBuffer(make_accompaniment(rng, n, cfg.sample_rate), cfg.sample_rate)
    return StemSet(stems=[(vocal, VOCAL), (accomp, NON_VOCAL)],
                   song_id=_SONG_ID.format(index))


def generate_corpus(out_dir: str | Path, n_train: int, n_test: int,
                    cfg: SynthConfig) -> tuple[Path, Path]:
    """Write WAV stems and train/test manifests, landed together; returns their paths."""
    for split, n in (("train", n_train), ("test", n_test)):
        if n < 0:
            raise ValueError(f"{split} song count must be >= 0, got {n}")
    out_dir = Path(out_dir)
    files = (("vocal.wav", VOCAL), ("accomp.wav", NON_VOCAL))   # generate_song's stem order
    ids = [_SONG_ID.format(i) for i in range(n_train + n_test)]
    songs = [ManifestSong(s, [(Path(s) / name, label) for name, label in files]) for s in ids]
    manifests = {out_dir / "train.json": songs[:n_train], out_dir / "test.json": songs[n_train:]}
    with landing([*manifests, *(out_dir / p for song in songs for p, _ in song.stems)],
                 make=[out_dir, *(out_dir / song.song_id for song in songs)]):
        for i, song in enumerate(songs):
            stems = generate_song(cfg, i)
            for (buf, _), (path, _) in zip(stems.stems, song.stems):
                write_wav(out_dir / path, buf)
        for path, split in manifests.items():
            write_manifest(path, split)
    return tuple(manifests)


def disjoint_support_song(sr: int = 22050, duration: float = 1.8,
                          frame_len: int = 512, seed: int = 7) -> StemSet:
    """Two sources on far-apart frequency-bin centers.

    Every partial sits exactly on a DFT bin for the given frame length, so
    each source's spectrogram support is confined to isolated bin triples and
    the two supports never touch. An oracle mask separates them almost
    perfectly.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration * sr))
    t = np.arange(n) / sr
    bin_hz = sr / frame_len

    def tone_sum(bins: list[int]) -> np.ndarray:
        out = np.zeros(n)
        for k in bins:
            amp = rng.uniform(0.5, 1.0)
            rate = rng.uniform(0.3, 1.0)
            env = 0.6 + 0.4 * np.sin(2.0 * np.pi * rate * t + rng.uniform(0, 2 * np.pi))
            out += amp * env * np.sin(2.0 * np.pi * (k * bin_hz) * t + rng.uniform(0, 2 * np.pi))
        return out / np.max(np.abs(out)) * 0.9

    vocal_bins = [12, 18, 24, 30, 36]
    accomp_bins = [60, 70, 80, 90, 100]
    vocal = AudioBuffer(tone_sum(vocal_bins), sr)
    accomp = AudioBuffer(tone_sum(accomp_bins), sr)
    return StemSet(stems=[(vocal, VOCAL), (accomp, NON_VOCAL)], song_id="disjoint")
