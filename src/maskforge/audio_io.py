"""Mono WAV I/O, peak normalization, and the stem pooling/mixing procedure.

Stems labeled "vocal" / "non_vocal" are each peak normalized, summed by label
into two submixes, the submixes peak normalized again, and their sum is the
full mixture. The full mixture is deliberately left un-normalized (downstream
spectrogram processing rescales, so mixture headroom is irrelevant).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VOCAL = "vocal"
NON_VOCAL = "non_vocal"
LABELS = (VOCAL, NON_VOCAL)


class WavFormatError(ValueError):
    """Malformed RIFF/WAVE container or chunk structure."""


class UnsupportedWavError(ValueError):
    """Well-formed WAV whose codec/bit depth is not handled."""


@dataclass
class AudioBuffer:
    """Mono samples (float64, nominal range [-1, 1]) at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("AudioBuffer samples must be one-dimensional")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("AudioBuffer samples must be finite")
        if int(self.sample_rate) <= 0:
            raise ValueError("sample_rate must be positive")
        self.sample_rate = int(self.sample_rate)

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass
class StemSet:
    """Labeled stems of one song; labels are "vocal" or "non_vocal"."""

    stems: list[tuple[AudioBuffer, str]]
    song_id: str = ""

    def __post_init__(self):
        rates = {buf.sample_rate for buf, _ in self.stems}
        if len(rates) > 1:
            raise ValueError(f"stems have mismatched sample rates: {sorted(rates)}")
        for _, label in self.stems:
            if label not in LABELS:
                raise ValueError(f"unknown stem label {label!r}")


_FMT_PCM = 1
_FMT_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE
# bytes per sample of each decoded (format, bits) pair
_SAMPLE_BYTES = {(_FMT_PCM, 16): 2, (_FMT_PCM, 24): 3, (_FMT_FLOAT, 32): 4}


def read_wav(path: str | Path) -> AudioBuffer:
    """Read a RIFF/WAVE file (PCM 16/24-bit or float32) as a mono buffer.

    Multichannel audio is averaged to mono. Raises FileNotFoundError,
    WavFormatError (bad container) or UnsupportedWavError (unhandled codec).
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise WavFormatError(f"{path}: fmt chunk too short or truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            if len(body) < size:
                raise WavFormatError(f"{path}: data chunk truncated")
            payload = body
        pos += 8 + size + (size & 1)

    if fmt is None:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if payload is None:
        raise WavFormatError(f"{path}: missing data chunk")

    audio_format, n_channels, sample_rate, _, block_align, bits = fmt
    if audio_format == _FMT_EXTENSIBLE:
        raise UnsupportedWavError(f"{path}: WAVE_FORMAT_EXTENSIBLE not supported")
    if n_channels < 1 or sample_rate < 1:
        raise WavFormatError(f"{path}: invalid channel count or sample rate")

    width = _SAMPLE_BYTES.get((audio_format, bits))
    if width is None:
        raise UnsupportedWavError(
            f"{path}: unsupported codec (format={audio_format}, bits={bits})"
        )
    if len(payload) % (width * n_channels):
        raise WavFormatError(
            f"{path}: data chunk of {len(payload)} bytes is not a whole number "
            f"of {n_channels}-channel {bits}-bit frames"
        )
    if bits == 16:
        raw = np.frombuffer(payload, dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    elif bits == 24:
        b = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.uint32)
        vals = (b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)).astype(np.int32)
        vals = np.where(vals >= 1 << 23, vals - (1 << 24), vals)
        samples = vals.astype(np.float64) / float(1 << 23)
    else:
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)

    if n_channels > 1:
        samples = samples.reshape(-1, n_channels).mean(axis=1)
    if not np.all(np.isfinite(samples)):
        raise WavFormatError(f"{path}: non-finite sample values")
    return AudioBuffer(samples.copy(), sample_rate)


def write_wav(path: str | Path, buffer: AudioBuffer) -> None:
    """Write a mono 32-bit float WAV file."""
    if not np.all(np.isfinite(buffer.samples)):
        raise ValueError("cannot write non-finite samples")
    if buffer.sample_rate * 4 > 0xFFFFFFFF:
        raise ValueError(f"sample rate {buffer.sample_rate} does not fit a WAV header")
    payload = buffer.samples.astype("<f4").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, _FMT_FLOAT, 1, buffer.sample_rate,
        buffer.sample_rate * 4, 4, 32,
        b"data", len(payload),
    )
    Path(path).write_bytes(header + payload)


def peak_normalize(buffer: AudioBuffer) -> AudioBuffer:
    """Scale so the largest absolute sample is exactly 1. Idempotent."""
    peak = float(np.max(np.abs(buffer.samples))) if len(buffer) else 0.0
    if peak == 0.0:
        raise ValueError("zero peak: cannot normalize an all-zero buffer")
    return AudioBuffer(buffer.samples / peak, buffer.sample_rate)


def _padded_sum(buffers: list[np.ndarray], length: int) -> np.ndarray:
    out = np.zeros(length, dtype=np.float64)
    for b in buffers:
        out[: len(b)] += b
    return out


def pool_and_mix(stems: StemSet) -> tuple[AudioBuffer, AudioBuffer, AudioBuffer]:
    """Pool stems into (vocal_mix, nonvocal_mix, full_mix).

    Every stem is peak normalized and summed by label (shorter stems are
    zero-padded to the longest length); each submix is peak normalized; the
    full mixture is their raw sum and may have peak > 1.
    """
    if not stems.stems:
        raise ValueError("empty stem set")
    by_label: dict[str, list[np.ndarray]] = {VOCAL: [], NON_VOCAL: []}
    for buf, label in stems.stems:
        by_label[label].append(peak_normalize(buf).samples)
    for label in LABELS:
        if not by_label[label]:
            raise ValueError(f"song {stems.song_id!r} has no {label} stems")

    sr = stems.stems[0][0].sample_rate
    length = max(len(b) for bufs in by_label.values() for b in bufs)
    vocal = peak_normalize(AudioBuffer(_padded_sum(by_label[VOCAL], length), sr))
    nonvocal = peak_normalize(AudioBuffer(_padded_sum(by_label[NON_VOCAL], length), sr))
    full = AudioBuffer(vocal.samples + nonvocal.samples, sr)
    return vocal, nonvocal, full


# ---------------------------------------------------------------------------
# corpus manifest: {"songs": [{"id", "stems": [{"path", "label"}]}]}
# ---------------------------------------------------------------------------

@dataclass
class ManifestSong:
    song_id: str
    stems: list[tuple[Path, str]] = field(default_factory=list)


def load_manifest(path: str | Path) -> list[ManifestSong]:
    """Parse a corpus manifest; stem paths resolve relative to the manifest."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or deep nesting
        raise ValueError(f"{path}: not a JSON manifest ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("songs"), list):
        raise ValueError(f"{path}: manifest must be an object with a 'songs' list")
    base = path.parent
    songs: dict[str, ManifestSong] = {}
    for entry in doc["songs"]:
        if (not isinstance(entry, dict) or not isinstance(entry.get("id"), str)
                or not isinstance(entry.get("stems"), list)):
            raise ValueError(f"{path}: each song needs a string 'id' and a 'stems' list")
        if entry["id"] in ("", ".", "..") or any(c in entry["id"] for c in "/\\"):
            raise ValueError(f"{path}: song id {entry['id']!r} is not a plain file name")
        if entry["id"] in songs:
            raise ValueError(f"{path}: song id {entry['id']!r} appears more than once")
        stems = []
        for s in entry["stems"]:
            if (not isinstance(s, dict) or not isinstance(s.get("path"), str)
                    or "label" not in s):
                raise ValueError(f"{path}: each stem needs a string 'path' and a 'label'")
            label = s["label"]
            if label not in LABELS:
                raise ValueError(f"{path}: bad stem label {label!r}")
            p = Path(s["path"])
            stems.append((p if p.is_absolute() else base / p, label))
        songs[entry["id"]] = ManifestSong(entry["id"], stems)
    return list(songs.values())


def load_song(song: ManifestSong) -> StemSet:
    """Load all stems of one manifest entry from disk."""
    return StemSet(
        stems=[(read_wav(p), label) for p, label in song.stems],
        song_id=song.song_id,
    )


def write_manifest(path: str | Path, songs: list[ManifestSong]) -> None:
    doc = {
        "songs": [
            {
                "id": s.song_id,
                "stems": [{"path": str(p), "label": label} for p, label in s.stems],
            }
            for s in songs
        ]
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
