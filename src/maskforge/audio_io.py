"""Mono WAV I/O, peak normalization, and the stem pooling/mixing procedure.

WAV files are read and written a range of samples at a time (`WavReader`,
`wav_writer`), so streamed separation holds neither its input nor its outputs
whole; `read_wav` and `write_wav` are their whole-file uses. A command's outputs
are `output_file` parts that land together (`landing`): nothing lands before every
part is complete, a failure removes every part and made directory, and the renames
are not atomic as a set, so a crash between two leaves some targets old and some new.
`check_outputs` refuses, before any work, an output over an input or another output.

A label's submix (`submix`, all that NMF training builds) is its stems, each
peak normalized, summed zero-padded to the song's longest stem, and peak
normalized again. `pool_and_mix` adds the full mixture, the submixes' raw sum,
left un-normalized (downstream spectrogram processing rescales it anyway).
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

import numpy as np

VOCAL = "vocal"
NON_VOCAL = "non_vocal"
LABELS = (VOCAL, NON_VOCAL)


class WavFormatError(ValueError):
    """Malformed RIFF/WAVE container or chunk structure."""


class UnsupportedWavError(ValueError):
    """Well-formed WAV whose codec/bit depth is not handled."""


class ManifestError(ValueError):
    """Malformed corpus manifest, or a song in it that has no stems of a label."""


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
MAX_SAMPLE_RATE = 0xFFFFFFFF // 4    # the highest whose float32 byte rate fits a WAV header


# Samples that read_wav decodes at a time, and the numbers of output_file's temporaries.
_READ_CHUNK = 1 << 16
_PARTS = count()
# The open landings of this thread or task, innermost last: their made directories and parts.
_LANDINGS: ContextVar[tuple[list, ...]] = ContextVar("landings", default=())
# What a song id or method label may not hold: each is one field of a CSV row.
CSV_UNSAFE = ',"\r\n'


class WavReader:
    """An open RIFF/WAVE file (PCM 16/24-bit or float32) whose header is parsed
    on opening and whose samples are decoded on request, a range at a time, so
    no caller need hold the whole file. Multichannel audio is averaged to mono.

    Opening raises FileNotFoundError, WavFormatError (bad container) or
    UnsupportedWavError (unhandled codec); `read` raises WavFormatError on a
    non-finite sample.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        try:
            self._parse_header()
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "WavReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def _parse_header(self) -> None:
        path, fh = self.path, self._fh
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise WavFormatError(f"{path}: not a RIFF/WAVE file")

        fmt = None
        data = None           # (offset, size) of the last data chunk
        pos = 12
        while pos + 8 <= size:
            fh.seek(pos)
            cid, csize = struct.unpack("<4sI", fh.read(8))
            present = min(csize, size - pos - 8)
            if cid == b"fmt ":
                if present < 16:
                    raise WavFormatError(f"{path}: fmt chunk too short or truncated")
                fmt = struct.unpack("<HHIIHH", fh.read(16))
            elif cid == b"data":
                if present < csize:
                    raise WavFormatError(f"{path}: data chunk truncated")
                data = (pos + 8, csize)
            pos += 8 + csize + (csize & 1)

        if fmt is None:
            raise WavFormatError(f"{path}: missing fmt chunk")
        if data is None:
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
        self._data, data_size = data
        self._frame_bytes = width * n_channels
        if data_size % self._frame_bytes:
            raise WavFormatError(
                f"{path}: data chunk of {data_size} bytes is not a whole number "
                f"of {n_channels}-channel {bits}-bit frames"
            )
        self._channels, self._bits = n_channels, bits
        self.sample_rate = sample_rate
        self.n_samples = data_size // self._frame_bytes

    def read(self, start: int, stop: int) -> np.ndarray:
        """Mono samples start..stop-1 (clipped to the file's) as float64."""
        start, stop = max(start, 0), min(stop, self.n_samples)
        self._fh.seek(self._data + start * self._frame_bytes)
        payload = self._fh.read(max(stop - start, 0) * self._frame_bytes)
        if self._bits == 16:
            samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
        elif self._bits == 24:
            b = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.uint32)
            vals = (b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)).astype(np.int32)
            vals = np.where(vals >= 1 << 23, vals - (1 << 24), vals)
            samples = vals.astype(np.float64) / float(1 << 23)
        else:
            with np.errstate(invalid="ignore"):     # a signalling NaN warns as it widens
                samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        if self._channels > 1:
            samples = samples.reshape(-1, self._channels).mean(axis=1)
        if not np.all(np.isfinite(samples)):
            raise WavFormatError(f"{self.path}: non-finite sample values")
        return samples


def read_wav(path: str | Path) -> AudioBuffer:
    """The whole of a WAV file that `WavReader` opens, as a mono buffer."""
    with WavReader(path) as reader:
        samples = np.empty(reader.n_samples)
        for start in range(0, reader.n_samples, _READ_CHUNK):
            samples[start:start + _READ_CHUNK] = reader.read(start, start + _READ_CHUNK)
        return AudioBuffer(samples, reader.sample_rate)


@contextmanager
def landing(outputs: list, inputs: list | tuple = (), make: list | tuple = ()):
    """Make `make`'s missing directories, parents first, and run `check_outputs`; a
    clean exit renames each `output_file` part of the block over its target (or hands
    them to the enclosing landing), and an exception removes every part and made directory."""
    made = []     # (directory, None) and (part, target), in the order they were made
    opened = _LANDINGS.set((*_LANDINGS.get(), made))
    try:
        for d in [d for m in map(Path, make) for d in (*reversed(m.parents), m)]:
            if not d.exists():
                d.mkdir()
                made.append((d, None))
        check_outputs(outputs, inputs)
        yield
        if len(_LANDINGS.get()) > 1:     # the enclosing landing lands them
            _LANDINGS.get()[-2].extend(made)
        else:
            for part, target in made:
                if target is not None:
                    os.replace(part, target)
    except BaseException:
        for path, target in reversed(made):       # parts, then directories deepest first
            if target is not None:
                path.unlink(missing_ok=True)
            elif not any(path.iterdir()):          # one that a target was renamed into stays
                path.rmdir()
        raise
    finally:
        _LANDINGS.reset(opened)


@contextmanager
def output_file(path: str | Path):
    """A binary file beside `path`, named by process and count so that any target name
    fits: a part of the open `landing`, or of its own if none is open, removed on an exception."""
    part = Path(path).with_name(f".maskforge-{os.getpid()}-{next(_PARTS)}.part")
    with nullcontext() if _LANDINGS.get() else landing([]):
        try:
            with open(part, "wb") as fh:
                yield fh
        except BaseException:
            part.unlink(missing_ok=True)
            raise
        _LANDINGS.get()[-1].append((part, path))


def _check_encodable(path: Path, name: str, error: type[ValueError] = ValueError) -> None:
    """Raise `error` about `name` if the filesystem encoding, and so open(), cannot take `path`."""
    try:
        os.fsencode(path)
    except UnicodeEncodeError as exc:
        raise error(f"{name} is not representable in the filesystem encoding, "
                    f"{exc.encoding}") from None


def check_outputs(outputs: list, inputs: list | tuple = ()) -> None:
    """Refuse an output that repeats an input or another output, or that
    `output_file` cannot land: the filesystem encoding lacks its name, its
    directory is missing or not writable, or it exists but is not a regular file."""
    seen = {os.path.realpath(p) for p in inputs}
    for out in map(Path, outputs):
        _check_encodable(out, f"{out}: the output name")
        if os.path.realpath(out) in seen:
            raise ValueError(f"{out}: an output must differ from the inputs and other outputs")
        seen.add(os.path.realpath(out))
        if not (out.parent.is_dir() and os.access(out.parent, os.W_OK | os.X_OK)):
            raise OSError(f"{out}: its directory is missing or not writable")
        if out.exists() and not out.is_file():
            raise ValueError(f"{out}: not a regular file, so it cannot be an output")


@contextmanager
def wav_writer(path: str | Path, sample_rate: int):
    """A mono 32-bit float WAV file written a chunk at a time through
    `output_file`; the block gets `write(samples)`. The header's sizes are
    known only at the end, so a clean exit from the block writes them last."""
    if sample_rate > MAX_SAMPLE_RATE:
        raise ValueError(f"sample rate {sample_rate} does not fit a WAV header")
    with output_file(path) as fh:
        header = lambda size: struct.pack(         # size: the payload's bytes
            "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + size, b"WAVE", b"fmt ", 16, _FMT_FLOAT, 1,
            sample_rate, sample_rate * 4, 4, 32, b"data", size)
        fh.write(header(0))

        def write(samples: np.ndarray) -> None:
            if not np.all(np.isfinite(samples)):
                raise ValueError("cannot write non-finite samples")
            payload = np.asarray(samples).astype("<f4").tobytes()
            if fh.tell() - 8 + len(payload) > 0xFFFFFFFF:    # the RIFF size: all but 8 bytes
                raise ValueError(f"{path}: output too long for a WAV file")
            fh.write(payload)

        yield write
        size = fh.tell() - 44                      # all but the header
        fh.seek(0)
        fh.write(header(size))


def write_wav(path: str | Path, buffer: AudioBuffer) -> None:
    """Write a mono 32-bit float WAV file."""
    with wav_writer(path, buffer.sample_rate) as write:
        write(buffer.samples)


def peak_normalize(buffer: AudioBuffer) -> AudioBuffer:
    """Scale so the largest absolute sample is exactly 1. Idempotent."""
    peak = float(np.max(np.abs(buffer.samples))) if len(buffer) else 0.0
    if peak == 0.0:
        raise ValueError("zero peak: cannot normalize an all-zero buffer")
    return AudioBuffer(buffer.samples / peak, buffer.sample_rate)


def submix(stems: StemSet, label: str) -> AudioBuffer:
    """One label's submix: each of its stems peak normalized, summed in stem
    order into zeros as long as the song's longest stem, and peak normalized."""
    if not stems.stems:
        raise ValueError("empty stem set")
    pooled = [buf for buf, lab in stems.stems if lab == label]
    if not pooled:
        raise ValueError(f"song {stems.song_id!r} has no {label} stems")
    total = np.zeros(max(len(buf) for buf, _ in stems.stems))
    for buf in pooled:
        if not np.any(buf.samples):
            raise ValueError(f"song {stems.song_id!r} has an all-zero {label} stem")
        total[: len(buf)] += peak_normalize(buf).samples
    if not np.any(total):
        raise ValueError(f"song {stems.song_id!r} has {label} stems that sum to silence")
    return peak_normalize(AudioBuffer(total, pooled[0].sample_rate))


def pool_and_mix(stems: StemSet) -> tuple[AudioBuffer, AudioBuffer, AudioBuffer]:
    """(vocal submix, non-vocal submix, full mix); the full mixture is the
    submixes' raw sum, may have peak > 1, and must not be silent."""
    vocal, nonvocal = (submix(stems, label) for label in LABELS)
    mix = AudioBuffer(vocal.samples + nonvocal.samples, vocal.sample_rate)
    if not np.any(mix.samples):
        raise ValueError(f"song {stems.song_id!r} has submixes that cancel to a silent mixture")
    return vocal, nonvocal, mix


# ---------------------------------------------------------------------------
# corpus manifest: {"songs": [{"id", "stems": [{"path", "label"}]}]}
# ---------------------------------------------------------------------------

@dataclass
class ManifestSong:
    song_id: str
    stems: list[tuple[Path, str]] = field(default_factory=list)


def load_manifest(path: str | Path) -> list[ManifestSong]:
    """Parse a corpus manifest, UTF-8 JSON in any locale; stem paths resolve relative
    to it and must be representable in the filesystem encoding, and each song
    needs stems of both labels. Every refusal is a ManifestError."""
    path = Path(path)
    try:
        doc = json.loads(path.read_bytes())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or deep nesting
        raise ManifestError(f"{path}: not a JSON manifest ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("songs"), list):
        raise ManifestError(f"{path}: manifest must be an object with a 'songs' list")
    base = path.parent
    songs: dict[str, ManifestSong] = {}
    for entry in doc["songs"]:
        if (not isinstance(entry, dict) or not isinstance(entry.get("id"), str)
                or not isinstance(entry.get("stems"), list)):
            raise ManifestError(f"{path}: each song needs a string 'id' and a 'stems' list")
        if entry["id"] in ("", ".", "..") or any(c in entry["id"] for c in "/\\"):
            raise ManifestError(f"{path}: song id {entry['id']!r} is not a plain file name")
        if any(c in entry["id"] for c in CSV_UNSAFE):
            raise ManifestError(f"{path}: song id {entry['id']!r} holds a comma, quote or "
                                "line break")
        if entry["id"] in songs:
            raise ManifestError(f"{path}: song id {entry['id']!r} appears more than once")
        stems = []
        for s in entry["stems"]:
            if (not isinstance(s, dict) or not isinstance(s.get("path"), str)
                    or "label" not in s):
                raise ManifestError(f"{path}: each stem needs a string 'path' and a 'label'")
            label = s["label"]
            if label not in LABELS:
                raise ManifestError(f"{path}: bad stem label {label!r}")
            p = base / s["path"]   # an absolute stem path replaces the base
            _check_encodable(p, f"{path}: stem path {s['path']!r}", ManifestError)
            stems.append((p, label))
        if missing := [lab for lab in LABELS if lab not in (label for _, label in stems)]:
            raise ManifestError(f"{path}: song {entry['id']!r} has no {missing[0]} stems")
        songs[entry["id"]] = ManifestSong(entry["id"], stems)
    return list(songs.values())


def _check_rates(song: ManifestSong, rates: list[int]) -> None:
    """Raise unless the song's stems, at `rates` in stem order, share one rate."""
    if len(set(rates)) > 1:
        raise ValueError(f"song {song.song_id!r} has stems at different sample rates: "
                         + ", ".join(f"{p} {r} Hz" for (p, _), r in zip(song.stems, rates)))


def load_song(song: ManifestSong) -> StemSet:
    """Load all stems of one manifest entry from disk."""
    buffers = [read_wav(p) for p, _ in song.stems]
    _check_rates(song, [b.sample_rate for b in buffers])
    return StemSet([(b, label) for b, (_, label) in zip(buffers, song.stems)], song.song_id)


def song_header(song: ManifestSong) -> tuple[int, int]:
    """(samples in the song's mixes, its longest stem's; its stems' sample
    rate), from the WAV headers."""
    if not song.stems:
        raise ValueError(f"song {song.song_id!r} has no stems")
    headers = []
    for path, _ in song.stems:
        with WavReader(path) as reader:
            headers.append((reader.n_samples, reader.sample_rate))
    _check_rates(song, [rate for _, rate in headers])
    return max(n for n, _ in headers), headers[0][1]


def write_manifest(path: str | Path, songs: list[ManifestSong]) -> None:
    doc = {"songs": [{"id": s.song_id, "stems": [{"path": str(p), "label": label}
                                                 for p, label in s.stems]} for s in songs]}
    with output_file(path) as fh:
        fh.write((json.dumps(doc, indent=2) + "\n").encode())
