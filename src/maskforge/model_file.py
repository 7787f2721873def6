"""One file format for both model kinds, and the front end a model records.

A model's masks mean something only on the spectrogram grid it was trained
on (`FrontEnd`). A model file holds, little-endian: the magic b"MFGM", the
u32 format version, the kind (b"dnn\\0" or b"nmf\\0"), the front end as four
u32, a u32 count of u32 dims, the dims, and then the kind's float64 arrays
in C order, whose shapes follow from the dims and the front end. `read_model`
reads either kind, and `pipeline.load_any_model` makes the model from it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .audio_io import output_file
from .stft import StftConfig

DNN, NMF = "dnn", "nmf"
VERSION = 1
_MAGIC, _OLD_FORMATS = b"MFGM", (b"MFG1", b"MFGN")   # the two per-kind formats before it
_HEADER = struct.Struct("<4sI4sIIIII")   # magic, version, kind, front end, dims count


class ModelFileError(ValueError):
    """Malformed, truncated or old-format model file."""


class FrontEndMismatch(ValueError):
    """Audio or a model on another grid than a model's front end."""


@dataclass(frozen=True)
class FrontEnd:
    """The grid a model's windows are cut from: the audio's sample rate, the
    STFT's frame and hop, and the window width in frames."""

    sample_rate: int
    frame_len: int
    hop: int
    width: int

    def __post_init__(self):
        if min(self.sample_rate, self.width) < 1:
            raise ValueError(f"{self}: sample rate and width must be positive")
        StftConfig(self.frame_len, self.hop)    # raises on a bad frame or hop

    @property
    def stft(self) -> StftConfig:
        return StftConfig(self.frame_len, self.hop)

    @property
    def window_size(self) -> int:
        return self.stft.n_bins * self.width


def write_model(path: str | Path, kind: str, front_end: FrontEnd | None,
                dims: list[int], arrays: list[np.ndarray]) -> None:
    if front_end is None:
        raise ValueError("a bare network, which records no front end, cannot be saved")
    with output_file(path) as fh:
        fh.write(_HEADER.pack(_MAGIC, VERSION, kind.encode(), *astuple(front_end), len(dims)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        for a in arrays:
            np.ascontiguousarray(a, dtype="<f8").tofile(fh)


def read_model(path: str | Path) -> tuple[str, FrontEnd, list[int], list[np.ndarray]]:
    """(kind, front end, dims, arrays) of a model file, read once, each array
    copied once out of it: for a network, dims of its layer sizes and each
    layer's weights (out, in) and biases; for NMF, dims of the two ranks and
    the dictionaries transposed, (rank, window). A malformed, truncated or old
    file raises ModelFileError."""
    raw = Path(path).read_bytes()
    if raw[:4] in _OLD_FORMATS:
        raise ModelFileError(f"{path}: an {raw[:4].decode()} model file, the format before "
                             f"version {VERSION}; train the model again to write it anew")
    if raw[:4] != _MAGIC:
        raise ModelFileError(f"{path}: unrecognized model file (bad magic)")
    if len(raw) < _HEADER.size:
        raise ModelFileError(f"{path}: truncated header")
    _, version, tag, *grid, n_dims = _HEADER.unpack_from(raw)
    found = tag.rstrip(b"\0").decode("latin-1")
    if version != VERSION or found not in (DNN, NMF):
        raise ModelFileError(f"{path}: a version {version} {found!r} model file, "
                             f"not a version {VERSION} dnn or nmf one")
    try:
        front_end = FrontEnd(*grid)
    except ValueError as exc:
        raise ModelFileError(f"{path}: bad front end ({exc})") from None
    off = _HEADER.size + 4 * n_dims
    if len(raw) < off:
        raise ModelFileError(f"{path}: truncated header")
    if found == NMF and n_dims != 2:
        raise ModelFileError(f"{path}: an nmf model has 2 ranks, not {n_dims}")
    dims = list(struct.unpack_from(f"<{n_dims}I", raw, _HEADER.size))
    if found == DNN:
        shapes = [s for i, o in zip(dims, dims[1:]) for s in ((o, i), (o,))]
    else:
        shapes = [(r, front_end.window_size) for r in dims]
    sizes = [math.prod(s) for s in shapes]
    if len(raw) != off + 8 * sum(sizes):
        raise ModelFileError(f"{path}: payload size mismatch")
    arrays = []
    for shape, n in zip(shapes, sizes):
        arrays.append(np.frombuffer(raw, "<f8", n, off).reshape(shape).astype(np.float64))
        off += 8 * n
    return found, front_end, dims, arrays
