"""End-to-end orchestration: corpus -> training sets -> models -> sweep CSVs.

Training matrices are filled in place: each song's windows go straight into
its slice of one preallocated array (`_song_slices`, from the WAV headers),
mixture rows before mask rows; the headers also give the songs' one sample
rate, the trained model's front end with the STFT and width (`model_file`).
Separation takes its grid from that front end alone, refuses audio at another
rate, and is one block engine with two passes over the mixture: pass one finds
the magnitude peak from block STFTs (`_peak_magnitude`, which also gives
training its unit scale), and pass two cuts, predicts and averages the
stride-1 windows a block at a time and yields runs of finished frames
(`_mean_blocks`). `separate_file` streams those runs through the sweep's masks
(`_confidence_masks`) and the inverse STFT into two WAV writers. Both the
window average and the inverse are one `stft.OverlapAdd`, which carries only
the sums the next block still adds to, so separation's memory does not grow
with the mixture's length; `separate_song` and `confidence_grid` gather the
same runs in memory.

The alpha sweep scores every requested separation method on every test song
at every alpha of a confidence grid, into one table (`SweepResult`).
Thresholding is cheap next to model inference, so each song's mean-confidence
grid is computed once per method and re-cut for every alpha (`_confidence_masks`,
then `_masked_inversions`, which multiplies the bins by each mask as streamed
separation does). `figure_rows` aggregates each cell across songs once, with the
SDR's Student-t interval, into both figure tables; all tables are in a canonical
sort order, so same-seed reruns are byte-identical.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import mlp, nmf
from .audio_io import (
    NON_VOCAL,
    VOCAL,
    AudioBuffer,
    ManifestSong,
    StemSet,
    WavReader,
    landing,
    load_song,
    output_file,
    pool_and_mix,
    song_header,
    submix,
    wav_writer,
)
from .bss_eval import SOURCES, SeparationMetrics, evaluate_pair
from .masking import (
    BinaryMask,
    ideal_binary_mask,
    nonvocal_mask_from_confidence,
    vocal_mask_from_confidence,
)
from .mlp import MlpModel, TrainConfig, init_model, train_sgd
from .model_file import DNN, NMF, FrontEnd, FrontEndMismatch, read_model
from .nmf import NmfModel, nmf_train_class
from .patching import (
    MeanPrediction,
    PatchConfig,
    PredictionRange,
    extract_patches,
    patch_offsets,
)
from .stft import ComplexSpectrogram, InverseStft, OverlapAdd, StftConfig, istft, n_frames_for, stft

METHOD_DNN = DNN       # a model file's kind is its model's method name
METHOD_NMF = NMF
METHOD_IDEAL = "ideal"
METHOD_MIXTURE = "mixture"

# Each model kind owns its block predictor and records its front end.
Model = MlpModel | NmfModel

FIG2_HEADER = "alpha,method,source,sdr_db,sir_db,sar_db,ci95"
FIG3_HEADER = "alpha,method,scope,sir_db,sar_db"
PER_SONG_HEADER = "song_id,method,alpha,source,sdr_db,sir_db,sar_db"


@dataclass
class ExperimentConfig:
    """Desk-scale defaults, sized for minutes-long runs. `stft` and `patch` are
    training settings: separation takes its grid from the model and reads only
    `nmf_infer_iters`, `alphas` and `seed`.

    The epoch/learning-rate pair is calibrated: longer or hotter training
    saturates predictions toward {0,1}, which flattens the confidence sweep
    (the masks stop responding to alpha) even though raw SIR keeps climbing.
    """

    stft: StftConfig = field(default_factory=lambda: StftConfig(frame_len=512, hop=128))
    patch: PatchConfig = field(default_factory=lambda: PatchConfig(width=10))
    alphas: tuple[float, ...] = tuple(round(0.1 * k, 1) for k in range(1, 10))
    hidden: tuple[int, ...] = (1024,)
    epochs: int = 4
    learning_rate: float = 0.002
    loss: str = "cross_entropy"
    nmf_rank: int = 40
    nmf_train_iters: int = 200
    nmf_infer_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        if not self.alphas:
            raise ValueError("need at least one alpha")
        if any(not 0.0 < a < 1.0 for a in self.alphas):
            raise ValueError("alphas must lie strictly inside (0, 1)")
        if repeated := [a for a, n in Counter(self.alphas).items() if n > 1]:
            raise ValueError(f"alpha {repeated[0]} is repeated")
        # the models' own checks, made here before any song is read
        if any(h < 1 for h in self.hidden):
            raise ValueError("layer sizes must be positive")
        if self.nmf_rank < 1:
            raise ValueError("rank must be >= 1")
        if min(self.nmf_train_iters, self.nmf_infer_iters) < 1:
            raise ValueError("need at least one iteration")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def layer_sizes(self) -> list[int]:
        d = self.stft.n_bins * self.patch.width
        return [d, *self.hidden, d]


# ---------------------------------------------------------------------------
# training-set construction
# ---------------------------------------------------------------------------

def _oracle_mask_and_mixture(mixes: tuple[AudioBuffer, AudioBuffer, AudioBuffer],
                             stft_cfg: StftConfig) -> tuple[BinaryMask, ComplexSpectrogram]:
    """A song's ideal binary vocal mask and full-mix STFT from pool_and_mix's mixes."""
    vocal_mix, nonvocal_mix, full_mix = mixes
    ibm = ideal_binary_mask(np.abs(stft(vocal_mix, stft_cfg).bins),
                            np.abs(stft(nonvocal_mix, stft_cfg).bins))
    return ibm, stft(full_mix, stft_cfg)


def _unit_scaled(spec: ComplexSpectrogram, what) -> np.ndarray:
    """The magnitudes of `what`'s spectrogram over their peak, which `_peak_magnitude` finds."""
    frames = lambda a, b: spec.bins[:, a:b]
    return np.abs(spec.bins) / _peak_magnitude(frames, spec.n_frames, what)


def _training_rows(grid: np.ndarray, patch_cfg: PatchConfig) -> np.ndarray:
    """An (F, N) grid's windows at the training stride, one frame-major row each."""
    return extract_patches(grid, patch_cfg, patch_cfg.train_stride).rows


def _song_slices(songs: list[ManifestSong], stft_cfg: StftConfig,
                 patch_cfg: PatchConfig) -> tuple[list[slice], FrontEnd]:
    """Each song's slice of the stacked training windows, and the front end
    they are cut on, from the WAV headers; the songs must share one rate."""
    if not songs:
        raise ValueError("empty manifest")
    headers = [song_header(song) for song in songs]
    rates = {rate: song.song_id for song, (_, rate) in zip(songs, headers)}
    if len(rates) > 1:
        raise FrontEndMismatch("training songs differ in sample rate: " + ", ".join(
            f"{song_id} {rate} Hz" for rate, song_id in rates.items()))
    ends = list(accumulate(len(patch_offsets(n_frames_for(n, stft_cfg), patch_cfg.width,
                                             patch_cfg.train_stride)) for n, _ in headers))
    front_end = FrontEnd(headers[0][1], stft_cfg.frame_len, stft_cfg.hop, patch_cfg.width)
    return [slice(a, b) for a, b in zip([0, *ends], ends)], front_end


def build_training_set(songs: list[ManifestSong], stft_cfg: StftConfig, patch_cfg: PatchConfig
                       ) -> tuple[np.ndarray, np.ndarray, FrontEnd]:
    """(mixture window, oracle mask window) row pairs of every manifest song,
    filled song by song into one preallocated C-ordered (P, d) pair, and the
    front end they are cut on."""
    slices, front_end = _song_slices(songs, stft_cfg, patch_cfg)
    X, Y = (np.empty((slices[-1].stop, front_end.window_size)) for _ in range(2))
    for song, rows in zip(songs, slices):
        ibm, spec = _oracle_mask_and_mixture(pool_and_mix(load_song(song)), stft_cfg)
        X[rows] = _training_rows(_unit_scaled(spec, f"song {song.song_id!r}"), patch_cfg)
        Y[rows] = _training_rows(ibm.values, patch_cfg)
    return X, Y, front_end


def build_class_matrix(songs: list[ManifestSong], label: str, stft_cfg: StftConfig,
                       patch_cfg: PatchConfig) -> tuple[np.ndarray, FrontEnd]:
    """One class's column-stacked source windows for dictionary training, in
    one preallocated C-ordered (d, P) matrix, which the fit uses as it is,
    and the front end they are cut on."""
    slices, front_end = _song_slices(songs, stft_cfg, patch_cfg)
    V = np.empty((front_end.window_size, slices[-1].stop))
    for song, cols in zip(songs, slices):
        spec = stft(submix(load_song(song), label), stft_cfg)
        V[:, cols] = _training_rows(_unit_scaled(spec, f"song {song.song_id!r}"), patch_cfg).T
    return V, front_end


def train_dnn(songs: list[ManifestSong], cfg: ExperimentConfig) -> tuple[MlpModel, np.ndarray]:
    train_cfg = TrainConfig(epochs=cfg.epochs, learning_rate=cfg.learning_rate,
                            loss=cfg.loss, shuffle_seed=cfg.seed)
    X, Y, front_end = build_training_set(songs, cfg.stft, cfg.patch)
    model = init_model(cfg.layer_sizes, seed=cfg.seed, front_end=front_end)
    return train_sgd(model, X, Y, train_cfg)


def train_nmf(songs: list[ManifestSong], cfg: ExperimentConfig) -> NmfModel:
    """Per-class dictionaries, each class's matrix built and fitted in turn."""
    def fit(label: str, seed: int) -> tuple[np.ndarray, FrontEnd]:
        V, front_end = build_class_matrix(songs, label, cfg.stft, cfg.patch)
        return nmf_train_class(V, cfg.nmf_rank, cfg.nmf_train_iters, seed=seed), front_end

    (w_v, front_end), (w_nv, _) = fit(VOCAL, cfg.seed), fit(NON_VOCAL, cfg.seed + 1)
    return NmfModel(w_v, w_nv, front_end)


def load_any_model(path: str | Path) -> tuple[str, Model]:
    """(method, model) from a model file of either kind, read once."""
    kind, *parts = read_model(path)
    return kind, (mlp.from_file if kind == DNN else nmf.from_file)(*parts)


def _front_end(model: Model, sample_rate: int, what) -> FrontEnd:
    """The model's grid, whose rate audio `what` must be at; a bare network has none."""
    fe = model.front_end
    if fe is None:
        raise ValueError("a bare network, which records no front end, cannot separate")
    if fe.sample_rate != sample_rate:
        raise FrontEndMismatch(f"{what} is at {sample_rate} Hz, but the model was trained "
                               f"at {fe.sample_rate} Hz")
    return fe


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

# Windows that separation cuts, predicts and accumulates at a time, and frames
# per block of the first pass; a 1.8 s desk song (about 300 windows) is one
# block.
_WINDOW_BLOCK = 512


def _peak_magnitude(frames, n_frames: int, what) -> float:
    """The largest magnitude of the frames of `what` that frames(a, b) gives, a
    block at a time: separation's pass one, and training's unit scale (`_unit_scaled`)."""
    peak = max(float(np.max(np.abs(frames(a, min(a + _WINDOW_BLOCK, n_frames)))))
               for a in range(0, n_frames, _WINDOW_BLOCK))
    if peak == 0.0:
        raise ValueError(f"{what} has an all-zero spectrogram, which has no unit scale")
    return peak


def _mean_blocks(frames, n_frames: int, peak: float, model: Model, iterations: int,
                 infer_seed: int):
    """Pass two: yield (first, bins, mean) for consecutive runs of finished
    frames, their first frame, complex STFT bins and mean vocal confidence.

    frames(a, b) gives complex STFT frames a..b-1, and their magnitudes over
    `peak` are what the windows are cut from. Each block cuts the stride-1
    windows at offsets first..first + _WINDOW_BLOCK - 1, predicts them and
    pushes them with a count of one per frame through one `OverlapAdd`, which
    carries the last T - 1 frames' sums into the next block.
    """
    T = model.front_end.width
    patch = PatchConfig(T)
    n_windows = len(patch_offsets(n_frames, T, 1))
    predict = model.predictor(n_windows, iterations, infer_seed)
    sums = OverlapAdd(np.ones(T, dtype=np.int64), 1)
    for first in range(0, n_windows, _WINDOW_BLOCK):
        P = min(_WINDOW_BLOCK, n_windows - first)
        bins = frames(first, min(first + P + T - 1, n_frames))
        preds = predict(extract_patches(np.abs(bins) / peak, patch, 1), first)
        last = first + P == n_windows
        acc, counts = sums.push(preds.patches.transpose(0, 2, 1), last)
        done = n_frames - first if last else P
        yield first, bins[:, :done], MeanPrediction.of_sums(acc[:done], counts[:done])


def confidence_grid(mix: AudioBuffer | ComplexSpectrogram, model: Model,
                    cfg: ExperimentConfig, infer_seed: int = 0, *,
                    what="the mixture") -> tuple[MeanPrediction, ComplexSpectrogram]:
    """Mean per-element vocal confidence for a mixture `what`, given as audio
    or as its STFT, plus that STFT.

    The grid is the model's; `cfg` gives only `nmf_infer_iters`. All alpha
    thresholds derive from this one grid, so a sweep reuses it. It is built
    from `_mean_blocks`, the blocks that streamed separation thresholds.
    """
    stft_cfg = _front_end(model, mix.sample_rate, what).stft
    spec = mix if isinstance(mix, ComplexSpectrogram) else stft(mix, stft_cfg)
    if spec.config != stft_cfg:
        raise FrontEndMismatch(f"the mixture's {spec.config} is not the model's {stft_cfg}")
    N = spec.n_frames
    frames = lambda a, b: spec.bins[:, a:b]
    # frame-major, like the STFT's bins, so that masked bins keep their layout
    values, counts = np.empty((N, stft_cfg.n_bins)).T, np.empty(N, dtype=np.int64)
    peak = _peak_magnitude(frames, N, what)
    for first, bins, mean in _mean_blocks(frames, N, peak, model, cfg.nmf_infer_iters,
                                          infer_seed):
        values[:, first:first + bins.shape[1]] = mean.values
        counts[first:first + bins.shape[1]] = mean.counts[0]
    return MeanPrediction(values, np.broadcast_to(counts, values.shape)), spec


def _confidence_masks(mean: MeanPrediction, alpha: float) -> tuple[BinaryMask, BinaryMask]:
    """The vocal and the accompaniment mask of a confidence grid at alpha."""
    return vocal_mask_from_confidence(mean, alpha), nonvocal_mask_from_confidence(mean, alpha)


def _masked_inversions(spec: ComplexSpectrogram, masks) -> tuple[AudioBuffer, AudioBuffer]:
    """The mixture's STFT under each mask of a (vocal, accompaniment) pair, inverted."""
    return tuple(istft(replace(spec, bins=spec.bins * m.values)) for m in masks)


def _separation(read, n_samples: int, sample_rate: int, what, model: Model, alpha: float,
                cfg: ExperimentConfig, infer_seed: int):
    """Separate a mixture `what` whose samples a..b-1 read(a, b) returns, in
    two passes over it. Pass one, which runs here after the rate check, reads
    every sample and finds the magnitude peak; the returned generator is pass
    two, which yields consecutive (vocal, accompaniment) sample chunks. Each
    block's STFT is taken from just the samples its frames cover, so the
    memory separation takes does not grow with the mixture's length."""
    stft_cfg = _front_end(model, sample_rate, what).stft
    hop, frame_len = stft_cfg.hop, stft_cfg.frame_len

    def frames(a: int, b: int) -> np.ndarray:
        samples = read(a * hop, min(n_samples, (b - 1) * hop + frame_len))
        return stft(AudioBuffer(samples, sample_rate), stft_cfg).bins

    n_frames = n_frames_for(n_samples, stft_cfg)
    peak = _peak_magnitude(frames, n_frames, what)
    inverses = tuple(InverseStft(stft_cfg, n_frames, n_samples) for _ in range(2))

    def invert(bins: np.ndarray, mean: MeanPrediction) -> tuple[np.ndarray, np.ndarray]:
        return tuple(inverse.push(bins * m.values)
                     for inverse, m in zip(inverses, _confidence_masks(mean, alpha)))

    return (invert(bins, mean) for _, bins, mean in
            _mean_blocks(frames, n_frames, peak, model, cfg.nmf_infer_iters, infer_seed))


def separate_song(mix: AudioBuffer, model: Model, alpha: float,
                  cfg: ExperimentConfig,
                  infer_seed: int = 0) -> tuple[AudioBuffer, AudioBuffer]:
    """One mixture, one model, one alpha -> (vocal estimate, accompaniment),
    on the model's STFT and width; of `cfg` only `nmf_infer_iters` is read."""
    chunks = list(_separation(lambda a, b: mix.samples[a:b], len(mix), mix.sample_rate,
                              "the mixture", model, alpha, cfg, infer_seed))
    return tuple(AudioBuffer(np.concatenate(parts), mix.sample_rate)
                 for parts in zip(*chunks))


def separate_file(mixture: str | Path, out_vocal: str | Path, out_accomp: str | Path,
                  model: Model, alpha: float, cfg: ExperimentConfig,
                  infer_seed: int = 0) -> None:
    """`separate_song` from a WAV file to two WAV files, streamed: neither the
    mixture nor either output is held whole; the grid and `cfg` field read are
    `separate_song`'s. The output check, the rate check and pass one, which
    reads and checks every sample, come first, so a bad input fails before
    either output is begun; both outputs land together (`landing`)."""
    with landing([out_vocal, out_accomp], [mixture]), WavReader(mixture) as reader:
        chunks = _separation(reader.read, reader.n_samples, reader.sample_rate, mixture,
                             model, alpha, cfg, infer_seed)
        with wav_writer(out_vocal, reader.sample_rate) as write_vocal, \
                wav_writer(out_accomp, reader.sample_rate) as write_accomp:
            for v, a in chunks:
                write_vocal(v)
                write_accomp(a)


def ideal_mask_separate(stems: StemSet,
                        stft_cfg: StftConfig) -> tuple[AudioBuffer, AudioBuffer]:
    """Oracle separation: the true-source mask applied to the true mixture."""
    ibm, spec = _oracle_mask_and_mixture(pool_and_mix(stems), stft_cfg)
    return _masked_inversions(spec, (ibm, BinaryMask(1.0 - ibm.values)))


# ---------------------------------------------------------------------------
# alpha sweep and CSV emission
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    """The sweep's table: each song's id and its method -> alpha -> source ->
    SeparationMetrics, in manifest order; `alphas`, `methods` and SOURCES order the axes."""
    songs: list[tuple[str, dict[str, dict[float, dict[str, SeparationMetrics]]]]]
    alphas: tuple[float, ...]
    methods: tuple[str, ...]


def _evaluate_song(song: ManifestSong, models: dict[str, Model], cfg: ExperimentConfig,
                   song_index: int) -> dict[str, dict[float, dict[str, SeparationMetrics]]]:
    """One song's scores; the ideal and mixture rows do not depend on alpha,
    so each is scored once and that one object is stored at every alpha."""
    vocal_mix, nonvocal_mix, full_mix = mixes = pool_and_mix(load_song(song))
    what = f"test song {song.song_id!r}"
    # the first model's grid: sweep_alpha has checked that the models share one
    stft_cfg = next((_front_end(m, full_mix.sample_rate, what).stft for m in models.values()),
                    cfg.stft)
    ibm, spec = _oracle_mask_and_mixture(mixes, stft_cfg)

    def score(v: AudioBuffer, nv: AudioBuffer) -> dict[str, SeparationMetrics]:
        return evaluate_pair(v.samples, nv.samples, vocal_mix.samples, nonvocal_mix.samples)

    out = {}
    for method, model in models.items():
        try:
            mean, _ = confidence_grid(spec, model, cfg, cfg.seed + 7000 + song_index, what=what)
        except PredictionRange as exc:   # name the model file: one per kind
            raise PredictionRange(f"{what}, {method} model: {exc}") from None
        out[method] = {alpha: score(*_masked_inversions(spec, _confidence_masks(mean, alpha)))
                       for alpha in cfg.alphas}
    ideal = _masked_inversions(spec, (ibm, BinaryMask(1.0 - ibm.values)))
    out[METHOD_IDEAL] = dict.fromkeys(cfg.alphas, score(*ideal))
    out[METHOD_MIXTURE] = dict.fromkeys(cfg.alphas, score(full_mix, full_mix))
    return out


def sweep_alpha(songs: list[ManifestSong], models: dict[str, Model],
                cfg: ExperimentConfig) -> SweepResult:
    """Evaluate every model on every test song across the alpha grid.

    The grid is the models' one front end, or `cfg.stft` with no model; `cfg`
    otherwise gives only `alphas`, `seed` and `nmf_infer_iters`. Songs run one
    after another; the large matrix products inside each song are already
    spread over the cores by the BLAS library's own threads.
    """
    if not songs:
        raise ValueError("no test songs")
    if len({m.front_end for m in models.values()}) > 1:
        raise FrontEndMismatch("the models' front ends differ: " + ", ".join(
            f"{method} {m.front_end}" for method, m in models.items()))
    scores = [(song.song_id, _evaluate_song(song, models, cfg, i))
              for i, song in enumerate(songs)]
    return SweepResult(scores, cfg.alphas, (*models, METHOD_IDEAL, METHOD_MIXTURE))


def _fmt(x: float) -> str:
    return "%.6f" % x


def _mean_and_ci(values: list[float]) -> tuple[float, str]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(np.mean(arr))
    if len(arr) < 2 or not np.all(np.isfinite(arr)):
        return mean, ""
    # the Student-t quantile, imported here: scipy.stats takes a second to load
    from scipy.special import stdtrit
    sem = float(np.std(arr, ddof=1)) / np.sqrt(len(arr))
    half = float(stdtrit(len(arr) - 1, 0.975)) * sem
    return mean, _fmt(half)


def per_song_row(song_id: str, method: str, alpha: float, source: str,
                 m: SeparationMetrics) -> str:
    """One PER_SONG_HEADER row."""
    return ",".join([song_id, method, "%g" % alpha, source,
                     _fmt(m.sdr_db), _fmt(m.sir_db), _fmt(m.sar_db)])


def figure_rows(sweep: SweepResult) -> tuple[list[str], list[str]]:
    """The FIG2_HEADER rows (ci95 is the SDR CI) and the FIG3_HEADER rows of
    the SAR-vs-SIR trajectory, in one pass over the cells in CSV order."""
    fig2, fig3 = [FIG2_HEADER], [FIG3_HEADER]
    for alpha in sweep.alphas:
        for method in sorted(sweep.methods):
            for source in SOURCES:
                sdr, sir, sar = zip(*(scores[method][alpha][source].as_tuple()
                                      for _, scores in sweep.songs))
                sdr_mean, ci = _mean_and_ci(sdr)
                cell = ["%g" % alpha, method, source]
                sir_sar = [_fmt(np.mean(sir)), _fmt(np.mean(sar))]
                fig2.append(",".join([*cell, _fmt(sdr_mean), *sir_sar, ci]))
                fig3.append(",".join([*cell, *sir_sar]))
    return fig2, fig3


def per_song_rows(sweep: SweepResult) -> list[str]:
    """song_id,method,alpha,source,sdr_db,sir_db,sar_db with one row per cell."""
    return [PER_SONG_HEADER] + [
        per_song_row(song_id, method, alpha, source, m)
        for song_id, scores in sorted(sweep.songs, key=lambda s: s[0])
        for method in sorted(sweep.methods) for alpha in sweep.alphas
        for source, m in scores[method][alpha].items()]


def write_csv(*tables: tuple[str | Path, list[str]]) -> None:
    """CSV files from (path, lines) pairs at different paths, landed together (`landing`)."""
    with landing([path for path, _ in tables]):
        for path, lines in tables:
            with output_file(path) as fh:
                fh.write(("\n".join(lines) + "\n").encode())


def run_sweep_to_csv(songs: list[ManifestSong],
                     models: dict[str, Model],
                     cfg: ExperimentConfig, fig2_path: str | Path,
                     fig3_path: str | Path | None = None,
                     per_song_path: str | Path | None = None) -> SweepResult:
    paths = (fig2_path, fig3_path, per_song_path)
    with landing([path for path in paths if path is not None]):
        sweep = sweep_alpha(songs, models, cfg)
        tables = zip(paths, (*figure_rows(sweep), per_song_rows(sweep)))
        write_csv(*((path, lines) for path, lines in tables if path is not None))
    return sweep
