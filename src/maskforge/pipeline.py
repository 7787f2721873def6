"""End-to-end orchestration: corpus -> training sets -> models -> sweep CSVs.

Training matrices are filled in place, one preallocated array each, sized
from the stems' WAV headers. Separation is one block engine with two passes
over the mixture: pass one finds the magnitude peak from block STFTs, and
pass two cuts, predicts and averages the stride-1 windows a block at a time
and yields runs of finished frames (`_mean_blocks`). `separate_file` streams
those runs through the masks and the inverse STFT into two WAV writers, so
its memory does not grow with the mixture's length; `separate_song` and
`confidence_grid` gather the same runs in memory.

The alpha sweep evaluates every requested separation method on every test
song across a confidence grid. Thresholding is cheap next to model inference,
so each song's mean-confidence grid is computed once per method and re-cut
for every alpha. Rows are aggregated across songs with Student-t confidence
intervals and written in a canonical sort order, making repeat runs with the
same seeds byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import mlp, nmf
from .audio_io import (
    LABELS,
    NON_VOCAL,
    VOCAL,
    AudioBuffer,
    ManifestSong,
    StemSet,
    WavReader,
    WavWriter,
    load_song,
    pool_and_mix,
    song_length,
)
from .bss_eval import PairMetrics, SeparationMetrics, evaluate_pair
from .masking import (
    BinaryMask,
    apply_mask,
    ideal_binary_mask,
    nonvocal_mask_from_confidence,
    vocal_mask_from_confidence,
)
from .mlp import MlpModel, TrainConfig, init_model, train_sgd
from .nmf import NmfModel, nmf_train_class
from .patching import (
    MeanPrediction,
    PatchConfig,
    extract_patches,
    normalize_unit_scale,
    patch_offsets,
    repack_accumulate,
    repack_finish,
)
from .stft import ComplexSpectrogram, InverseStft, StftConfig, istft, magnitude, n_frames_for, stft

METHOD_DNN = "dnn"
METHOD_NMF = "nmf"
METHOD_IDEAL = "ideal"
METHOD_MIXTURE = "mixture"

# Each model kind owns its file format, patch-shape check and block predictor.
Model = MlpModel | NmfModel
_MODEL_FILES = {mlp.MAGIC: (METHOD_DNN, mlp.load_model),
                nmf.MAGIC: (METHOD_NMF, nmf.load_nmf)}

_SOURCE_ORDER = (VOCAL, NON_VOCAL, "mean")

FIG2_HEADER = "alpha,method,source,sdr_db,sir_db,sar_db,ci95"
FIG3_HEADER = "alpha,method,scope,sir_db,sar_db"
PER_SONG_HEADER = "song_id,method,alpha,source,sdr_db,sir_db,sar_db"


@dataclass
class ExperimentConfig:
    """Desk-scale defaults, sized for minutes-long runs.

    The epoch/learning-rate pair is calibrated: longer or hotter training
    saturates predictions toward {0,1}, which flattens the confidence sweep
    (the masks stop responding to alpha) even though raw SIR keeps climbing.
    """

    stft: StftConfig = field(default_factory=lambda: StftConfig(frame_len=512, hop=128))
    patch: PatchConfig = field(default_factory=lambda: PatchConfig(width=10, train_stride=10))
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
    ibm = ideal_binary_mask(magnitude(stft(vocal_mix, stft_cfg)),
                            magnitude(stft(nonvocal_mix, stft_cfg)))
    return ibm, stft(full_mix, stft_cfg)


def _training_rows(grid: np.ndarray, patch_cfg: PatchConfig) -> np.ndarray:
    """An (F, N) grid's windows at the training stride, one frame-major row each."""
    return extract_patches(grid, patch_cfg, patch_cfg.train_stride).rows


def song_training_pairs(stems: StemSet, stft_cfg: StftConfig,
                        patch_cfg: PatchConfig) -> tuple[np.ndarray, np.ndarray]:
    """(mixture window, oracle mask window) vector pairs for one song."""
    ibm, spec = _oracle_mask_and_mixture(pool_and_mix(stems), stft_cfg)
    return (_training_rows(normalize_unit_scale(magnitude(spec)), patch_cfg),
            _training_rows(ibm.values, patch_cfg))


def _song_windows(songs: list[ManifestSong], stft_cfg: StftConfig,
                  patch_cfg: PatchConfig) -> list[int]:
    """Each song's window count at the training stride, from its WAV headers."""
    if not songs:
        raise ValueError("empty manifest")
    return [len(patch_offsets(n_frames_for(song_length(song), stft_cfg),
                              patch_cfg.width, patch_cfg.train_stride)) for song in songs]


def build_training_set(songs: list[ManifestSong], stft_cfg: StftConfig,
                       patch_cfg: PatchConfig) -> tuple[np.ndarray, np.ndarray]:
    """Training pairs of every manifest song, stacked in one preallocated
    C-ordered (P, d) pair, so no song's pieces and their stack coexist."""
    counts = _song_windows(songs, stft_cfg, patch_cfg)
    d = stft_cfg.n_bins * patch_cfg.width
    X, Y = np.empty((sum(counts), d)), np.empty((sum(counts), d))
    row = 0
    for song, count in zip(songs, counts):
        X[row:row + count], Y[row:row + count] = song_training_pairs(
            load_song(song), stft_cfg, patch_cfg)
        row += count
    return X, Y


def build_class_matrix(songs: list[ManifestSong], label: str, stft_cfg: StftConfig,
                       patch_cfg: PatchConfig) -> np.ndarray:
    """One class's column-stacked source windows for dictionary training, in
    one preallocated C-ordered (d, P) matrix, which the fit uses as it is."""
    counts = _song_windows(songs, stft_cfg, patch_cfg)
    V = np.empty((stft_cfg.n_bins * patch_cfg.width, sum(counts)))
    col = 0
    for song, count in zip(songs, counts):
        mix = pool_and_mix(load_song(song))[LABELS.index(label)]
        norm = normalize_unit_scale(magnitude(stft(mix, stft_cfg)))
        V[:, col:col + count] = _training_rows(norm, patch_cfg).T
        col += count
    return V


def build_class_matrices(songs: list[ManifestSong], stft_cfg: StftConfig,
                         patch_cfg: PatchConfig) -> tuple[np.ndarray, np.ndarray]:
    """The vocal and the non-vocal class matrix (`build_class_matrix`)."""
    return tuple(build_class_matrix(songs, label, stft_cfg, patch_cfg) for label in LABELS)


def train_dnn(songs: list[ManifestSong], cfg: ExperimentConfig) -> tuple[MlpModel, np.ndarray]:
    X, Y = build_training_set(songs, cfg.stft, cfg.patch)
    model = init_model(cfg.layer_sizes, seed=cfg.seed)
    train_cfg = TrainConfig(epochs=cfg.epochs, learning_rate=cfg.learning_rate,
                            loss=cfg.loss, shuffle_seed=cfg.seed)
    return train_sgd(model, X, Y, train_cfg)


def train_nmf(songs: list[ManifestSong], cfg: ExperimentConfig) -> NmfModel:
    """Per-class dictionaries, each class's matrix built and fitted in turn."""
    w_v = nmf_train_class(build_class_matrix(songs, VOCAL, cfg.stft, cfg.patch),
                          cfg.nmf_rank, cfg.nmf_train_iters, seed=cfg.seed)
    w_nv = nmf_train_class(build_class_matrix(songs, NON_VOCAL, cfg.stft, cfg.patch),
                           cfg.nmf_rank, cfg.nmf_train_iters, seed=cfg.seed + 1)
    return NmfModel(w_v, w_nv, n_bins=cfg.stft.n_bins, width=cfg.patch.width)


def load_any_model(path: str | Path, cfg: ExperimentConfig) -> tuple[str, Model]:
    """(method, model) from a model file, its decoder picked by magic bytes;
    raises ValueError unless the model fits cfg's patch shape."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic not in _MODEL_FILES:
        raise ValueError(f"{path}: unrecognized model file")
    method, load = _MODEL_FILES[magic]
    model = load(path)
    model.check_patch_shape(cfg.stft.n_bins, cfg.patch.width)
    return method, model


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

# Windows that separation cuts, predicts and accumulates at a time, and frames
# per block of the first pass; a 1.8 s desk song (about 300 windows) is one
# block.
_WINDOW_BLOCK = 512


def _peak_magnitude(frames, n_frames: int) -> float:
    """Pass one: the largest magnitude of the frames that frames(a, b) gives,
    a block at a time."""
    peak = max(float(np.max(np.abs(frames(a, min(a + _WINDOW_BLOCK, n_frames)))))
               for a in range(0, n_frames, _WINDOW_BLOCK))
    if peak == 0.0:
        raise ValueError("all-zero spectrogram has no unit scale")
    return peak


def _mean_blocks(frames, n_frames: int, peak: float, model: Model,
                 cfg: ExperimentConfig, infer_seed: int):
    """Pass two: yield (bins, mean) for consecutive runs of finished frames,
    their complex STFT bins and their mean vocal confidence.

    frames(a, b) gives complex STFT frames a..b-1, and their magnitudes over
    `peak` are what the windows are cut from. Block k cuts the stride-1
    windows at offsets first..first + _WINDOW_BLOCK - 1, predicts them and
    adds them to the sums carried from block k - 1. A frame is finished once
    no later window covers it, so the last T - 1 frames' sums wait for the
    next block, where they are added to in offset order, as in one
    whole-mixture sum grid.
    """
    F, T = cfg.stft.n_bins, cfg.patch.width
    n_windows = len(patch_offsets(n_frames, T, 1))
    predict = model.predictor(n_windows, cfg.nmf_infer_iters, infer_seed)
    # the sums are stored frame-major, like the windows added into them
    acc, counts = np.zeros((T - 1, F)).T, np.zeros(T - 1, dtype=np.int64)
    for first in range(0, n_windows, _WINDOW_BLOCK):
        P = min(_WINDOW_BLOCK, n_windows - first)
        bins = frames(first, min(first + P + T - 1, n_frames))
        preds = predict(extract_patches(np.abs(bins) / peak, cfg.patch, 1), first)
        block_acc = np.zeros((P + T - 1, F)).T
        block_counts = np.zeros(P + T - 1, dtype=np.int64)
        block_acc[:, :T - 1], block_counts[:T - 1] = acc, counts
        repack_accumulate(preds.patches, preds.offsets, block_acc, block_counts)
        done = P if first + P < n_windows else n_frames - first
        yield bins[:, :done], repack_finish(block_acc, block_counts, done)
        acc, counts = block_acc[:, P:], block_counts[P:]


def confidence_grid(mix: AudioBuffer | ComplexSpectrogram, model: Model,
                    cfg: ExperimentConfig,
                    infer_seed: int = 0) -> tuple[MeanPrediction, ComplexSpectrogram]:
    """Mean per-element vocal confidence for a mixture, given as audio or as
    its STFT, plus that STFT.

    All alpha thresholds derive from this one grid, so a sweep reuses it. The
    grid is assembled from `_mean_blocks`, the blocks that streamed separation
    thresholds one at a time.
    """
    spec = mix if isinstance(mix, ComplexSpectrogram) else stft(mix, cfg.stft)
    N = spec.n_frames
    frames = lambda a, b: spec.bins[:, a:b]
    # frame-major, like the STFT's bins, so that masked bins keep their layout
    values, counts = np.empty((N, cfg.stft.n_bins)).T, np.empty(N, dtype=np.int64)
    done = 0
    for bins, mean in _mean_blocks(frames, N, _peak_magnitude(frames, N), model, cfg,
                                   infer_seed):
        values[:, done:done + bins.shape[1]] = mean.values
        counts[done:done + bins.shape[1]] = mean.counts[0]
        done += bins.shape[1]
    return MeanPrediction(values, np.broadcast_to(counts, values.shape)), spec


def threshold_and_invert(mean: MeanPrediction, spec: ComplexSpectrogram,
                         alpha: float) -> tuple[AudioBuffer, AudioBuffer]:
    """Confidence grid -> two masks -> masked inversions."""
    m_v = vocal_mask_from_confidence(mean, alpha)
    m_nv = nonvocal_mask_from_confidence(mean, alpha)
    return istft(apply_mask(spec, m_v)), istft(apply_mask(spec, m_nv))


def _invert_block(bins: np.ndarray, mean: MeanPrediction, alpha: float,
                  inverses: tuple[InverseStft, InverseStft]) -> tuple[np.ndarray, np.ndarray]:
    """`threshold_and_invert` for one run of finished frames: the two masks'
    bins are pushed through the vocal and the accompaniment inversion, which
    carry their overlap into the next run; returns the samples each finishes."""
    m_v = vocal_mask_from_confidence(mean, alpha)
    m_nv = nonvocal_mask_from_confidence(mean, alpha)
    return inverses[0].push(bins * m_v.values), inverses[1].push(bins * m_nv.values)


def _separation(read, n_samples: int, sample_rate: int, model: Model, alpha: float,
                cfg: ExperimentConfig, infer_seed: int):
    """Separate a mixture whose samples a..b-1 read(a, b) returns, in two
    passes over it. Pass one, which runs here, reads every sample and finds
    the magnitude peak; the returned generator is pass two, which yields
    consecutive (vocal, accompaniment) sample chunks. Each block's STFT is
    taken from just the samples its frames cover, so the memory separation
    takes does not grow with the mixture's length."""
    hop, frame_len = cfg.stft.hop, cfg.stft.frame_len

    def frames(a: int, b: int) -> np.ndarray:
        samples = read(a * hop, min(n_samples, (b - 1) * hop + frame_len))
        return stft(AudioBuffer(samples, sample_rate), cfg.stft).bins

    n_frames = n_frames_for(n_samples, cfg.stft)
    peak = _peak_magnitude(frames, n_frames)
    inverses = tuple(InverseStft(cfg.stft, n_frames, n_samples) for _ in range(2))
    return (_invert_block(bins, mean, alpha, inverses) for bins, mean in
            _mean_blocks(frames, n_frames, peak, model, cfg, infer_seed))


def separate_song(mix: AudioBuffer, model: Model, alpha: float,
                  cfg: ExperimentConfig,
                  infer_seed: int = 0) -> tuple[AudioBuffer, AudioBuffer]:
    """One mixture, one model, one alpha -> (vocal estimate, accompaniment)."""
    chunks = list(_separation(lambda a, b: mix.samples[a:b], len(mix), mix.sample_rate,
                              model, alpha, cfg, infer_seed))
    return tuple(AudioBuffer(np.concatenate(parts), mix.sample_rate)
                 for parts in zip(*chunks))


def separate_file(mixture: str | Path, out_vocal: str | Path, out_accomp: str | Path,
                  model: Model, alpha: float, cfg: ExperimentConfig,
                  infer_seed: int = 0) -> None:
    """`separate_song` from a WAV file to two WAV files, streamed: neither the
    mixture nor either output is held whole. Pass one reads and checks every
    sample, so a bad input fails before either output file is created, and a
    failure after that removes both."""
    paths = [Path(p).resolve() for p in (mixture, out_vocal, out_accomp)]
    if len(set(paths)) < 3:
        raise ValueError("the mixture and the two outputs must be three different files")
    with WavReader(mixture) as reader:
        chunks = _separation(reader.read, reader.n_samples, reader.sample_rate,
                             model, alpha, cfg, infer_seed)
        with WavWriter(out_vocal, reader.sample_rate) as vocal, \
                WavWriter(out_accomp, reader.sample_rate) as accomp:
            for v, a in chunks:
                vocal.write(v)
                accomp.write(a)


def ideal_mask_separate(stems: StemSet,
                        stft_cfg: StftConfig) -> tuple[AudioBuffer, AudioBuffer]:
    """Oracle separation: the true-source mask applied to the true mixture."""
    return _oracle_separation(*_oracle_mask_and_mixture(pool_and_mix(stems), stft_cfg))


def _oracle_separation(ibm: BinaryMask,
                       spec: ComplexSpectrogram) -> tuple[AudioBuffer, AudioBuffer]:
    return istft(apply_mask(spec, ibm)), istft(apply_mask(spec, BinaryMask(1.0 - ibm.values)))


# ---------------------------------------------------------------------------
# alpha sweep and CSV emission
# ---------------------------------------------------------------------------

@dataclass
class SongResult:
    song_id: str
    # per method: alpha -> PairMetrics; alpha-independent methods use key None
    metrics: dict[str, dict[float | None, PairMetrics]]

    def at(self, method: str, alpha: float) -> PairMetrics:
        per_alpha = self.metrics[method]
        return per_alpha.get(alpha, per_alpha.get(None))


@dataclass
class SweepResult:
    songs: list[SongResult]
    alphas: tuple[float, ...]
    methods: tuple[str, ...]


def _evaluate_song(song: ManifestSong, models: dict[str, Model],
                   cfg: ExperimentConfig, song_index: int) -> SongResult:
    mixes = pool_and_mix(load_song(song))
    vocal_mix, nonvocal_mix, full_mix = mixes
    ref_v, ref_nv = vocal_mix.samples, nonvocal_mix.samples
    ibm, spec = _oracle_mask_and_mixture(mixes, cfg.stft)
    out: dict[str, dict[float | None, PairMetrics]] = {}

    for method, model in models.items():
        mean, _ = confidence_grid(spec, model, cfg, infer_seed=cfg.seed + 7000 + song_index)
        per_alpha: dict[float | None, PairMetrics] = {}
        for alpha in cfg.alphas:
            est_v, est_nv = threshold_and_invert(mean, spec, alpha)
            per_alpha[alpha] = evaluate_pair(est_v.samples, est_nv.samples,
                                             ref_v, ref_nv)
        out[method] = per_alpha

    est_v, est_nv = _oracle_separation(ibm, spec)
    out[METHOD_IDEAL] = {None: evaluate_pair(est_v.samples, est_nv.samples,
                                             ref_v, ref_nv)}
    out[METHOD_MIXTURE] = {None: evaluate_pair(full_mix.samples, full_mix.samples,
                                               ref_v, ref_nv)}
    return SongResult(song.song_id, out)


def sweep_alpha(songs: list[ManifestSong], models: dict[str, Model],
                cfg: ExperimentConfig) -> SweepResult:
    """Evaluate every model on every test song across the alpha grid.

    Songs run one after another; the large matrix products inside each song
    are already spread over the cores by the BLAS library's own threads.
    """
    if not songs:
        raise ValueError("no test songs")
    results = [_evaluate_song(song, models, cfg, i) for i, song in enumerate(songs)]
    methods = (*models.keys(), METHOD_IDEAL, METHOD_MIXTURE)
    return SweepResult(songs=results, alphas=cfg.alphas, methods=methods)


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


def by_source(pm: PairMetrics) -> dict[str, SeparationMetrics]:
    """The pair's metrics keyed by CSV source name, in CSV order."""
    return dict(zip(_SOURCE_ORDER, (pm.vocal, pm.nonvocal, pm.mean)))


def per_song_row(song_id: str, method: str, alpha: float, source: str,
                 m: SeparationMetrics) -> str:
    """One PER_SONG_HEADER row."""
    return ",".join([song_id, method, "%g" % alpha, source,
                     _fmt(m.sdr_db), _fmt(m.sir_db), _fmt(m.sar_db)])


def _cells(sweep: SweepResult):
    """(alpha, method, source, per-song sdr, sir and sar columns) for each
    aggregate row, in CSV order."""
    for alpha in sweep.alphas:
        for method in sorted(sweep.methods):
            for source in _SOURCE_ORDER:
                yield alpha, method, source, zip(*(
                    by_source(song.at(method, alpha))[source].as_tuple()
                    for song in sweep.songs))


def fig2_rows(sweep: SweepResult) -> list[str]:
    """alpha,method,source,sdr_db,sir_db,sar_db,ci95 (ci95 is the SDR CI)."""
    lines = [FIG2_HEADER]
    for alpha, method, source, (sdr, sir, sar) in _cells(sweep):
        sdr_mean, ci = _mean_and_ci(sdr)
        lines.append(",".join(["%g" % alpha, method, source, _fmt(sdr_mean),
                               _fmt(np.mean(sir)), _fmt(np.mean(sar)), ci]))
    return lines


def fig3_rows(sweep: SweepResult) -> list[str]:
    """alpha,method,scope,sir_db,sar_db for the SAR-vs-SIR trajectory."""
    lines = [FIG3_HEADER]
    for alpha, method, scope, (_, sir, sar) in _cells(sweep):
        lines.append(",".join(["%g" % alpha, method, scope,
                               _fmt(np.mean(sir)), _fmt(np.mean(sar))]))
    return lines


def per_song_rows(sweep: SweepResult) -> list[str]:
    """song_id,method,alpha,source,sdr_db,sir_db,sar_db with one row per cell."""
    lines = [PER_SONG_HEADER]
    for song in sorted(sweep.songs, key=lambda s: s.song_id):
        for method in sorted(sweep.methods):
            for alpha in sweep.alphas:
                for source, m in by_source(song.at(method, alpha)).items():
                    lines.append(per_song_row(song.song_id, method, alpha, source, m))
    return lines


def write_csv(path: str | Path, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n")


def run_sweep_to_csv(songs: list[ManifestSong],
                     models: dict[str, Model],
                     cfg: ExperimentConfig, fig2_path: str | Path,
                     fig3_path: str | Path | None = None,
                     per_song_path: str | Path | None = None) -> SweepResult:
    sweep = sweep_alpha(songs, models, cfg)
    write_csv(fig2_path, fig2_rows(sweep))
    if fig3_path is not None:
        write_csv(fig3_path, fig3_rows(sweep))
    if per_song_path is not None:
        write_csv(per_song_path, per_song_rows(sweep))
    return sweep
